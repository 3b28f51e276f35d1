"""Machine-speed reference: the timings of a run, scaled to one fixed speed.

The benchmark's 2-core machine is shared, and its speed drifts by up to
1.6x over seconds to minutes (see README.md, "Noise and bounds").  CPU time
drifts as much as wall time, so it does not help.  A fixed reference task,
interleaved with the ops, drifts the same way, so every timing is scaled by

    REF_NOMINAL_S / (mean reference time within WINDOW_S of the timed interval)

The mean, not the median: the machine slows by taking the CPU away for
stretches of milliseconds, so a short reference run is either hit or not,
and only the mean gives the share of time lost.  Against 1.2 s runs of the
same integration, 10 s means of the 10 ms reference runs had a log-log slope
of 0.96 (correlation 0.95); their medians had a slope of 0.49.

The reference is a small scipy RK45 integration of a fixed ODE: Python-level
callbacks over small numpy arrays, like trudlab's own inner loops, and none of
trudlab's code.  A change to trudlab cannot change it, so the scaled times of
two commits compare; the raw times are kept beside them in each result.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

from scipy.integrate import solve_ivp

# reference time that scaled timings assume (about its mean on the 2-core machine)
REF_NOMINAL_S = 0.012
# least time between two reference runs, and the reach of one scaled interval
EVERY_S = 0.25
WINDOW_S = 2.0


def _rhs(t, y):
    return [y[1], -y[0] * (1.0 + 0.1 * math.sin(t))]


def reference() -> float:
    """Seconds one run of the reference task takes now."""
    t0 = time.perf_counter()
    solve_ivp(_rhs, (0.0, 10.0), [1.0, 0.0], rtol=1e-9, atol=1e-12)
    return time.perf_counter() - t0


class Speed:
    """Reference runs taken through a run, and the scale factors they give."""

    def __init__(self):
        self.at = []     # perf_counter() at the end of each reference run
        self.took = []   # its duration
        self.spent = 0.0

    def probe(self) -> None:
        took = reference()
        self.at.append(time.perf_counter())
        self.took.append(took)
        self.spent += took

    def maybe_probe(self) -> None:
        """Probe if the last probe is at least EVERY_S old."""
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """Factor taking a raw time measured over [start, end] to the nominal speed."""
        i = bisect.bisect_left(self.at, start - WINDOW_S)
        j = bisect.bisect_right(self.at, end + WINDOW_S)
        near = self.took[i:j]
        if not near:  # no probe that close: take the nearest one
            k = min(range(len(self.at)), key=lambda k: abs(self.at[k] - start))
            near = [self.took[k]]
        return REF_NOMINAL_S / statistics.fmean(near)
