"""Desk-scale reproductions of the asymptotic statements.

Three scripted experiments combine the eigensolver, the barrier catalog and
the radial solver:

* decay_experiment: zero boundary data, direct-implicit scheme; the sup norm
  of a nonnegative solution decays like exp(-lam_R t/(g-1)), exactly for
  eigenfunction data and as an upper rate for generic data.
* flatten_experiment: boundary data pinned at 1 with straddling initial data;
  the solution is squeezed to 1 inside the closed-form envelope pair.
* phragmen_lindelof_study: closed-form barrier arithmetic for the unbounded
  domain bounds; no PDE solve, only the limits the proof machinery provides.

Each run emits an ExperimentReport with measured quantities, targets with
declared tolerances and provenance tags, and pass flags.
"""

from __future__ import annotations

import csv
import functools
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .artifacts import write_artifacts
from .barriers import (
    ConstraintError,
    growth_barrier_max_b,
    make_flattening_lower,
    make_flattening_upper,
)
from .eigensolver import bracket_rate, first_eigenvalue
from .exponent import Exponent
from .pde import (
    DIRECT_IMPLICIT,
    LOG_IMPLICIT,
    SolverConfig,
    measure_decay_rate,
    solve_members,
    solve_trudinger_radial,
)


RATE_TOLERANCE = 0.02  # relative tolerance of the measured decay rates
HORIZON_FACTOR = 10.0  # flattening t_end over the envelopes' start time (at least 0.1)


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    inputs: dict
    measured: dict
    targets: dict  # name -> {"value", "tolerance", "kind", "source"}
    passes: dict
    runtime: float = 0.0
    tables: dict = field(default_factory=dict)  # name -> list of rows

    @property
    def all_pass(self) -> bool:
        return all(self.passes.values())

    def core_dict(self) -> dict:
        """Deterministic content (no runtime), for round-trip comparisons."""
        return {
            "name": self.name,
            "inputs": self.inputs,
            "measured": self.measured,
            "targets": self.targets,
            "passes": self.passes,
        }

    def to_dict(self) -> dict:
        return {**self.core_dict(), "runtime_seconds": self.runtime}

    def save(self, directory) -> list:
        """Write <name>-<p>-<n>-<stamp>-<hash>.json plus <base>-<table>.csv per
        table through `write_artifacts`, named from the inputs."""
        stem = f"{self.name}-{self.inputs.get('p', 'na')}-{self.inputs.get('n', 'na')}"
        writers = {f"-{tname}.csv": functools.partial(_write_rows, rows)
                   for tname, rows in self.tables.items()}
        return write_artifacts(directory, stem, self.inputs, self.to_dict(), writers)


def _write_rows(rows, path) -> None:
    with open(path, "w", newline="") as out:
        csv.writer(out).writerows(rows)


def straddle_initial(m: float, M: float, R: float):
    """C^1 initial profile: M at the axis, dipping to m at 0.6 R, back to 1 at r = R."""
    from scipy.interpolate import CubicHermiteSpline

    spline = CubicHermiteSpline([0.0, 0.6 * R, R], [M, m, 1.0], [0.0, 0.0, 0.0])
    return lambda r: spline(np.asarray(r, float))


def decay_experiment(p: Exponent, n: int, R: float, nodes: int = 401) -> ExperimentReport:
    """Measure sup-norm decay rates against the eigenvalue prediction.

    Eigenfunction data attains the rate -lam_R/(g-1) (measured as equality
    within RATE_TOLERANCE); generic nonnegative data satisfies it as an
    inequality.  Both data run as members of one solve with the boundary at
    zero and the direct-implicit scheme (BDF2 in b(u) = u^{g-1}, 200 steps to
    t_end = 5 (g-1)/lam_R); measured records each member's Newton total.
    """
    t0 = time.time()
    eig = first_eigenvalue(p, n, R)
    lam = eig.lam
    w = p.time_weight
    target_rate = -lam / w
    t_end = 5.0 * w / lam
    window = (0.5 * t_end, t_end)
    cfg = SolverConfig(p=p, n=n, R=R, nodes=nodes, t_end=t_end, scheme=DIRECT_IMPLICIT,
                       boundary=lambda t: 0.0,
                       initial=lambda r: np.interp(r, eig.grid.r, eig.psi))
    eigen, generic = solve_members(
        (cfg, replace(cfg, initial=lambda r: 1.0 - (np.asarray(r, float) / R) ** 2)))
    eigen_slope, generic_slope = (measure_decay_rate(f, window) for f in (eigen, generic))

    measured = {
        "lambda": lam,
        "eigen_slope": eigen_slope,
        "generic_slope": generic_slope,
        "eigen_newton_iterations_total": eigen.metadata["newton_iterations_total"],
        "generic_newton_iterations_total": generic.metadata["newton_iterations_total"],
    }
    targets = {
        "eigen_slope": {"value": target_rate, "tolerance": RATE_TOLERANCE,
                        "kind": "relative", "source": "eigensolver rate"},
        "generic_slope": {"value": target_rate, "tolerance": RATE_TOLERANCE,
                          "kind": "upper", "source": "eigensolver rate"},
    }
    passes = {
        "eigen_rate_attained": abs(eigen_slope - target_rate) <= RATE_TOLERANCE * abs(target_rate),
        "generic_rate_inequality": generic_slope <= target_rate * (1.0 - RATE_TOLERANCE),
    }
    return ExperimentReport(
        name="decay",
        inputs={"p": p.label, "n": n, "R": R, "nodes": nodes},
        measured=measured, targets=targets, passes=passes,
        runtime=time.time() - t0,
    )


def flatten_experiment(p: Exponent, n: int, R: float, m: float, M: float,
                       alpha: float | None = None, nodes: int = 201) -> ExperimentReport:
    """Squeeze a straddling solution to constant boundary data 1.

    Runs the log-form scheme with g = 1 and inf f = m < 1 < M = sup f (alpha
    None takes the envelopes' default), then
    checks (a) the solution sits inside the closed-form envelope pair for
    t >= max(T0, T1) at every node up to the consistency bound, (b) the
    centerline satisfies |log u(0, t)| <= C (1+t)^{-alpha} with the envelope
    constant C, (c) u -> 1 pointwise, and (d) sup/inf monotonicity for
    straddling data.
    """
    t0 = time.time()
    upper = make_flattening_upper(p, n, R, M, alpha)
    lower = make_flattening_lower(p, n, R, m, alpha)
    alpha = upper.params["alpha"]
    T0, T1 = upper.t_start, lower.t_start
    t_star = max(T0, T1)
    t_end = HORIZON_FACTOR * max(t_star, 0.1)
    f0 = straddle_initial(m, M, R)
    cfg = SolverConfig(p=p, n=n, R=R, nodes=nodes, t_end=t_end,
                       scheme=LOG_IMPLICIT, boundary=lambda t: 1.0,
                       initial=f0, dt=None if p.is_infinity else t_end / 400.0)
    fld = solve_trudinger_radial(cfg)
    bound = fld.metadata["consistency_bound_u"]

    mask = fld.times >= t_star
    r = fld.grid.r
    tt = fld.times[mask]
    U = fld.values[mask]
    up_vals = upper.value(r[None, :], tt[:, None])
    lo_vals = lower.value(r[None, :], tt[:, None])
    over = float((U - up_vals).max())
    under = float((lo_vals - U).max())

    # centerline envelope: |log u(0,t)| (1+t)^alpha <= C, where each envelope's
    # |log phi(0, t)| (1+t)^alpha is constant, |log phi(0, 0)|
    C_env = max(abs(float(env.log_value(0.0, 0.0))) for env in (upper, lower))
    center = np.abs(np.log(U[:, 0])) * (1.0 + tt) ** alpha
    envelope_excess = float(center.max() - C_env)

    final_gap = float(np.abs(fld.values[-1] - 1.0).max())
    center_final = float(abs(fld.values[-1, 0] - 1.0))
    sup, inf = fld.sup_per_level, fld.inf_per_level
    mono = bool(np.all(np.diff(sup) <= bound + 1e-12)
                and np.all(np.diff(inf) >= -bound - 1e-12))
    env_final = C_env / (1.0 + t_end) ** alpha
    # the consistency bound on u, carried to the centerline's (1+t)^alpha weight
    env_tol = bound * (1.0 + t_end) ** alpha + 1e-12

    measured = {
        "T0": T0, "T1": T1, "t_end": t_end,
        "sandwich_over": over, "sandwich_under": under,
        "envelope_constant": C_env, "envelope_excess": envelope_excess,
        "final_max_gap_to_1": final_gap, "final_center_gap_to_1": center_final,
        "consistency_bound_u": bound,
    }
    targets = {
        "sandwich": {"value": 0.0, "tolerance": bound, "kind": "upper",
                     "source": "envelope pair + scheme consistency"},
        "envelope": {"value": C_env, "tolerance": env_tol, "kind": "upper",
                     "source": "envelope constants"},
        "pointwise_limit": {"value": 1.0, "tolerance": env_final + bound,
                            "kind": "absolute", "source": "envelope at t_end"},
    }
    passes = {
        "sandwich": over <= bound and under <= bound,
        "envelope": envelope_excess <= env_tol,
        "pointwise_limit": final_gap <= env_final + bound + 1e-12,
        "monotone_extrema": mono,
    }
    return ExperimentReport(
        name="flatten",
        inputs={"p": p.label, "n": n, "R": R, "m": m, "M": M, "alpha": alpha,
                "nodes": nodes},
        measured=measured, targets=targets, passes=passes,
        runtime=time.time() - t0,
    )


def phragmen_lindelof_study(p: Exponent, n: int, m: float, M: float,
                            eps_list, R_list, t_probe: float) -> ExperimentReport:
    """Closed-form bounds on the whole space: no PDE solve, barrier arithmetic.

    In the exponent law (g, k, d): lower bound m exp(-lam(R) t/(g-1)) -> m as
    the ball radius grows, with log-gap exactly proportional to R^{-g}; upper
    bound M exp((3 eps)^{g-1} K ((1+t)^g - 1)) with K = d g^{g-2}/((g-1)^g k)
    -> M as eps -> 0, with log-gap proportional to eps^{g-1} (eps^{p-1} for
    finite p, eps^3 for infinity).
    """
    if not 0 < m <= M < np.inf:
        raise ConstraintError(f"m and M must satisfy 0 < m <= M < inf, got m={m}, M={M}")
    t0 = time.time()
    R_list = sorted(float(R) for R in R_list)
    eps_list = sorted(float(e) for e in eps_list)
    if not R_list or not eps_list:
        raise ValueError("R_list and eps_list must be non-empty")
    g, k, d = p.g, p.k, p.d(n)
    w = p.time_weight

    rows_lower = [("R", "rate", "lower_bound", "log_gap")]
    log_gaps_R = []
    for R in R_list:
        rate = bracket_rate(p, n, R)
        gap = rate * t_probe / w
        log_gaps_R.append(gap)
        rows_lower.append((R, rate, m * np.exp(-gap), gap))

    # admissibility of eps: the growth envelope needs b = 3 eps below its bound
    b_max = growth_barrier_max_b(p, t_probe, 1.0)
    bad = [e for e in eps_list if 3.0 * e >= b_max]
    if bad:
        raise ValueError(
            f"eps values {bad} inadmissible at t_probe={t_probe:g}: "
            f"need 3*eps < {b_max:.12g}")
    K_t = d * g ** (g - 2.0) / ((g - 1.0) ** g * k) * ((1.0 + t_probe) ** g - 1.0)
    gap_power = g - 1.0
    gaps_eps = [(3.0 * e) ** gap_power * K_t for e in eps_list]
    rows_upper = [("eps", "upper_bound", "log_gap")]
    for e, gap in zip(eps_list, gaps_eps):
        rows_upper.append((e, M * np.exp(gap), gap))

    # measured diagnostics
    ratio_target = 2.0 ** (-g)
    ratios = []
    for i, R in enumerate(R_list):
        if 2.0 * R in R_list:
            j = R_list.index(2.0 * R)
            ratios.append(log_gaps_R[j] / log_gaps_R[i])
    slope = float(np.polyfit(np.log(eps_list), np.log(gaps_eps), 1)[0]) \
        if len(eps_list) >= 2 else float("nan")
    lower_vals = [m * np.exp(-g) for g in log_gaps_R]
    upper_vals = [M * np.exp(g) for g in gaps_eps]

    measured = {
        "lower_gap_ratios": ratios,
        "upper_loglog_slope": slope,
        "upper_at_smallest_eps": upper_vals[0],
        "lower_at_largest_R": lower_vals[-1],
    }
    targets = {
        "lower_gap_ratio": {"value": ratio_target, "tolerance": 1e-6,
                            "kind": "absolute", "source": "rate scaling R^-p"},
        "upper_loglog_slope": {"value": gap_power, "tolerance": 0.05,
                               "kind": "absolute", "source": "amplitude scaling eps^(p-1)"},
    }
    passes = {
        "lower_gap_ratio": all(abs(rt - ratio_target) <= 1e-6 for rt in ratios) and bool(ratios),
        "upper_loglog_slope": abs(slope - gap_power) <= 0.05,
        "lower_monotone_to_m": all(np.diff(lower_vals) > 0) and lower_vals[-1] < m,
        "upper_monotone_to_M": all(np.diff(upper_vals) > 0) and upper_vals[0] > M,
    }
    return ExperimentReport(
        name="pl",
        inputs={"p": p.label, "n": n, "m": m, "M": M,
                "eps_list": eps_list, "R_list": R_list, "t_probe": t_probe},
        measured=measured, targets=targets, passes=passes,
        runtime=time.time() - t0,
        tables={"lower": rows_lower, "upper": rows_upper},
    )
