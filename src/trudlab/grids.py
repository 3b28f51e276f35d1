"""Radial grids, space-time solution fields, and the exact `%.17g` writer.

`format_17g` writes every float of the CSV artifacts (field rows, eigen and
delta-BVP profiles) with numpy, byte for byte as `b"%.17g" % v`.  A value
with 1e-4 <= |v| < 1e16 is printed in fixed notation from its 17 significant
digits D = round-half-even(|v| 10^(16-E)), E its decimal exponent.  Here
10^(16-E) is an exact double (16 - E <= 21), and Dekker's error-free product
(T. J. Dekker, "A floating-point technique for extending the available
precision", Numer. Math. 18, 1971, with Veltkamp's split by 2^27 + 1) gives
|v| 10^(16-E) = p + e exactly.  As p >= 10^16 > 2^53 is an even integer,
D = p + rint(e) is the exact product rounded half to even, as `%` rounds.
E starts at floor(log10|v|) and is corrected to the smallest exponent whose
D is below 10^17, the exponent `%` prints, so an inexact log10 costs a
second product and never a wrong digit.  Every other value (zeros,
subnormals, tiny or huge values, inf, nan) is written by `%` itself.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

CSV_BLOCK_BYTES = 1 << 16  # text cells `to_csv` formats at a time, below glibc's mmap threshold
_CELL = 24  # bytes of the longest %.17g text, "-1.7976931348623157e+308"
_POW10 = np.array([float(10 ** k) for k in range(22)])  # exact doubles
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter
_QUADS = np.arange(10000, dtype=np.uint32)  # every group of 4 digits
# "%04d" % q as one word, its first character in the low byte
_WORDS = sum((_QUADS // 10 ** (3 - i) % 10 + ord("0")) << 8 * i for i in range(4)).astype("<u4")
_FIRST = np.array([(1 << 8 * m) - 1 for m in range(5)], "<u4")  # keeps the first m bytes of a word
_TRAILING_ZEROS = sum(_QUADS % 10 ** k == 0 for k in (1, 2, 3, 4)).astype(np.int8)
# _KEPT[k, last]: how many digits of quad k (digits 4k + 1 .. 4k + 4) are written up to digit last
_KEPT = np.clip(np.arange(17) - 4 * np.arange(4)[:, None], 0, 4)


def read_only(values) -> np.ndarray:
    """A read-only float view of values (the caller's array stays writeable)."""
    view = np.asarray(values, dtype=float).view()
    view.flags.writeable = False
    return view


def format_17g(values) -> list:
    """`b"%.17g" % v` for every v of values, flattened (see the module docstring)."""
    v = np.asarray(values, dtype=float).ravel()
    a = np.abs(v)
    fixed = (a >= 1e-4) & (a < 1e16)
    text = np.zeros(v.size, f"S{_CELL}")
    text[fixed] = _fixed_text(*_decimal(a[fixed]))
    rest = np.flatnonzero(~fixed)
    text[rest] = [b"%.17g" % x for x in v[rest].tolist()]
    cells = text.view(np.uint8).reshape(-1, _CELL)
    negative = np.flatnonzero(fixed & (v < 0))
    cells[negative, 1:] = cells[negative, :-1]  # fixed text is at most 22 bytes: padding drops
    cells[negative, 0] = ord("-")
    return text.tolist()


def _decimal(a):
    """The exponent E and 17 digits D of each a in [1e-4, 1e16), as printed."""
    E = np.clip(np.floor(np.log10(a)), -4, 15).astype(np.intp)  # where the printed E lies
    D = _digits(a, E)
    while (up := np.flatnonzero(D >= 10 ** 17)).size:  # E too small, or D rounded to 10^17
        E[up] += 1
        D[up] = _digits(a[up], E[up])
    down = np.flatnonzero(D <= 10 ** 16)  # only here can E - 1 give D < 10^17
    while down.size:
        below = _digits(a[down], E[down] - 1)
        down, below = down[below < 10 ** 17], below[below < 10 ** 17]
        E[down] -= 1
        D[down] = below
    return E, D


def _split(x):
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


def _digits(a, E):
    """round-half-even(a 10^(16-E)) as int64, exact where it is >= 10^16."""
    m = _POW10.take(16 - E)
    p = a * m
    ah, al = _split(a)
    mh, ml = _split(m)
    e = al * ml - (((p - ah * mh) - al * mh) - ah * ml)  # a m = p + e exactly
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _fixed_text(E, D) -> np.ndarray:
    """Fixed-notation text of the 17 digits D at exponent E (-4 <= E <= 15),
    unsigned, as nul-padded S<_CELL> strings."""
    hi = D // 10 ** 8  # floor division by a constant is fast, divmod is not
    lead = hi // 10 ** 8
    eights = np.stack([hi - lead * 10 ** 8, D - hi * 10 ** 8])
    fours = eights // 10 ** 4
    quads = np.stack([fours, eights - fours * 10 ** 4], axis=1).reshape(4, -1)  # digits 1-16
    zeros = _TRAILING_ZEROS.take(quads)  # take: the fast gather
    trailing = zeros[0]
    for tail in zeros[1:]:
        trailing = tail + (tail == 4) * trailing
    last = np.maximum(16 - trailing, E)  # the last digit written: integer digits stay
    words = np.empty((D.size, 5), "<u4")
    words[:, 0] = (lead + ord("0")) << 24
    words[:, 1:] = (_WORDS.take(quads) & _FIRST.take(_KEPT.take(last, axis=1))).T
    point = np.where(last > E, ord("."), 0)
    text = np.zeros(D.size, f"S{_CELL}")
    low, high = E.min(initial=0), E.max(initial=0)
    for X in range(low, high + 1):  # the decimal point is placed once per exponent
        rows = np.flatnonzero(E == X) if low < high else slice(None)
        digits = words.view("V20")[rows].view(np.uint8)[:, 3:]  # gathered as whole rows
        group = np.zeros((digits.shape[0], _CELL), np.uint8)
        if X >= 0:
            group[:, :X + 1] = digits[:, :X + 1]
            group[:, X + 1] = point[rows]
            group[:, X + 2:18] = digits[:, X + 1:]
        else:
            group[:, :1 - X] = np.frombuffer(b"0.000"[:1 - X], np.uint8)
            group[:, 1 - X:18 - X] = digits
        text[rows] = group.view(text.dtype)[:, 0]
    return text


@dataclass(frozen=True)
class RadialGrid:
    """Uniform nodes on [0, R], endpoints included.  r is built once per grid,
    read-only; grids compare and hash by (R, count) alone."""

    R: float
    count: int

    def __post_init__(self):
        if not 0 < self.R < np.inf:
            raise ValueError("radius must be positive and finite")
        if self.count < 3:
            raise ValueError("grid needs at least 3 nodes")

    @property
    def h(self) -> float:
        return self.R / (self.count - 1)

    @cached_property
    def r(self) -> np.ndarray:
        return read_only(np.linspace(0.0, self.R, self.count))


@dataclass(frozen=True)
class SpaceTimeField:
    """Solution samples u(r_i, t_j): values[j, i] on grid x times.

    metadata carries the run manifest (exponent label, dimension, scheme,
    measured consistency bounds, ...).  The field is frozen throughout:
    values and times are read-only views (the caller's arrays stay writeable,
    nothing is copied) and metadata is a read-only mapping over a copy.
    """

    values: np.ndarray
    grid: RadialGrid
    times: np.ndarray
    metadata: Mapping = field(default_factory=dict)

    def __post_init__(self):
        for name in ("values", "times"):
            object.__setattr__(self, name, read_only(getattr(self, name)))
        object.__setattr__(self, "metadata", MappingProxyType(dict(self.metadata)))
        if self.values.shape != (self.times.size, self.grid.count):
            raise ValueError(
                f"field shape {self.values.shape} does not match "
                f"{self.times.size} times x {self.grid.count} nodes"
            )

    @property
    def sup_per_level(self) -> np.ndarray:
        return self.values.max(axis=1)

    @property
    def inf_per_level(self) -> np.ndarray:
        return self.values.min(axis=1)

    def to_csv(self, path) -> None:
        """t,r,u rows as csv.writer writes them (%.17g, CRLF), one level per write.

        r is formatted once into a row template, t once per level and u a
        block of levels at a time, all by `format_17g`.
        """
        count = self.grid.count
        # T stands for the level's t (no %.17g text holds a T), %s for u
        template = b"".join(b"T,%s,%%s\r\n" % r for r in format_17g(self.grid.r))
        times = format_17g(self.times)
        block = max(1, CSV_BLOCK_BYTES // (_CELL * count))
        with open(path, "wb") as fh:
            fh.write(b"t,r,u\r\n")
            for a in range(0, len(times), block):
                u = format_17g(self.values[a:a + block])
                for j, t in enumerate(times[a:a + block]):
                    fh.write(template.replace(b"T", t) % tuple(u[j * count:(j + 1) * count]))

    def manifest(self) -> dict:
        return {
            "R": self.grid.R,
            "nodes": self.grid.count,
            "t_end": float(self.times[-1]),
            "levels": int(self.times.size),
            **self.metadata,
        }
