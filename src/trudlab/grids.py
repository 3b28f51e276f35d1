"""Radial grids and space-time solution fields."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np


def read_only(values) -> np.ndarray:
    """A read-only float view of values (the caller's array stays writeable)."""
    view = np.asarray(values, dtype=float).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class RadialGrid:
    """Uniform nodes on [0, R], endpoints included.  r is built once per grid,
    read-only; grids compare and hash by (R, count) alone."""

    R: float
    count: int

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError("radius must be positive")
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

        r is formatted once into a row template; each level fills in t and u.
        """
        count = self.grid.count
        template = "".join("%%s,%.17g,%%.17g\r\n" % r for r in self.grid.r.tolist())
        args = [None] * (2 * count)
        with open(path, "w", newline="") as fh:
            fh.write("t,r,u\r\n")
            for t, level in zip(self.times.tolist(), self.values):
                args[0::2] = ["%.17g" % t] * count
                args[1::2] = level.tolist()
                fh.write(template % tuple(args))

    def manifest(self) -> dict:
        return {
            "R": self.grid.R,
            "nodes": self.grid.count,
            "t_end": float(self.times[-1]),
            "levels": int(self.times.size),
            **self.metadata,
        }
