"""Radial grids and space-time solution fields."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class RadialGrid:
    """Uniform nodes on [0, R], endpoints included."""

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

    @property
    def r(self) -> np.ndarray:
        return np.linspace(0.0, self.R, self.count)


@dataclass(frozen=True)
class SpaceTimeField:
    """Solution samples u(r_i, t_j): values[j, i] on grid x times.

    metadata carries the run manifest (exponent label, dimension, scheme,
    measured consistency bounds, ...).
    """

    values: np.ndarray
    grid: RadialGrid
    times: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
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

    def parabolic_boundary_values(self) -> np.ndarray:
        """Data on the parabolic boundary: initial level plus the r=R column."""
        return np.concatenate([self.values[0, :], self.values[1:, -1]])

    def interior_values(self) -> np.ndarray:
        """All nodes strictly inside the space-time cylinder (the axis r=0 is interior)."""
        return self.values[1:, :-1]

    def to_csv(self, path) -> None:
        """t,r,u rows as csv.writer writes them (%.17g, CRLF), one level per write."""
        block = np.empty((self.grid.count, 3))
        block[:, 1] = self.grid.r
        row = "%.17g,%.17g,%.17g\r\n" * self.grid.count
        with open(path, "w", newline="") as fh:
            fh.write("t,r,u\r\n")
            for t, level in zip(self.times, self.values):
                block[:, 0] = t
                block[:, 2] = level
                fh.write(row % tuple(block.ravel().tolist()))

    def manifest(self) -> dict:
        return {
            "R": self.grid.R,
            "nodes": self.grid.count,
            "t_end": float(self.times[-1]),
            "levels": int(self.times.size),
            **self.metadata,
        }
