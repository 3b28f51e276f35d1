"""Diffusion exponent: a finite real p >= 2 or the distinguished infinity label,
and the exponent law every formula of the package is written in.

Trudinger's equation (u^{p-1})_t = Delta_p u and its infinity analogue
(u^3)_t = Delta_inf u are one law in three numbers, the gradient power g, the
flux normalisation k and the geometric dimension d:

    finite p:  (g, k, d) = (p, 1, n)        infinity:  (g, k, d) = (4, 3, 1)

From them: the flux |q|^{g-2} q / k and its derivative ((g-1)/k)|q|^{g-2},
the radial operator flux'(u') u'' + (d-1) flux(u')/r, the time weight g - 1
of (g-1) u^{g-2} u_t, the gradient coefficient (g-1)/k of the log form and
the distinguished radial power g/(g-1).  Delta_inf u = (u')^2 u'' is the
d = 1 operator at g = 4, k = 3: infinity is a law of its own, never a large
finite exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Exponent:
    """Either Finite(p) with real p >= 2 (never inf) or the infinity label (stored as None)."""

    value: float | None

    def __post_init__(self):
        if self.value is not None:
            p = float(self.value)
            if not 2.0 <= p < math.inf:  # infinity is the label, never a finite value
                raise ValueError(f"finite exponent must satisfy 2 <= p < inf, got {p}")
            object.__setattr__(self, "value", p)

    @classmethod
    def finite(cls, p: float) -> "Exponent":
        return cls(float(p))

    @classmethod
    def infinity(cls) -> "Exponent":
        return cls(None)

    @classmethod
    def parse(cls, text: str | float) -> "Exponent":
        """Parse CLI/config spellings: 'inf' (or 'infinity') vs a decimal."""
        if isinstance(text, (int, float)):
            return cls.finite(text)
        s = str(text).strip().lower()
        if s in ("inf", "infinity", "oo"):
            return cls.infinity()
        return cls.finite(float(s))

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    @property
    def p(self) -> float:
        """The finite exponent; raises on the infinity label."""
        if self.value is None:
            raise ValueError("infinity label has no finite exponent value")
        return self.value

    @property
    def g(self) -> float:
        """Gradient power of the law: p for finite p, 4 for infinity."""
        return 4.0 if self.value is None else self.value

    @property
    def k(self) -> float:
        """Flux normalisation of the law: 1 for finite p, 3 for infinity."""
        return 3.0 if self.value is None else 1.0

    def d(self, n: int) -> float:
        """Geometric dimension of the law: n for finite p, 1 for infinity."""
        return 1.0 if self.value is None else float(n)

    @property
    def time_weight(self) -> float:
        """Coefficient g - 1 of the time term: p - 1, or 3 for infinity."""
        return self.g - 1.0

    @property
    def power_exponent(self) -> float:
        """The distinguished radial power g/(g-1): p/(p-1), or 4/3 for infinity."""
        return self.g / (self.g - 1.0)

    @property
    def label(self) -> str:
        if self.value is None:
            return "inf"
        return f"{self.value:g}"

    def __repr__(self):
        return f"Exponent({self.label})"


INFINITY = Exponent.infinity()
