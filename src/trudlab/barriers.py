"""Closed-form catalog of the auxiliary comparison functions.

Each family packages one explicit sub/super-solution construction: the
separable eigen-type barrier on a ball, the space-time growth envelope on the
whole space, the self-similar kernels, the power profiles, the flattening
envelopes that squeeze solutions toward constant boundary data, and the
elliptic boundary barriers for the delta-boundary problem.

Every formula is written once in the exponent law (g, k, d) of
`exponent.Exponent`: (p, 1, n) for finite p, (4, 3, 1) for infinity.  The
growth, kernel, power and flattening families are all v = A(t) + B(t) r^beta
with beta = g/(g-1); `_power_log` is their one constructor and its
closed-form log-form residual, and each family states its time law once, as
terms(t) -> (A, A', B, B').  The boundary barrier's cone and outer ball
are one power of the law, chosen by g > d.  A branch on the exponent is left
only where the construction itself differs: the eigen barrier's (alpha, rate)
rule and the infinity lower envelope's cubic amplitude.

A BarrierSpec validates its parameter constraints at construction (also
that its derived constants come out finite, `_derivation`), stores them,
evaluates phi (and log phi where the family is naturally a log form), and
exposes a vectorized signed residual.  Each maker owns its
parameter defaults; `CATALOG_FAMILIES` maps the CLI names to the makers.
`verify_sign` samples the residual over a space-time box and reports a
Subsolution / Supersolution / Solution verdict against a relative tolerance.
"""

from __future__ import annotations

import contextlib
import enum
import functools
from collections.abc import Mapping
from dataclasses import dataclass, fields
from types import MappingProxyType
from typing import Callable

import numpy as np

from .exponent import Exponent
from .operators import (
    DomainError,
    SpaceTimeFunction,
    SpaceTimePoint,
    separable_function,
    trudinger_residual_grid,
)


class ConstraintError(ValueError):
    """Family parameters violate the construction's admissibility constraints."""


@contextlib.contextmanager
def _derivation():
    """`with _derivation() as check:` around a maker's arithmetic: an overflow, a division by an
    underflowed zero or an invalid operation (float or numpy) and a check(**constants)
    outside (0, inf) are ConstraintErrors."""

    def check(**constants):
        bad = {name: v for name, v in constants.items() if not 0.0 < v < np.inf}
        if bad:
            raise ConstraintError(f"derived constants must be finite and positive, got {bad}")

    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield check
    except (OverflowError, ZeroDivisionError, FloatingPointError) as exc:
        raise ConstraintError(f"a derived constant leaves the floats ({exc.args[-1]})") from None


class Family(enum.Enum):
    EIGEN_SEPARABLE = "eigen-separable"
    GROWTH_ENVELOPE = "growth-envelope"
    KERNEL = "kernel"
    POWER_PROFILE = "power-profile"
    FLATTEN_UPPER = "flatten-upper"
    FLATTEN_LOWER = "flatten-lower"
    INF_FLATTEN_UPPER = "inf-flatten-upper"
    INF_FLATTEN_LOWER = "inf-flatten-lower"
    BOUNDARY_CONE = "boundary-cone"
    BOUNDARY_OUTER_BALL = "boundary-outer-ball"
    PARABOLOID = "paraboloid"
    SEPARATED = "separated"


class Verdict(enum.Enum):
    SUBSOLUTION = "Subsolution"
    SUPERSOLUTION = "Supersolution"
    SOLUTION = "Solution"
    INDETERMINATE = "Indeterminate"


def _freeze_mappings(obj) -> None:
    """Store obj.params and obj.derived as read-only mappings over copies."""
    for name in ("params", "derived"):
        object.__setattr__(obj, name, MappingProxyType(dict(getattr(obj, name))))


@dataclass(frozen=True)
class ResidualReport:
    family: str
    params: Mapping
    derived: Mapping
    min_residual: float
    max_residual: float
    argmin: SpaceTimePoint
    argmax: SpaceTimePoint
    samples: int
    verdict: Verdict
    tolerance: float
    scale: float
    seed: int

    def __post_init__(self):
        _freeze_mappings(self)

    def to_dict(self) -> dict:
        """Plain JSON types: the mappings as dicts, the points as {"r", "t"},
        the verdict by value."""
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "params": dict(self.params), "derived": dict(self.derived),
                "argmin": self.argmin._asdict(), "argmax": self.argmax._asdict(),
                "verdict": self.verdict.value}


@dataclass(frozen=True)
class BarrierSpec:
    """One catalog entry: closed forms, derived constants and validity box."""

    family: Family
    p: Exponent
    n: int
    params: Mapping
    derived: Mapping
    phi: SpaceTimeFunction
    residual_fn: Callable  # (r, t) -> (residual, term-magnitude scale), broadcasting r and t
    expected: Verdict | None
    r_range: tuple
    t_start: float = 0.0
    t_end: float = np.inf
    log_phi: Callable | None = None  # log-form value when stored that way

    def __post_init__(self):
        _freeze_mappings(self)

    @property
    def is_log_form(self) -> bool:
        return self.log_phi is not None

    def value(self, r, t):
        """phi on the broadcast (r, t) shape, also for time-independent families."""
        r, t = np.asarray(r, float), np.asarray(t, float)
        return np.broadcast_to(self.phi.value(r, t), np.broadcast_shapes(r.shape, t.shape))

    def log_value(self, r, t):
        if self.log_phi is None:
            raise ValueError(f"{self.family.value} is not stored in log form")
        return self.log_phi(np.asarray(r, float), np.asarray(t, float))

    def residual(self, r, t):
        res, _ = self.residual_fn(np.asarray(r, float), np.asarray(t, float))
        return res

    def default_region(self) -> tuple:
        """The validity box, its radii cut at 3 and its times at t_start + 2."""
        r_lo, r_hi = self.r_range
        if not np.isfinite(r_hi):
            r_hi = 3.0
        t_hi = min(self.t_start + 2.0, self.t_end)
        return (r_lo, r_hi, self.t_start, t_hi)


# ---------------------------------------------------------------------------
# the power-log calculus


def _power_log(p: Exponent, n: int, terms: Callable, R: float = np.inf,
               exponentiate: bool = True):
    """v = A(t) + B(t) r^beta, beta = g/(g-1), and its closed-form log-form residual.

    terms(t) -> (A, A', B, B') is the family's time law, called on arrays of
    times.  The radial operator of B r^beta is the constant d sgn(B)|beta B|^{g-1}/k,
    so with (P, Q) = power_solution_coefficients the log form
    Lv + ((g-1)/k)|Dv|^g - (g-1) v_t is

        P sgn(B)|B|^{g-1} + ((g-1)/k) Q |B|^g r^beta - (g-1)(A' + B' r^beta)

    with term-magnitude scale |zero order| + gradient + (g-1)|A' + B' r^beta|.
    Returns (phi, residual_fn, v): phi is exp(v) when exponentiate (the
    envelopes), else v itself (the power profiles).
    """
    g, k = p.g, p.k
    beta = p.power_exponent
    P, Q = power_solution_coefficients(p, n)
    grad_coeff = (g - 1.0) / k * Q
    # sgn(B)|B|^{g-1}, chosen once: the identity at g = 2
    flux = (lambda b: b) if g == 2.0 else (lambda b: np.abs(b) ** (g - 2.0) * b)

    def logv(r, t):
        A, _, B, _ = terms(t)
        return A + B * r ** beta

    def v_r(r, B):
        return beta * B * r ** (beta - 1.0)

    def v_rr(r, B):
        return beta * (beta - 1.0) * B * r ** (beta - 2.0)

    def v_t(r, t):
        _, dA, _, dB = terms(t)
        return dA + dB * r ** beta

    def residual_fn(r, t):
        r_beta = r ** beta
        _, dA, B, dB = terms(t)
        flux_B = flux(B)
        zero_order = P * flux_B
        grad_term = grad_coeff * flux_B * B * r_beta
        time_term = (g - 1.0) * (dA + dB * r_beta)
        return (zero_order + grad_term - time_term,
                np.abs(zero_order) + grad_term + np.abs(time_term))

    if not exponentiate:
        phi = SpaceTimeFunction(logv, lambda r, t: v_r(r, terms(t)[2]),
                                lambda r, t: v_rr(r, terms(t)[2]), v_t, R=R,
                                origin_exponent=beta, origin_coefficient=lambda t: terms(t)[2])
        return phi, residual_fn, logv

    def times_exp_v(f):  # the callback e^v f(r, B, v_t), from one terms(t) call
        def callback(r, t):
            A, dA, B, dB = terms(t)
            r_beta = r ** beta
            return np.exp(A + B * r_beta) * f(r, B, dA + dB * r_beta)
        return callback

    phi = SpaceTimeFunction(lambda r, t: np.exp(logv(r, t)),
                            times_exp_v(lambda r, B, vt: v_r(r, B)),
                            times_exp_v(lambda r, B, vt: v_rr(r, B) + v_r(r, B) ** 2),
                            times_exp_v(lambda r, B, vt: vt), R=R, origin_exponent=beta,
                            origin_coefficient=lambda t: times_exp_v(lambda r, B, vt: B)(0.0, t))
    return phi, residual_fn, logv


def power_solution_coefficients(p: Exponent, n: int) -> tuple:
    """(A, B): zero-order and gradient coefficients of the power calculus.

    A = d beta^{g-1}/k and B = beta^g: n (p/(p-1))^{p-1} and (p/(p-1))^p for
    finite p, 4^3/3^4 and (4/3)^4 for infinity.
    """
    g, k, d = p.g, p.k, p.d(n)
    beta = p.power_exponent
    return d * beta ** (g - 1.0) / k, beta ** g


# ---------------------------------------------------------------------------
# family constructors


def eigen_barrier_constants(p: Exponent, n: int, R: float) -> tuple:
    """(K, alpha, theta2, lambda) of `make_eigen_barrier` on B_R, lambda its decay
    rate and the certified upper bound for the first eigenvalue of the ball."""
    if not 0 < R < np.inf:
        raise ConstraintError("R must be positive and finite")
    g, k, d = p.g, p.k, p.d(n)
    K = g + d - 2.0
    if p.is_finite:
        alpha, theta2 = (2.0 * g + K - 1.0) / (2.0 * (g - 1.0)), K / (K + 1.0)
    else:
        alpha, theta2 = 2.0, 0.5
    with _derivation() as check:
        lam = (K * theta2 ** ((g - 2.0) / 2.0) / (k * R ** g)) * (2.0 * alpha / (1.0 - theta2)) ** (g - 1.0)
        check(rate=lam)
    return K, alpha, theta2, lam


def make_eigen_barrier(p: Exponent, n: int, R: float = 1.0) -> BarrierSpec:
    """Separable barrier (1 - (r/R)^2)^alpha e^{-lambda t/(g-1)} on the ball.

    Subsolution on B_R x (0, inf); vanishes on r = R, equals 1 at (0, 0).
    The stored decay rate lambda = K theta^{g-2} (2 alpha/(1 - theta^2))^{g-1}
    / (k R^g), K = g + d - 2, is a certified upper bound for the first
    eigenvalue of the ball; the eigensolver shoots at it.  Finite p takes
    alpha = (2g + K - 1)/(2(g-1)) and theta^2 = K/(K+1); infinity takes
    alpha = 2 and theta^2 = 1/2.
    """
    K, alpha, theta2, lam = eigen_barrier_constants(p, n, R)
    g, k = p.g, p.k
    with _derivation():
        c1 = 2.0 * alpha / R ** 2
        flux_c1 = c1 ** (g - 1.0) / k
    h_exp = (alpha - 1.0) * (g - 1.0) - 1.0

    def h(r):
        return 1.0 - (np.asarray(r, float) / R) ** 2

    def residual_fn(r, t):
        # grouped closed form of L eta, finite at r = R even when eta'' blows up
        decay = np.exp(-lam * np.asarray(t, float))
        spatial = (flux_c1 * r ** (g - 2.0) * h(r) ** h_exp
                   * (2.0 * (alpha - 1.0) * (g - 1.0) * r ** 2 / R ** 2 - K * h(r)))
        zero_order = lam * h(r) ** (alpha * (g - 1.0))
        return decay * (spatial + zero_order), decay * (np.abs(spatial) + zero_order)

    eta = SpaceTimeFunction(
        value=lambda r, t: h(r) ** alpha,
        dr=lambda r, t: -c1 * r * h(r) ** (alpha - 1.0),
        drr=lambda r, t: -c1 * h(r) ** (alpha - 1.0)
        + 2.0 * c1 * (alpha - 1.0) * r ** 2 / R ** 2 * h(r) ** (alpha - 2.0),
        R=R,
    )
    decay = lambda t: np.exp(-lam * np.asarray(t, float) / (g - 1.0))
    phi = separable_function(eta, decay, lambda t: -lam / (g - 1.0) * decay(t))
    return BarrierSpec(
        family=Family.EIGEN_SEPARABLE, p=p, n=n, params={"R": float(R)},
        derived={"k": K, "alpha": alpha, "theta2": theta2, "rate": lam},
        phi=phi, residual_fn=residual_fn,
        expected=Verdict.SUBSOLUTION, r_range=(0.0, R), t_start=0.0,
    )


def growth_barrier_max_b(p: Exponent, T: float, alpha: float) -> float:
    """Largest admissible slope parameter b: (alpha k/(beta^g (T+1)^{alpha(g-1)+1}))^{1/(g-1)}."""
    g = p.g
    beta = p.power_exponent
    return (alpha * p.k / (beta ** g * (T + 1.0) ** (alpha * (g - 1.0) + 1.0))) ** (1.0 / (g - 1.0))


def make_growth_barrier(p: Exponent, n: int, T: float = 1.0, alpha: float | None = None,
                        b: float | None = None) -> BarrierSpec:
    """Supersolution exp(a[(t+1)^gamma - 1] + b (t+1)^alpha r^beta), gamma = alpha(g-1) + 1.

    a = d (beta b)^{g-1}/(k (g-1) gamma) cancels the zero-order term.  Valid
    on all of space for 0 <= t <= T provided b stays strictly below the
    admissible bound; the spatial growth exp(b r^beta) is the critical growth
    class of the unbounded-domain bounds.  alpha defaults to 1 (1/2 for
    infinity), b to half its bound.
    """
    if alpha is None:
        alpha = 1.0 if p.is_finite else 0.5
    if T <= 0 or alpha <= 0 or (b is not None and b <= 0):
        raise ConstraintError("T, alpha, b must all be positive")
    g, k, d = p.g, p.k, p.d(n)
    gamma = alpha * (g - 1.0) + 1.0
    with _derivation():
        b_max = growth_barrier_max_b(p, T, alpha)
        if b is None:
            b = 0.5 * b_max
        if not b < b_max:
            raise ConstraintError(
                f"b={b:g} inadmissible: need b < {b_max:.12g} for T={T:g}, alpha={alpha:g}")
        # a tiny b may round a to 0: a negligible zero-order term, still a supersolution
        a = d * (p.power_exponent * b) ** (g - 1.0) / (k * (g - 1.0) * gamma)
    A, Bgrad = power_solution_coefficients(p, n)

    def terms(t):
        s = t + 1.0
        return (a * (s ** gamma - 1.0), a * gamma * s ** (gamma - 1.0),
                b * s ** alpha, alpha * b * s ** (alpha - 1.0))

    phi, residual_fn, logv = _power_log(p, n, terms)
    return BarrierSpec(
        family=Family.GROWTH_ENVELOPE, p=p, n=n,
        params={"T": float(T), "alpha": float(alpha), "b": float(b)},
        derived={"a": a, "b_max": b_max, "power_coeff": A, "grad_coeff": Bgrad},
        phi=phi, residual_fn=residual_fn,
        expected=Verdict.SUPERSOLUTION, r_range=(0.0, np.inf), t_start=0.0,
        t_end=float(T), log_phi=logv,
    )


def make_kernel(p: Exponent, n: int) -> BarrierSpec:
    """Self-similar kernel t^{-m} exp(-c r^beta t^{-s}).

    m = d/(g(g-1)), c = (g-1) k^{1/(g-1)}/g^beta, s = 1/(g-1): the power-log
    function with A(t) = -m log t, B(t) = -c t^{-s}.  Exact solution on
    r >= 0, t > 0 (for p = 2 this is the heat kernel); its residual is the
    closed-form log-form residual of `_power_log`.
    """
    g, k, d = p.g, p.k, p.d(n)
    m = d / (g * (g - 1.0))
    c = (g - 1.0) * k ** (1.0 / (g - 1.0)) / g ** p.power_exponent
    s = 1.0 / (g - 1.0)

    def terms(t):
        if np.any(np.asarray(t) <= 0):
            raise DomainError("kernel defined for t > 0 only")
        return -m * np.log(t), -m / t, -c * t ** (-s), c * s * t ** (-s - 1.0)

    phi, residual_fn, logv = _power_log(p, n, terms)
    return BarrierSpec(
        family=Family.KERNEL, p=p, n=n, params={}, derived={"m": m, "c": c},
        phi=phi, residual_fn=residual_fn,
        expected=Verdict.SOLUTION, r_range=(0.0, np.inf), t_start=1e-2, log_phi=logv,
    )


def make_power_solution(p: Exponent, n: int, sign: int, f: Callable,
                        fprime: Callable, f_label: str = "f") -> BarrierSpec:
    """u = sign * f(t) r^beta with its closed-form log-form residual.

    G u = sign*A f^{g-1} + ((g-1)/k) B f^g r^beta - sign*(g-1) r^beta f'

    with (A, B) from power_solution_coefficients (the `_power_log` calculus
    at A(t) = 0, B(t) = sign f(t)); f and f' are called on arrays of times.
    The gradient term is a fixed-sign even power, so the plus branch with
    non-increasing f >= 0 is a subsolution on all of r >= 0; the minus branch
    is only sign-definite on small radii.  f >= 0 is probed on t in [0, 10].
    """
    if sign not in (+1, -1):
        raise ConstraintError("sign must be +1 or -1")
    if np.any(np.asarray(f(np.linspace(0.0, 10.0, 64))) < 0):
        raise ConstraintError("time factor f must be nonnegative")
    A, B = power_solution_coefficients(p, n)
    phi, residual_fn, _ = _power_log(
        p, n, lambda t: (0.0, 0.0, sign * f(t), sign * fprime(t)), exponentiate=False)
    expected = Verdict.SUBSOLUTION if sign > 0 else Verdict.SUPERSOLUTION
    return BarrierSpec(
        family=Family.POWER_PROFILE, p=p, n=n,
        params={"sign": sign, "f": f_label},
        derived={"power_coeff": A, "grad_coeff": B},
        phi=phi, residual_fn=residual_fn, expected=expected, r_range=(0.0, np.inf), t_start=0.0,
    )


def flattening_constants(p: Exponent, n: int, R: float, M: float, alpha: float,
                         safety: float = 1.05) -> dict:
    """Derived constants of the upper flattening envelope.

    A and B are the zero-order/gradient constants of the envelope calculus
    (B carries the ((g-1)/k) R^beta factor), a the amplitude, T0 the start
    of the validity window: the smallest time making the residual bracket
    non-positive, widened by `safety`.
    """
    g, d = p.g, p.d(n)
    beta = p.power_exponent
    A, grad_coeff = power_solution_coefficients(p, n)
    with _derivation() as check:
        B = (g - 1.0) / p.k * grad_coeff * R ** beta
        K = A * (A * (g - 1.0) / (g * B)) ** (g - 1.0) / g
        Kbar = alpha * (g - 1.0) * (d * (g - 1.0) / g ** 2 + np.log(M))
        T0 = safety * max(Kbar / K - 1.0, 0.0)
        a = A * (g - 1.0) * (1.0 + T0) ** alpha / (g * B)
        b = (1.0 + T0) ** alpha * np.log(M) / a
        check(B=B, K=K, a=a, b=b)
    return {"A": A, "B": B, "K": K, "Kbar": Kbar, "T0": T0, "a": a, "b": b}


def default_flatten_alpha(p: Exponent) -> float:
    """min(1, 1/(g-2)): the largest admissible flattening alpha, capped at 1."""
    return min(1.0, 1.0 / (p.g - 2.0)) if p.g > 2.0 else 1.0


def _check_flatten(p: Exponent, R: float, alpha: float | None) -> float:
    """Finite R > 0 and alpha in (0, 1/(g-2)], any finite alpha > 0 at g = 2;
    returns alpha, `default_flatten_alpha` when None."""
    if not 0 < R < np.inf:
        raise ConstraintError("R must be positive and finite")
    if alpha is None:
        return default_flatten_alpha(p)
    if not 0 < alpha < np.inf:
        raise ConstraintError("alpha must be positive and finite")
    g = p.g
    if g > 2.0 and alpha > 1.0 / (g - 2.0):
        raise ConstraintError(f"alpha must lie in (0, {1.0 / (g - 2.0):g}] for p={p.label}")
    return alpha


def _flattening(name: str, p: Exponent, n: int, R: float, alpha: float, c: float,
                offset: float, params: dict, derived: dict, expected: Verdict,
                t_start: float) -> BarrierSpec:
    """Envelope exp[c (R^beta - r^beta + offset)/(1+t)^alpha] of family `name`
    (prefixed "inf-" for the infinity branch)."""
    level = R ** p.power_exponent + offset

    def terms(t):  # A = -level B and B' = -alpha B/(1+t): one power of 1+t
        s = 1.0 + t
        B = -c / s ** alpha
        dB = -alpha / s * B
        return -level * B, -level * dB, B, dB

    phi, residual_fn, logv = _power_log(p, n, terms, R=R)
    return BarrierSpec(
        family=Family(name if p.is_finite else "inf-" + name), p=p, n=n,
        params=params, derived=derived, phi=phi, residual_fn=residual_fn,
        expected=expected, r_range=(0.0, R), t_start=t_start, log_phi=logv,
    )


def make_flattening_upper(p: Exponent, n: int, R: float = 1.0, M: float = 2.0,
                          alpha: float | None = None, safety: float = 1.05) -> BarrierSpec:
    """Supersolution exp[a (R^beta - r^beta + b)/(1+t)^alpha] squeezing from above.

    Boundary trace >= 1 for all t, initial trace >= M at t = T0, and the
    envelope decreases to 1 pointwise as t -> infinity.
    """
    if not 1 < M < np.inf:
        raise ConstraintError("M must be finite and exceed 1")
    alpha = _check_flatten(p, R, alpha)
    cst = flattening_constants(p, n, R, M, alpha, safety)
    return _flattening(
        "flatten-upper", p, n, R, alpha, cst["a"], cst["b"],
        params={"R": float(R), "M": float(M), "alpha": float(alpha), "safety": float(safety)},
        derived=cst, expected=Verdict.SUPERSOLUTION, t_start=cst["T0"])


def make_flattening_lower(p: Exponent, n: int, R: float = 1.0, m: float = 0.5,
                          alpha: float | None = None, safety: float = 1.05) -> BarrierSpec:
    """Subsolution squeezing from below toward 1 (boundary data 1, initial dip m).

    Finite p:  exp[-(1+T1)^alpha (R^beta - r^beta - log m)/(1+t)^alpha] for
    t >= T1.  Infinity: exp[-a (R^{4/3} - r^{4/3} + b)/(1+t)^alpha], a b =
    -log m, a the smallest admissible amplitude (5% margin), valid from t = 0.
    """
    if not 0.0 < m <= 1.0:
        raise ConstraintError("m must lie in (0, 1]")
    alpha = _check_flatten(p, R, alpha)
    A, _ = power_solution_coefficients(p, n)
    log_m = np.log(m)
    with _derivation() as check:
        R_beta = R ** p.power_exponent
        if p.is_finite:
            K = alpha * (p.g - 1.0) * (R_beta - log_m)
            T1 = safety * max(K / A - 1.0, 0.0)
            amp = (1.0 + T1) ** alpha  # coefficient in front of the shrinking exponent
            check(amp=amp)
            derived = {"A": A, "K": K, "T1": T1, "amp": amp}
            c, offset = -amp, -log_m
        else:
            # smallest a with A a^3 >= 3 alpha (R^{4/3} a - log m), then 5% margin
            cubic = np.polynomial.polynomial.Polynomial(
                [3.0 * alpha * log_m, -3.0 * alpha * R_beta, 0.0, A])
            real_pos = [float(z.real) for z in cubic.roots() if abs(z.imag) < 1e-12 and z.real > 0]
            if not real_pos:
                raise ConstraintError("no admissible amplitude for the infinity lower envelope")
            a = safety * max(real_pos)
            check(a=a)
            derived = {"A": A, "a": a, "b": -log_m / a, "T1": 0.0}
            c, offset = -a, derived["b"]
    return _flattening(
        "flatten-lower", p, n, R, alpha, c, offset,
        params={"R": float(R), "m": float(m), "alpha": float(alpha), "safety": float(safety)},
        derived=derived, expected=Verdict.SUBSOLUTION, t_start=derived["T1"])


def make_boundary_barrier(p: Exponent, n: int, delta: float = 1.0, lam: float | None = None,
                          R: float = 1.0, theta: float = 0.5, alpha: float | None = None,
                          rho: float = 0.5, safety: float = 1.05) -> BarrierSpec:
    """Elliptic supersolution w = delta + c |r^e - r0^e| with L w + lam w^{g-1} <= 0
    and w = delta at the contact radius r0.

    g > d: cone, e = theta (g-d)/(g-1) with 0 < theta < 1, on 0 < r <= r1 = R
    with r0 = 0.  g <= d: outer ball, e = -alpha with alpha > max(0, (d-g)/(g-1))
    (by default one above that bound), on r0 = rho <= r <= r1 = R + rho.  Then
    L w = -c^{g-1} K r^{(e-1)(g-1)-1} with K = |e|^{g-1}(1 - d - (g-1)(e-1))/k,
    and lam must stay below lam_max = K r1^{(e-1)(g-1)-1} / |r1^e - r0^e|^{g-1}:
    a larger lam is rejected with the bound reported, and lam defaults to half
    of it.  c is the smallest admissible value times `safety`.  At infinity
    g = 4 > d = 1, so the barrier is the cone, with K = theta^3 (1 - theta).
    """
    if delta <= 0 or R <= 0 or (lam is not None and lam <= 0):
        raise ConstraintError("delta, lam, R must be positive")
    g, k, d = p.g, p.k, p.d(n)
    if g > d:
        if not 0.0 < theta < 1.0:
            raise ConstraintError("theta must lie in (0, 1)")
        case = {"theta": theta, "R": R}
        e, r0, r1 = theta * (g - d) / (g - 1.0), 0.0, R
        # the vertex r = 0 carries value delta but residual -> -inf; sample off it
        family, r_range, reported = Family.BOUNDARY_CONE, (1e-6 * R, R), ()
    else:
        alpha_min = max(0.0, (d - g) / (g - 1.0))
        if alpha is None:
            alpha = alpha_min + 1.0
        if rho is None or rho <= 0:
            raise ConstraintError("outer-ball case needs a positive outer radius rho")
        if not alpha > alpha_min:
            raise ConstraintError(f"alpha must exceed {alpha_min:g}")
        case = {"alpha": alpha, "rho": rho, "R": R}
        e, r0, r1 = -alpha, rho, R + rho
        family, r_range, reported = Family.BOUNDARY_OUTER_BALL, (rho, r1), ("k", "J")
    w = g - 1.0
    K = abs(e) ** w * (1.0 - d - w * (e - 1.0)) / k
    with _derivation() as check:
        span = abs(r1 ** e - r0 ** e)
        lam_max = K * r1 ** ((e - 1.0) * w - 1.0) / span ** w
        if lam is None:
            lam = 0.5 * lam_max
        if not lam < lam_max:
            raise ConstraintError(f"lam={lam:g} inadmissible: need lam < {lam_max:.12g}")
        q = (lam / lam_max) ** (1.0 / w)
        c = safety * delta * q / (span * (1.0 - q))
        check(lam_max=lam_max, c=c)
    sign = np.sign(e)  # c sign (r^e - r0^e) grows from 0 at the contact radius

    def residual_fn(r, t):
        plap = -(c ** w * K * r ** ((e - 1.0) * w - 1.0))
        zero_order = lam * (delta + c * sign * (r ** e - r0 ** e)) ** w
        return plap + zero_order, np.abs(plap) + zero_order

    phi = SpaceTimeFunction(
        value=lambda r, t: delta + c * sign * (r ** e - r0 ** e),
        dr=lambda r, t: c * abs(e) * r ** (e - 1.0),
        drr=lambda r, t: c * abs(e) * (e - 1.0) * r ** (e - 2.0),
        dt=lambda r, t: 0.0,
        R=r1,
    )
    derived = {"alpha": abs(e), "c": c, "lam_max": lam_max,
               **dict(zip(reported, (K, span)))}  # the outer ball reports K and the span
    return BarrierSpec(
        family=family, p=p, n=n, params={"delta": delta, "lam": lam, **case, "safety": safety},
        derived=derived, phi=phi, residual_fn=residual_fn,
        expected=Verdict.SUPERSOLUTION, r_range=r_range, t_start=0.0,
    )


def separated_solution(psi: SpaceTimeFunction, lam: float, mu: float, p: Exponent,
                       n: int, elliptic_sign: str = "solution") -> BarrierSpec:
    """u = psi(r) e^{-mu t/(g-1)}: e^{-mu t/(p-1)}, or e^{-mu t/3} for infinity.

    psi is a radial profile, its callbacks ignoring t.  If Delta_p psi +
    lam psi^{p-1} >= 0 and mu >= lam the product is a subsolution, and
    symmetrically for <=; elliptic_sign declares which relation psi
    satisfies ('sub', 'super' or 'solution').
    """
    probe = np.linspace(0.0, psi.R, 33)
    vals = np.asarray(psi.value(probe, 0.0), float)
    # a profile's zero at r = R may round to a few ulps below 0
    if np.any(vals < -1e-12 * np.abs(vals).max()):
        raise ConstraintError("psi must be nonnegative on its domain")
    w = p.time_weight
    tf = lambda t: np.exp(-mu * np.asarray(t, float) / w)
    phi = separable_function(psi, tf, lambda t: -mu / w * tf(t))
    if elliptic_sign == "solution":
        expected = (Verdict.SOLUTION if mu == lam
                    else Verdict.SUBSOLUTION if mu > lam else Verdict.SUPERSOLUTION)
    elif elliptic_sign == "sub":
        expected = Verdict.SUBSOLUTION if mu >= lam else None
    elif elliptic_sign == "super":
        expected = Verdict.SUPERSOLUTION if mu <= lam else None
    else:
        raise ConstraintError("elliptic_sign must be 'sub', 'super' or 'solution'")

    return BarrierSpec(
        family=Family.SEPARATED, p=p, n=n,
        params={"lam": float(lam), "mu": float(mu), "elliptic_sign": elliptic_sign},
        derived={}, phi=phi, residual_fn=functools.partial(trudinger_residual_grid, phi, p, n),
        expected=expected, r_range=(0.0, psi.R), t_start=0.0,
    )


def make_paraboloid(p: Exponent, n: int, R: float = 1.0) -> BarrierSpec:
    """psi = R^2 - r^2: a non-decaying supersolution (strict except at r = 0).

    Its residual is the radial operator -(2/k)(g + d - 2)(2r)^{g-2}.
    """
    if R <= 0:
        raise ConstraintError("R must be positive")
    g, k, d = p.g, p.k, p.d(n)
    phi = SpaceTimeFunction(
        value=lambda r, t: R ** 2 - r ** 2,
        dr=lambda r, t: -2.0 * r,
        drr=lambda r, t: -2.0,
        dt=lambda r, t: 0.0,
        R=R,
    )

    def residual_fn(r, t):
        res = -(2.0 / k) * (g + d - 2.0) * (2.0 * r) ** (g - 2.0)
        return res, np.abs(res)

    return BarrierSpec(
        family=Family.PARABOLOID, p=p, n=n, params={"R": float(R)}, derived={},
        phi=phi, residual_fn=residual_fn,
        expected=Verdict.SUPERSOLUTION, r_range=(0.0, R), t_start=0.0,
    )


# ---------------------------------------------------------------------------
# sign verification


DEFAULT_SEED = 20250807


def verify_sign(spec: BarrierSpec, region: tuple | None = None, samples: int = 10_000,
                tolerance: float = 1e-9, seed: int = DEFAULT_SEED,
                random_samples: int = 1_000) -> ResidualReport:
    """Sample the family residual over an (r, t) box and classify the sign.

    Tensor grid of ~samples points (sqrt(samples) per axis), one residual_fn
    call on the axes (r[:, None], t[None, :]), so residual_fn must be
    elementwise and broadcast (r, t); then random_samples seeded uniform
    points.  Samples count the grid r-major, then the random points.
    Verdict thresholds are relative to the largest term magnitude of the
    residual over the sample set, so exact solutions classify as Solution
    instead of drowning in their own rounding.
    """
    if region is None:
        region = spec.default_region()
    r_lo, r_hi, t_lo, t_hi = (float(x) for x in region)
    if r_lo < spec.r_range[0] - 1e-12 or r_hi > spec.r_range[1] + 1e-12:
        raise DomainError(f"region radii outside the validity range {spec.r_range}")
    if t_lo < spec.t_start - 1e-12:
        raise DomainError(f"region starts before the validity time {spec.t_start:g}")

    k = max(2, int(np.sqrt(samples)))
    r_axis = np.linspace(r_lo, r_hi, k)
    t_axis = np.linspace(t_lo, t_hi, k)
    rng = np.random.default_rng(seed)
    rr = rng.uniform(r_lo, r_hi, random_samples)
    tr = rng.uniform(t_lo, t_hi, random_samples)

    # an overflow inside the residual is a parameter beyond the floats, not
    # a verdict: the same usage error as a non-finite residual
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            grid = spec.residual_fn(r_axis[:, None], t_axis[None, :])
            rand = spec.residual_fn(rr, tr)
    except FloatingPointError as exc:
        raise ConstraintError(f"residual leaves the floats ({exc})") from None
    res, scale_terms = (np.concatenate([np.broadcast_to(g, (k, k)).ravel(),
                                        np.broadcast_to(x, rr.shape)], dtype=float)
                        for g, x in zip(grid, rand))

    def point(i):
        if i < k * k:
            return SpaceTimePoint(float(r_axis[i // k]), float(t_axis[i % k]))
        return SpaceTimePoint(float(rr[i - k * k]), float(tr[i - k * k]))

    if not np.all(np.isfinite(res)):
        bad = point(int(np.argmax(~np.isfinite(res))))
        raise ConstraintError(f"residual not finite at (r={bad.r:g}, t={bad.t:g})")

    i_min = int(np.argmin(res))
    i_max = int(np.argmax(res))
    scale = float(np.max(scale_terms))
    tol_abs = tolerance * scale
    is_sub = res[i_min] >= -tol_abs
    is_super = res[i_max] <= tol_abs
    if is_sub and is_super:
        verdict = Verdict.SOLUTION
    elif is_sub:
        verdict = Verdict.SUBSOLUTION
    elif is_super:
        verdict = Verdict.SUPERSOLUTION
    else:
        verdict = Verdict.INDETERMINATE

    return ResidualReport(
        family=spec.family.value,
        params={**spec.params, "p": spec.p.label, "n": spec.n},
        derived=spec.derived,
        min_residual=float(res[i_min]),
        max_residual=float(res[i_max]),
        argmin=point(i_min),
        argmax=point(i_max),
        samples=int(res.size),
        verdict=verdict,
        tolerance=tolerance,
        scale=scale,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# the catalog


CATALOG_FAMILIES = {
    "eigen": (make_eigen_barrier, ("R",)),
    "growth": (make_growth_barrier, ("T", "alpha", "b")),
    "kernel": (make_kernel, ()),
    "power": (functools.partial(make_power_solution, sign=+1, f=lambda t: 1.0 / (1.0 + t),
                                fprime=lambda t: -1.0 / (1.0 + t) ** 2, f_label="1/(1+t)"), ()),
    "paraboloid": (make_paraboloid, ("R",)),
    "flatten-upper": (make_flattening_upper, ("R", "M", "alpha", "safety")),
    "flatten-lower": (make_flattening_lower, ("R", "m", "alpha", "safety")),
    "boundary": (make_boundary_barrier,
                 ("delta", "lam", "R", "theta", "alpha", "rho", "safety")),
}
"""CLI family name -> (maker, the parameters it takes), in catalog order."""


def make_family(family: str, p: Exponent, n: int, given: dict) -> BarrierSpec:
    """Build a catalog family by name from the values `given` sets; every
    parameter left out or None takes its maker's default; a non-numeric or
    non-finite one is a ConstraintError."""
    if family not in CATALOG_FAMILIES:
        raise ConstraintError(
            f"unknown family {family!r}; choose from {', '.join(CATALOG_FAMILIES)}")
    maker, names = CATALOG_FAMILIES[family]
    given = {k: given[k] for k in names if given.get(k) is not None}
    try:
        values = {k: float(v) for k, v in given.items()}
    except (TypeError, ValueError):
        raise ConstraintError(f"parameters must be numbers, got {given}") from None
    bad = {k: v for k, v in values.items() if not np.isfinite(v)}
    if bad:
        raise ConstraintError(f"parameters must be finite, got {bad}")
    return maker(p, n, **values)


def default_catalog(p: Exponent, n: int, R: float = 1.0) -> list:
    """One representative spec per family with a sign claim, for sweeps.

    The boundary barrier is the cone (g > d, always at infinity) or the outer
    ball (g <= d).
    """
    return [make_family(name, p, n, {"R": R}) for name in CATALOG_FAMILIES]
