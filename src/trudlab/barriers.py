"""Closed-form catalog of the auxiliary comparison functions.

Each family packages one explicit sub/super-solution construction: the
separable eigen-type barrier on a ball, the space-time growth envelope on the
whole space, the self-similar kernels, the power profiles, the flattening
envelopes that squeeze solutions toward constant boundary data, the elliptic
boundary barriers for the delta-boundary problem, and the time factor used to
halve a solution over one time block.

A BarrierSpec validates its parameter constraints at construction, stores the
derived constants, evaluates phi (and log phi where the family is naturally a
log form), and exposes a vectorized signed residual.  `verify_sign` samples
the residual over a space-time box and reports a Subsolution / Supersolution /
Solution verdict against a relative tolerance.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exponent import Exponent
from .operators import (
    DomainError,
    RadialProfile,
    SpaceTimeFunction,
    SpaceTimePoint,
    separable_function,
    trudinger_residual_grid,
)


class ConstraintError(ValueError):
    """Family parameters violate the construction's admissibility constraints."""


class Family(enum.Enum):
    EIGEN_SEPARABLE = "eigen-separable"
    GROWTH_ENVELOPE = "growth-envelope"
    KERNEL = "kernel"
    POWER_PROFILE = "power-profile"
    FLATTEN_UPPER = "flatten-upper"
    FLATTEN_LOWER = "flatten-lower"
    INF_FLATTEN_UPPER = "inf-flatten-upper"
    INF_FLATTEN_LOWER = "inf-flatten-lower"
    TIME_FACTOR = "time-factor"
    BOUNDARY_CONE = "boundary-cone"
    BOUNDARY_OUTER_BALL = "boundary-outer-ball"
    PARABOLOID = "paraboloid"
    SEPARATED = "separated"


class Verdict(enum.Enum):
    SUBSOLUTION = "Subsolution"
    SUPERSOLUTION = "Supersolution"
    SOLUTION = "Solution"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class BarrierEval:
    value: float
    is_log_form: bool
    log_value: float | None = None


@dataclass(frozen=True)
class ResidualReport:
    family: str
    params: dict
    derived: dict
    min_residual: float
    max_residual: float
    argmin: SpaceTimePoint
    argmax: SpaceTimePoint
    samples: int
    verdict: Verdict
    tolerance: float
    scale: float
    seed: int
    notes: tuple = ()

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "derived": self.derived,
            "min_residual": self.min_residual,
            "max_residual": self.max_residual,
            "argmin": {"r": self.argmin.r, "t": self.argmin.t},
            "argmax": {"r": self.argmax.r, "t": self.argmax.t},
            "samples": self.samples,
            "verdict": self.verdict.value,
            "tolerance": self.tolerance,
            "scale": self.scale,
            "seed": self.seed,
            "notes": list(self.notes),
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kw)


@dataclass(frozen=True)
class BarrierSpec:
    """One catalog entry: closed forms, derived constants and validity box."""

    family: Family
    p: Exponent
    n: int
    params: dict
    derived: dict
    phi: SpaceTimeFunction
    residual_fn: Callable  # (r, t) -> (residual, term-magnitude scale)
    operator: str  # "trudinger" | "log-form" | "elliptic"
    expected: Verdict | None
    r_range: tuple
    t_start: float = 0.0
    t_end: float = np.inf
    log_phi: Callable | None = None  # log-form value when stored that way
    notes: tuple = ()

    @property
    def is_log_form(self) -> bool:
        return self.log_phi is not None

    def value(self, r, t):
        return self.phi.value(np.asarray(r, float), np.asarray(t, float))

    def log_value(self, r, t):
        if self.log_phi is None:
            raise ValueError(f"{self.family.value} is not stored in log form")
        return self.log_phi(np.asarray(r, float), np.asarray(t, float))

    def eval_point(self, r: float, t: float) -> BarrierEval:
        v = float(self.value(r, t))
        if self.is_log_form:
            return BarrierEval(v, True, float(self.log_value(r, t)))
        return BarrierEval(v, False, None)

    def residual(self, r, t):
        res, _ = self.residual_fn(np.asarray(r, float), np.asarray(t, float))
        return res

    def default_region(self, t_span: float = 2.0) -> tuple:
        r_lo, r_hi = self.r_range
        if not np.isfinite(r_hi):
            r_hi = 3.0
        t_hi = min(self.t_start + t_span, self.t_end)
        return (r_lo, r_hi, self.t_start, t_hi)


# ---------------------------------------------------------------------------
# family constructors


def make_eigen_barrier(p: Exponent, n: int, R: float) -> BarrierSpec:
    """Separable barrier (1 - (r/R)^2)^alpha e^{-lambda t/(p-1)} on the ball.

    Subsolution on B_R x (0, inf); vanishes on r = R, equals 1 at (0, 0).
    The stored decay rate is a certified upper bound for the first
    eigenvalue of the ball; the eigensolver shoots at it.
    """
    if R <= 0:
        raise ConstraintError("R must be positive")
    params = {"R": float(R)}
    if p.is_finite:
        pf = p.p
        k = pf + n - 2.0
        alpha = (2.0 * pf + k - 1.0) / (2.0 * (pf - 1.0))
        theta2 = k / (k + 1.0)
        lam = (k * theta2 ** ((pf - 2.0) / 2.0) / R ** pf) * (2.0 * alpha / (1.0 - theta2)) ** (pf - 1.0)
        derived = {"k": k, "alpha": alpha, "theta2": theta2, "rate": lam}
        c1 = 2.0 * alpha / R ** 2
        half_exp = (k - 1.0) / 2.0  # (alpha-1)(p-1) - 1

        def h(r):
            return 1.0 - (np.asarray(r, float) / R) ** 2

        def plap_eta(r):
            # grouped closed form, finite at r = R even when eta'' blows up
            r = np.asarray(r, float)
            return (c1 ** (pf - 1.0) * r ** (pf - 2.0) * h(r) ** half_exp
                    * (2.0 * (alpha - 1.0) * (pf - 1.0) * r ** 2 / R ** 2 - k * h(r)))

        def residual_fn(r, t):
            decay = np.exp(-lam * np.asarray(t, float))
            spatial = plap_eta(r)
            zero_order = lam * h(r) ** (alpha * (pf - 1.0))
            return decay * (spatial + zero_order), decay * (np.abs(spatial) + zero_order)

        def value(r, t):
            return h(r) ** alpha * np.exp(-lam * np.asarray(t, float) / (pf - 1.0))

        def dr(r, t):
            r = np.asarray(r, float)
            return -c1 * r * h(r) ** (alpha - 1.0) * np.exp(-lam * np.asarray(t, float) / (pf - 1.0))

        def drr(r, t):
            r = np.asarray(r, float)
            e = np.exp(-lam * np.asarray(t, float) / (pf - 1.0))
            return (-c1 * h(r) ** (alpha - 1.0)
                    + 2.0 * c1 * (alpha - 1.0) * r ** 2 / R ** 2 * h(r) ** (alpha - 2.0)) * e

        def dt(r, t):
            return -lam / (pf - 1.0) * value(r, t)

        phi = SpaceTimeFunction(value, dr, drr, dt, R=R)
    else:
        lam = 2.0 ** 8 / R ** 4
        derived = {"theta": 1.0 / np.sqrt(2.0), "rate": lam, "alpha": 2.0}
        derived["k"] = float("nan")

        def h(r):
            return 1.0 - (np.asarray(r, float) / R) ** 2

        def eta_d1(r):
            r = np.asarray(r, float)
            return -4.0 * r * h(r) / R ** 2

        def eta_d2(r):
            r = np.asarray(r, float)
            return -4.0 * h(r) / R ** 2 + 8.0 * r ** 2 / R ** 4

        def residual_fn(r, t):
            decay = np.exp(-lam * np.asarray(t, float))
            spatial = eta_d1(r) ** 2 * eta_d2(r)
            zero_order = lam * h(r) ** 6
            return decay * (spatial + zero_order), decay * (np.abs(spatial) + zero_order)

        def value(r, t):
            return h(r) ** 2 * np.exp(-lam * np.asarray(t, float) / 3.0)

        phi = SpaceTimeFunction(
            value,
            dr=lambda r, t: eta_d1(r) * np.exp(-lam * np.asarray(t, float) / 3.0),
            drr=lambda r, t: eta_d2(r) * np.exp(-lam * np.asarray(t, float) / 3.0),
            dt=lambda r, t: -lam / 3.0 * value(r, t),
            R=R,
        )

    return BarrierSpec(
        family=Family.EIGEN_SEPARABLE, p=p, n=n, params=params, derived=derived,
        phi=phi, residual_fn=residual_fn, operator="trudinger",
        expected=Verdict.SUBSOLUTION, r_range=(0.0, R), t_start=0.0,
    )


def growth_barrier_max_b(p: Exponent, T: float, alpha: float) -> float:
    """Largest admissible slope parameter b for the growth envelope."""
    if p.is_finite:
        pf = p.p
        return (alpha / ((pf / (pf - 1.0)) ** pf * (T + 1.0) ** (alpha * (pf - 1.0) + 1.0))) ** (1.0 / (pf - 1.0))
    return (alpha * 3.0 ** 5 / (4.0 ** 4 * (T + 1.0) ** (3.0 * alpha + 1.0))) ** (1.0 / 3.0)


def make_growth_barrier(p: Exponent, n: int, T: float, alpha: float, b: float) -> BarrierSpec:
    """Supersolution exp(a[(t+1)^{alpha(p-1)+1} - 1] + b (t+1)^alpha r^{p/(p-1)}).

    Valid on all of space for 0 <= t <= T provided b stays strictly below the
    admissible bound; the spatial growth exp(b r^{p/(p-1)}) is the critical
    growth class of the unbounded-domain bounds.
    """
    if T <= 0 or alpha <= 0 or b <= 0:
        raise ConstraintError("T, alpha, b must all be positive")
    b_max = growth_barrier_max_b(p, T, alpha)
    if not b < b_max:
        raise ConstraintError(
            f"b={b:g} inadmissible: need b < {b_max:.12g} for T={T:g}, alpha={alpha:g}")
    beta = p.power_exponent
    params = {"T": float(T), "alpha": float(alpha), "b": float(b)}
    if p.is_finite:
        pf = p.p
        gamma = alpha * (pf - 1.0) + 1.0
        a = n * pf ** (pf - 1.0) * b ** (pf - 1.0) / ((pf - 1.0) ** pf * gamma)
        A = n * (pf / (pf - 1.0)) ** (pf - 1.0)
        Bgrad = (pf / (pf - 1.0)) ** pf

        def logv(r, t):
            t = np.asarray(t, float)
            return a * ((t + 1.0) ** gamma - 1.0) + b * (t + 1.0) ** alpha * np.asarray(r, float) ** beta

        def residual_fn(r, t):
            r = np.asarray(r, float)
            t = np.asarray(t, float)
            res = (b * (pf - 1.0) * r ** beta * (t + 1.0) ** (alpha - 1.0)
                   * (Bgrad * b ** (pf - 1.0) * (t + 1.0) ** gamma - alpha))
            scale = (A * b ** (pf - 1.0) * (t + 1.0) ** (alpha * (pf - 1.0))
                     + (pf - 1.0) * Bgrad * b ** pf * (t + 1.0) ** (alpha * pf) * r ** beta
                     + (pf - 1.0) * (a * gamma * (t + 1.0) ** (gamma - 1.0)
                                     + alpha * b * (t + 1.0) ** (alpha - 1.0) * r ** beta))
            return res, scale

        derived = {"a": a, "b_max": b_max, "power_coeff": A, "grad_coeff": Bgrad}
    else:
        gamma = 3.0 * alpha + 1.0
        a = 4.0 ** 3 * b ** 3 / (3.0 ** 5 * gamma)
        A = 4.0 ** 3 / 3.0 ** 4
        Bgrad = (4.0 / 3.0) ** 4

        def logv(r, t):
            t = np.asarray(t, float)
            return a * ((t + 1.0) ** gamma - 1.0) + b * (t + 1.0) ** alpha * np.asarray(r, float) ** beta

        def residual_fn(r, t):
            r = np.asarray(r, float)
            t = np.asarray(t, float)
            res = (b * r ** beta * (t + 1.0) ** (alpha - 1.0)
                   * (Bgrad * b ** 3 * (t + 1.0) ** gamma - 3.0 * alpha))
            scale = (A * b ** 3 * (t + 1.0) ** (3.0 * alpha)
                     + Bgrad * b ** 4 * (t + 1.0) ** (4.0 * alpha) * r ** beta
                     + 3.0 * (a * gamma * (t + 1.0) ** (gamma - 1.0)
                              + alpha * b * (t + 1.0) ** (alpha - 1.0) * r ** beta))
            return res, scale

        derived = {"a": a, "b_max": b_max, "power_coeff": A, "grad_coeff": Bgrad}

    phi = _log_form_function(logv, dlog_dr=lambda r, t: b * (np.asarray(t, float) + 1.0) ** alpha
                             * beta * np.asarray(r, float) ** (beta - 1.0),
                             dlog_drr=lambda r, t: b * (np.asarray(t, float) + 1.0) ** alpha
                             * beta * (beta - 1.0) * np.asarray(r, float) ** (beta - 2.0),
                             dlog_dt=lambda r, t: (a * gamma * (np.asarray(t, float) + 1.0) ** (gamma - 1.0)
                                                   + alpha * b * (np.asarray(t, float) + 1.0) ** (alpha - 1.0)
                                                   * np.asarray(r, float) ** beta),
                             origin_exponent=beta,
                             origin_coefficient=lambda t: b * (t + 1.0) ** alpha)

    return BarrierSpec(
        family=Family.GROWTH_ENVELOPE, p=p, n=n, params=params, derived=derived,
        phi=phi, residual_fn=residual_fn, operator="log-form",
        expected=Verdict.SUPERSOLUTION, r_range=(0.0, np.inf), t_start=0.0,
        t_end=float(T), log_phi=logv,
    )


def _log_form_function(logv, dlog_dr, dlog_drr, dlog_dt,
                       origin_exponent=None, origin_coefficient=None,
                       R=np.inf) -> SpaceTimeFunction:
    """phi = exp(v) with derivatives pushed through from the log form v."""
    def value(r, t):
        return np.exp(logv(r, t))

    def dr(r, t):
        return value(r, t) * dlog_dr(r, t)

    def drr(r, t):
        return value(r, t) * (dlog_drr(r, t) + dlog_dr(r, t) ** 2)

    def dt(r, t):
        return value(r, t) * dlog_dt(r, t)

    return SpaceTimeFunction(value, dr, drr, dt, R=R,
                             origin_exponent=origin_exponent,
                             origin_coefficient=origin_coefficient)


def make_kernel(p: Exponent, n: int) -> BarrierSpec:
    """Self-similar kernel t^{-n/(p(p-1))} exp(-((p-1)/p^{p/(p-1)}) (r^p/t)^{1/(p-1)}).

    Exact solution on r >= 0, t > 0 (for p = 2 this is the heat kernel);
    analytic r- and t-derivatives are exposed for residual testing.
    """
    beta = p.power_exponent
    if p.is_finite:
        pf = p.p
        m = n / (pf * (pf - 1.0))
        c = (pf - 1.0) / pf ** beta
        s = 1.0 / (pf - 1.0)
    else:
        m = 1.0 / 12.0
        c = (3.0 / 4.0) ** (4.0 / 3.0)
        s = 1.0 / 3.0

    def value(r, t):
        r = np.asarray(r, float)
        t = np.asarray(t, float)
        if np.any(t <= 0):
            raise DomainError("kernel defined for t > 0 only")
        return t ** (-m) * np.exp(-c * r ** beta * t ** (-s))

    def dr(r, t):
        r = np.asarray(r, float)
        t = np.asarray(t, float)
        return value(r, t) * (-c * beta * r ** (beta - 1.0) * t ** (-s))

    def drr(r, t):
        r = np.asarray(r, float)
        t = np.asarray(t, float)
        w = c * beta * r ** (beta - 1.0) * t ** (-s)
        return value(r, t) * (w ** 2 - c * beta * (beta - 1.0) * r ** (beta - 2.0) * t ** (-s))

    def dt(r, t):
        r = np.asarray(r, float)
        t = np.asarray(t, float)
        return value(r, t) * (-m / t + c * s * r ** beta * t ** (-s - 1.0))

    phi = SpaceTimeFunction(value, dr, drr, dt, R=np.inf,
                            origin_exponent=beta,
                            origin_coefficient=lambda t: -c * t ** (-m - s))

    def residual_fn(r, t):
        return trudinger_residual_grid(phi, p, n, r, t)

    return BarrierSpec(
        family=Family.KERNEL, p=p, n=n, params={}, derived={"m": m, "c": c},
        phi=phi, residual_fn=residual_fn, operator="trudinger",
        expected=Verdict.SOLUTION, r_range=(0.0, np.inf), t_start=1e-2,
    )


def power_solution_coefficients(p: Exponent, n: int) -> tuple:
    """(A, B): zero-order and gradient coefficients of the power calculus.

    A = n (p/(p-1))^{p-1}, B = (p/(p-1))^p for finite p;
    A = 4^3/3^4, B = (4/3)^4 for infinity.
    """
    if p.is_finite:
        beta = p.power_exponent
        return n * beta ** (p.p - 1.0), beta ** p.p
    return 4.0 ** 3 / 3.0 ** 4, (4.0 / 3.0) ** 4


def make_power_solution(p: Exponent, n: int, sign: int, f: Callable,
                        fprime: Callable, t_max: float = np.inf,
                        f_label: str = "f") -> BarrierSpec:
    """u = sign * f(t) r^{p/(p-1)} with its closed-form log-form residual.

    Finite p:   G u = sign*A f^{p-1} + (p-1) B f^p r^{p/(p-1)} - sign*(p-1) r^{p/(p-1)} f'
    infinity:   G u = sign*A f^3    +       B f^4 r^{4/3}     - sign*3 r^{4/3} f'

    with (A, B) from power_solution_coefficients.  The gradient term is a
    fixed-sign even power, so the plus branch with non-increasing f >= 0 is a
    subsolution on all of r >= 0; the minus branch is only sign-definite on
    small radii.
    """
    if sign not in (+1, -1):
        raise ConstraintError("sign must be +1 or -1")
    ts = np.linspace(0.0, min(t_max, 10.0), 64)
    fv = np.asarray([f(t) for t in ts], float)
    if np.any(fv < 0):
        raise ConstraintError("time factor f must be nonnegative")
    beta = p.power_exponent
    A, B = power_solution_coefficients(p, n)
    w = p.time_weight  # p-1 or 3
    grad_w = p.p - 1.0 if p.is_finite else 1.0  # coefficient on the |Du|^p term

    def residual_fn(r, t):
        r = np.asarray(r, float)
        t = np.asarray(t, float)
        ft = np.vectorize(f)(t)
        dft = np.vectorize(fprime)(t)
        zero_order = A * ft ** w
        grad_term = grad_w * B * ft ** (w + 1.0) * r ** beta
        time_term = w * r ** beta * dft
        res = sign * zero_order + grad_term - sign * time_term
        return res, np.abs(zero_order) + np.abs(grad_term) + np.abs(time_term)

    def value(r, t):
        return sign * np.vectorize(f)(np.asarray(t, float)) * np.asarray(r, float) ** beta

    phi = SpaceTimeFunction(
        value,
        dr=lambda r, t: sign * np.vectorize(f)(np.asarray(t, float)) * beta
        * np.asarray(r, float) ** (beta - 1.0),
        drr=lambda r, t: sign * np.vectorize(f)(np.asarray(t, float)) * beta * (beta - 1.0)
        * np.asarray(r, float) ** (beta - 2.0),
        dt=lambda r, t: sign * np.vectorize(fprime)(np.asarray(t, float))
        * np.asarray(r, float) ** beta,
        R=np.inf,
        origin_exponent=beta,
        origin_coefficient=lambda t: sign * f(t),
    )

    expected = Verdict.SUBSOLUTION if sign > 0 else Verdict.SUPERSOLUTION
    return BarrierSpec(
        family=Family.POWER_PROFILE, p=p, n=n,
        params={"sign": sign, "f": f_label, "t_max": float(t_max) if np.isfinite(t_max) else None},
        derived={"power_coeff": A, "grad_coeff": B},
        phi=phi, residual_fn=residual_fn, operator="log-form",
        expected=expected, r_range=(0.0, np.inf), t_start=0.0,
    )


def flattening_constants(p: Exponent, n: int, R: float, M: float, alpha: float,
                         safety: float = 1.05) -> dict:
    """Derived constants of the upper flattening envelope.

    A and B are the zero-order/gradient constants of the envelope calculus
    (B carries the (p-1) R^{p/(p-1)} factor), a the amplitude, T0 the start
    of the validity window: the smallest time making the residual bracket
    non-positive, widened by `safety`.
    """
    beta = p.power_exponent
    if p.is_finite:
        pf = p.p
        A = n * beta ** (pf - 1.0)
        B = (pf - 1.0) * beta ** pf * R ** beta
        K = A * (A * (pf - 1.0) / (pf * B)) ** (pf - 1.0) / pf
        Kbar = alpha * (pf - 1.0) * (n * (pf - 1.0) / pf ** 2 + np.log(M))
        T0 = safety * max(Kbar / K - 1.0, 0.0)
        a = A * (pf - 1.0) * (1.0 + T0) ** alpha / (pf * B)
        b = (1.0 + T0) ** alpha * np.log(M) / a
        return {"A": A, "B": B, "K": K, "Kbar": Kbar, "T0": T0, "a": a, "b": b}
    A = 4.0 ** 3 / 3.0 ** 4
    B = (4.0 / 3.0) ** 4 * R ** beta
    C = 3.0 * alpha * (3.0 / 16.0 + np.log(M))
    D = (A / 4.0) * (3.0 * A / (4.0 * B)) ** 3
    T0 = safety * max(C / D - 1.0, 0.0)
    a = 3.0 * A * (1.0 + T0) ** alpha / (4.0 * B)
    b = (1.0 + T0) ** alpha * np.log(M) / a
    return {"A": A, "B": B, "K": D, "Kbar": C, "T0": T0, "a": a, "b": b}


def _check_flatten_alpha(p: Exponent, alpha: float):
    if alpha <= 0:
        raise ConstraintError("alpha must be positive")
    if p.is_finite:
        if p.p > 2.0 and alpha > 1.0 / (p.p - 2.0):
            raise ConstraintError(
                f"alpha must lie in (0, {1.0 / (p.p - 2.0):g}] for p={p.p:g}")
    elif alpha > 0.5:
        raise ConstraintError("alpha must lie in (0, 1/2] for the infinity branch")


def make_flattening_upper(p: Exponent, n: int, R: float, M: float, alpha: float,
                          safety: float = 1.05) -> BarrierSpec:
    """Supersolution exp[a (R^beta - r^beta + b)/(1+t)^alpha] squeezing from above.

    Boundary trace >= 1 for all t, initial trace >= M at t = T0, and the
    envelope decreases to 1 pointwise as t -> infinity.
    """
    if M <= 1:
        raise ConstraintError("M must exceed 1")
    if R <= 0:
        raise ConstraintError("R must be positive")
    _check_flatten_alpha(p, alpha)
    beta = p.power_exponent
    cst = flattening_constants(p, n, R, M, alpha, safety)
    a, b, T0 = cst["a"], cst["b"], cst["T0"]
    A, _ = power_solution_coefficients(p, n)
    grad_coeff = power_solution_coefficients(p, n)[1]
    w = p.time_weight
    grad_w = p.p - 1.0 if p.is_finite else 1.0

    def logv(r, t):
        r = np.asarray(r, float)
        t = np.asarray(t, float)
        return a * (R ** beta - r ** beta + b) / (1.0 + t) ** alpha

    def residual_fn(r, t):
        r = np.asarray(r, float)
        t = np.asarray(t, float)
        atil = a / (1.0 + t) ** alpha
        zero_order = A * atil ** w
        grad_term = grad_w * grad_coeff * atil ** (w + 1.0) * r ** beta
        time_term = alpha * w * a * (R ** beta - r ** beta + b) / (1.0 + t) ** (alpha + 1.0)
        return -zero_order + grad_term + time_term, zero_order + grad_term + np.abs(time_term)

    phi = _log_form_function(
        logv,
        dlog_dr=lambda r, t: -a * beta * np.asarray(r, float) ** (beta - 1.0)
        / (1.0 + np.asarray(t, float)) ** alpha,
        dlog_drr=lambda r, t: -a * beta * (beta - 1.0) * np.asarray(r, float) ** (beta - 2.0)
        / (1.0 + np.asarray(t, float)) ** alpha,
        dlog_dt=lambda r, t: -alpha * a
        * (R ** beta - np.asarray(r, float) ** beta + b)
        / (1.0 + np.asarray(t, float)) ** (alpha + 1.0),
        origin_exponent=beta,
        origin_coefficient=lambda t: -a / (1.0 + t) ** alpha,
        R=R,
    )
    fam = Family.FLATTEN_UPPER if p.is_finite else Family.INF_FLATTEN_UPPER
    return BarrierSpec(
        family=fam, p=p, n=n,
        params={"R": float(R), "M": float(M), "alpha": float(alpha), "safety": float(safety)},
        derived=cst, phi=phi, residual_fn=residual_fn, operator="log-form",
        expected=Verdict.SUPERSOLUTION, r_range=(0.0, R), t_start=T0, log_phi=logv,
    )


def make_flattening_lower(p: Exponent, n: int, R: float, m: float, alpha: float,
                          safety: float = 1.05) -> BarrierSpec:
    """Subsolution squeezing from below toward 1 (boundary data 1, initial dip m).

    Finite p:  exp[-(1+T1)^alpha (R^beta - r^beta - log m)/(1+t)^alpha] for
    t >= T1.  Infinity: exp[-a (R^{4/3} - r^{4/3} + b)/(1+t)^alpha], a b =
    -log m, a the smallest admissible amplitude (5% margin), valid from t = 0.
    """
    if not 0.0 < m <= 1.0:
        raise ConstraintError("m must lie in (0, 1]")
    if R <= 0:
        raise ConstraintError("R must be positive")
    _check_flatten_alpha(p, alpha)
    beta = p.power_exponent
    A, grad_coeff = power_solution_coefficients(p, n)
    w = p.time_weight
    grad_w = p.p - 1.0 if p.is_finite else 1.0
    log_m = np.log(m)

    if p.is_finite:
        pf = p.p
        K = alpha * (pf - 1.0) * (R ** beta - log_m)
        T1 = safety * max(K / A - 1.0, 0.0)
        amp = (1.0 + T1) ** alpha  # coefficient in front of the shrinking exponent
        derived = {"A": A, "K": K, "T1": T1, "amp": amp}

        def logv(r, t):
            r = np.asarray(r, float)
            t = np.asarray(t, float)
            return -amp * (R ** beta - r ** beta - log_m) / (1.0 + t) ** alpha

        def residual_fn(r, t):
            r = np.asarray(r, float)
            t = np.asarray(t, float)
            g = amp / (1.0 + t) ** alpha
            zero_order = A * g ** w
            grad_term = grad_w * grad_coeff * g ** (w + 1.0) * r ** beta
            time_term = alpha * w * amp * (R ** beta - r ** beta - log_m) / (1.0 + t) ** (alpha + 1.0)
            return zero_order + grad_term - time_term, zero_order + grad_term + np.abs(time_term)

        origin_coeff = lambda t: amp / (1.0 + t) ** alpha
        dlog_dr = lambda r, t: amp * beta * np.asarray(r, float) ** (beta - 1.0) \
            / (1.0 + np.asarray(t, float)) ** alpha
        dlog_drr = lambda r, t: amp * beta * (beta - 1.0) * np.asarray(r, float) ** (beta - 2.0) \
            / (1.0 + np.asarray(t, float)) ** alpha
        dlog_dt = lambda r, t: alpha * amp * (R ** beta - np.asarray(r, float) ** beta - log_m) \
            / (1.0 + np.asarray(t, float)) ** (alpha + 1.0)
    else:
        # smallest a with A a^3 >= 3 alpha (R^{4/3} a - log m), then 5% margin
        cubic = np.polynomial.polynomial.Polynomial(
            [3.0 * alpha * log_m, -3.0 * alpha * R ** beta, 0.0, A])
        roots = cubic.roots()
        real_pos = [float(z.real) for z in roots if abs(z.imag) < 1e-12 and z.real > 0]
        if not real_pos:
            raise ConstraintError("no admissible amplitude for the infinity lower envelope")
        a = safety * max(real_pos)
        b = -log_m / a
        T1 = 0.0
        derived = {"A": A, "a": a, "b": b, "T1": T1}

        def logv(r, t):
            r = np.asarray(r, float)
            t = np.asarray(t, float)
            return -a * (R ** beta - r ** beta + b) / (1.0 + t) ** alpha

        def residual_fn(r, t):
            r = np.asarray(r, float)
            t = np.asarray(t, float)
            g = a / (1.0 + t) ** alpha
            zero_order = A * g ** 3
            grad_term = grad_coeff * g ** 4 * r ** beta
            time_term = 3.0 * alpha * a * (R ** beta - r ** beta + b) / (1.0 + t) ** (alpha + 1.0)
            return zero_order + grad_term - time_term, zero_order + grad_term + np.abs(time_term)

        origin_coeff = lambda t: a / (1.0 + t) ** alpha
        dlog_dr = lambda r, t: a * beta * np.asarray(r, float) ** (beta - 1.0) \
            / (1.0 + np.asarray(t, float)) ** alpha
        dlog_drr = lambda r, t: a * beta * (beta - 1.0) * np.asarray(r, float) ** (beta - 2.0) \
            / (1.0 + np.asarray(t, float)) ** alpha
        dlog_dt = lambda r, t: alpha * a * (R ** beta - np.asarray(r, float) ** beta + b) \
            / (1.0 + np.asarray(t, float)) ** (alpha + 1.0)

    phi = _log_form_function(logv, dlog_dr, dlog_drr, dlog_dt,
                             origin_exponent=beta, origin_coefficient=origin_coeff, R=R)
    fam = Family.FLATTEN_LOWER if p.is_finite else Family.INF_FLATTEN_LOWER
    return BarrierSpec(
        family=fam, p=p, n=n,
        params={"R": float(R), "m": float(m), "alpha": float(alpha), "safety": float(safety)},
        derived=derived, phi=phi, residual_fn=residual_fn, operator="log-form",
        expected=Verdict.SUBSOLUTION, r_range=(0.0, R), t_start=derived["T1"], log_phi=logv,
    )


def make_time_factor(lam: float, p: Exponent, S: float, T: float) -> BarrierSpec:
    """Time damping factor F(t; S, T) interpolating 1 -> 1/2 over [S, T].

    F = (1/2)[1 + (beta(t) - 1)/(beta(S) - 1)] with beta(t) = exp(lam (T-t)/w),
    w = p-1 (3 for infinity); requires beta(S) >= 2 so that multiplying a
    positive separable profile by F stays a supersolution.
    """
    if lam <= 0:
        raise ConstraintError("lam must be positive")
    if not S < T:
        raise ConstraintError("need S < T")
    w = p.time_weight

    def beta_fn(t):
        return np.exp(lam * (T - np.asarray(t, float)) / w)

    beta_S = float(beta_fn(S))
    if beta_S < 2.0 - 1e-12:
        raise ConstraintError(
            f"beta(S,T)={beta_S:.6g} < 2; stretch the block so exp(lam (T-S)/{w:g}) >= 2")

    def F(t):
        return 0.5 * (1.0 + (beta_fn(t) - 1.0) / (beta_S - 1.0))

    def F_t(t):
        return -lam * beta_fn(t) / (2.0 * w * (beta_S - 1.0))

    phi = SpaceTimeFunction(
        value=lambda r, t: F(t) + 0.0 * np.asarray(r, float),
        dr=lambda r, t: 0.0 * np.asarray(r, float) + 0.0 * np.asarray(t, float),
        drr=lambda r, t: 0.0 * np.asarray(r, float) + 0.0 * np.asarray(t, float),
        dt=lambda r, t: F_t(t) + 0.0 * np.asarray(r, float),
    )

    def residual_fn(r, t):
        raise ValueError("the time factor carries no standalone sign claim; "
                         "combine it with an elliptic profile")

    spec = BarrierSpec(
        family=Family.TIME_FACTOR, p=p, n=0,
        params={"lam": float(lam), "S": float(S), "T": float(T)},
        derived={"beta_S": beta_S},
        phi=phi, residual_fn=residual_fn, operator="none",
        expected=None, r_range=(0.0, np.inf), t_start=S,
    )
    object.__setattr__(spec, "F", F)
    object.__setattr__(spec, "F_t", F_t)
    return spec


def boundary_barrier_max_rate(p: Exponent, n: int, case_params: dict) -> float:
    """Admissible zero-order rate bound for the elliptic boundary barriers."""
    pf = p.p
    if pf > n:
        theta = case_params["theta"]
        R = case_params["R"]
        alpha = theta * (pf - n) / (pf - 1.0)
        return (1.0 - theta) * (pf - n) * alpha ** (pf - 1.0) / R ** pf
    alpha = case_params["alpha"]
    rho = case_params["rho"]
    R = case_params["R"]
    k = alpha ** (pf - 1.0) * (alpha * (pf - 1.0) + pf - n)
    return (k / (R + rho) ** pf) * (rho ** alpha / ((R + rho) ** alpha - rho ** alpha)) ** (pf - 1.0)


def make_boundary_barrier(p: Exponent, n: int, delta: float, lam: float,
                          R: float, theta: float | None = None,
                          alpha: float | None = None, rho: float | None = None,
                          safety: float = 1.05) -> BarrierSpec:
    """Elliptic supersolution w with Delta_p w + lam w^{p-1} <= 0 and w = delta
    at the contact point.

    n < p: cone barrier delta + c r^alpha on 0 < r <= R with
    alpha = theta (p-n)/(p-1), 0 < theta < 1.  2 <= p <= n: outer-ball barrier
    delta + c (rho^{-alpha} - r^{-alpha}) on rho <= r <= R + rho with
    alpha > max(0, (n-p)/(p-1)).  c is the smallest admissible value times
    `safety`; lam above the admissible bound is rejected with the bound
    reported.
    """
    if p.is_infinity:
        raise ConstraintError("boundary barriers are defined for finite p only")
    pf = p.p
    if delta <= 0 or lam <= 0 or R <= 0:
        raise ConstraintError("delta, lam, R must be positive")
    if pf > n:
        if theta is None:
            theta = 0.5
        if not 0.0 < theta < 1.0:
            raise ConstraintError("theta must lie in (0, 1)")
        alpha_c = theta * (pf - n) / (pf - 1.0)
        lam_max = boundary_barrier_max_rate(p, n, {"theta": theta, "R": R})
        if not lam < lam_max:
            raise ConstraintError(
                f"lam={lam:g} inadmissible: need lam < {lam_max:.12g}")
        Q = (1.0 - theta) * (pf - n) * alpha_c ** (pf - 1.0) / R ** pf
        s = (lam / Q) ** (1.0 / (pf - 1.0))
        c = safety * delta * s / (R ** alpha_c * (1.0 - s))
        derived = {"alpha": alpha_c, "c": c, "lam_max": lam_max}

        def value(r, t):
            return delta + c * np.asarray(r, float) ** alpha_c + 0.0 * np.asarray(t, float)

        def residual_fn(r, t):
            r = np.asarray(r, float)
            wv = delta + c * r ** alpha_c
            plap = -((c * alpha_c) ** (pf - 1.0) * (1.0 - theta) * (pf - n)
                     * r ** (alpha_c * (pf - 1.0) - pf))
            zero_order = lam * wv ** (pf - 1.0)
            res = plap + zero_order + 0.0 * np.asarray(t, float)
            return res, np.abs(plap) + zero_order

        phi = SpaceTimeFunction(
            value,
            dr=lambda r, t: c * alpha_c * np.asarray(r, float) ** (alpha_c - 1.0)
            + 0.0 * np.asarray(t, float),
            drr=lambda r, t: c * alpha_c * (alpha_c - 1.0)
            * np.asarray(r, float) ** (alpha_c - 2.0) + 0.0 * np.asarray(t, float),
            dt=lambda r, t: 0.0 * np.asarray(r, float) + 0.0 * np.asarray(t, float),
            R=R,
        )
        # the vertex r = 0 carries value delta but residual -> -inf; sample off it
        r_range = (1e-6 * R, R)
        fam = Family.BOUNDARY_CONE
        params = {"delta": delta, "lam": lam, "R": R, "theta": theta, "safety": safety}
    else:
        if rho is None or rho <= 0:
            raise ConstraintError("outer-ball case needs a positive outer radius rho")
        alpha_min = max(0.0, (n - pf) / (pf - 1.0))
        if alpha is None:
            alpha = alpha_min + 1.0
        if not alpha > alpha_min:
            raise ConstraintError(f"alpha must exceed {alpha_min:g}")
        k = alpha ** (pf - 1.0) * (alpha * (pf - 1.0) + pf - n)
        lam_max = boundary_barrier_max_rate(p, n, {"alpha": alpha, "rho": rho, "R": R})
        if not lam < lam_max:
            raise ConstraintError(
                f"lam={lam:g} inadmissible: need lam < {lam_max:.12g}")
        J = rho ** (-alpha) - (R + rho) ** (-alpha)
        s = (lam * (rho + R) ** (alpha * (pf - 1.0) + pf) / k) ** (1.0 / (pf - 1.0))
        c = safety * delta * s / (1.0 - s * J)
        derived = {"alpha": alpha, "c": c, "k": k, "J": J, "lam_max": lam_max}

        def value(r, t):
            r = np.asarray(r, float)
            return delta + c * (rho ** (-alpha) - r ** (-alpha)) + 0.0 * np.asarray(t, float)

        def residual_fn(r, t):
            r = np.asarray(r, float)
            wv = delta + c * (rho ** (-alpha) - r ** (-alpha))
            plap = -(c ** (pf - 1.0) * k * r ** (-(alpha * (pf - 1.0) + pf)))
            zero_order = lam * wv ** (pf - 1.0)
            res = plap + zero_order + 0.0 * np.asarray(t, float)
            return res, np.abs(plap) + zero_order

        phi = SpaceTimeFunction(
            value,
            dr=lambda r, t: c * alpha * np.asarray(r, float) ** (-alpha - 1.0)
            + 0.0 * np.asarray(t, float),
            drr=lambda r, t: -c * alpha * (alpha + 1.0)
            * np.asarray(r, float) ** (-alpha - 2.0) + 0.0 * np.asarray(t, float),
            dt=lambda r, t: 0.0 * np.asarray(r, float) + 0.0 * np.asarray(t, float),
            R=R + rho,
        )
        r_range = (rho, R + rho)
        fam = Family.BOUNDARY_OUTER_BALL
        params = {"delta": delta, "lam": lam, "R": R, "alpha": alpha,
                  "rho": rho, "safety": safety}

    return BarrierSpec(
        family=fam, p=p, n=n, params=params, derived=derived,
        phi=phi, residual_fn=residual_fn, operator="elliptic",
        expected=Verdict.SUPERSOLUTION, r_range=r_range, t_start=0.0,
    )


def separated_solution(psi: RadialProfile, lam: float, mu: float, p: Exponent,
                       n: int, elliptic_sign: str = "solution") -> BarrierSpec:
    """u = psi(r) e^{-mu t/(p-1)} (e^{-mu t/3} for infinity).

    If Delta_p psi + lam psi^{p-1} >= 0 and mu >= lam the product is a
    subsolution, and symmetrically for <=; elliptic_sign declares which
    relation psi satisfies ('sub', 'super' or 'solution').
    """
    probe = np.linspace(0.0, psi.R, 33)
    vals = np.asarray(psi.value(probe), float)
    if np.any(vals < 0):
        raise ConstraintError("psi must be nonnegative on its domain")
    w = p.time_weight

    def tf(t):
        return np.exp(-mu * np.asarray(t, float) / w)

    def tf_prime(t):
        return -mu / w * tf(t)

    phi = separable_function(psi, tf, tf_prime)

    def residual_fn(r, t):
        return trudinger_residual_grid(phi, p, n, r, t)

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
        derived={}, phi=phi, residual_fn=residual_fn, operator="trudinger",
        expected=expected, r_range=(0.0, psi.R), t_start=0.0,
    )


# ---------------------------------------------------------------------------
# sign verification


DEFAULT_SEED = 20250807


def verify_sign(spec: BarrierSpec, region: tuple | None = None,
                expected: Verdict | None = None, samples: int = 10_000,
                tolerance: float = 1e-9, seed: int = DEFAULT_SEED,
                random_samples: int = 1_000) -> ResidualReport:
    """Sample the family residual over an (r, t) box and classify the sign.

    Tensor grid of ~samples points (sqrt(samples) per axis) plus
    random_samples seeded uniform points.  Verdict thresholds are relative to
    the largest term magnitude of the residual over the sample set, so exact
    solutions classify as Solution instead of drowning in their own rounding.
    """
    if expected is None:
        expected = spec.expected
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
    rg, tg = np.meshgrid(r_axis, t_axis, indexing="ij")
    rng = np.random.default_rng(seed)
    rr = rng.uniform(r_lo, r_hi, random_samples)
    tr = rng.uniform(t_lo, t_hi, random_samples)
    r_all = np.concatenate([rg.ravel(), rr])
    t_all = np.concatenate([tg.ravel(), tr])

    res, scale_terms = spec.residual_fn(r_all, t_all)
    res = np.asarray(res, float)
    if res.shape != r_all.shape:
        res = np.broadcast_to(res, r_all.shape)
    scale_terms = np.broadcast_to(np.asarray(scale_terms, float), r_all.shape)
    if not np.all(np.isfinite(res)):
        bad = np.argmax(~np.isfinite(res))
        raise ConstraintError(
            f"residual not finite at (r={r_all[bad]:g}, t={t_all[bad]:g})")

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

    notes = list(spec.notes)
    if spec.p.is_finite and spec.p.p == 2.0:
        vals = np.asarray(spec.value(r_all[:: max(1, len(r_all) // 64)],
                                     t_all[:: max(1, len(r_all) // 64)]), float)
        if np.any(vals == 0.0):
            notes.append("p=2 with vanishing values: 0^0 treated as 1 in the time factor")

    return ResidualReport(
        family=spec.family.value,
        params={**spec.params, "p": spec.p.label, "n": spec.n},
        derived={k_: (None if isinstance(v, float) and not np.isfinite(v) else v)
                 for k_, v in spec.derived.items()},
        min_residual=float(res[i_min]),
        max_residual=float(res[i_max]),
        argmin=SpaceTimePoint(float(r_all[i_min]), float(t_all[i_min])),
        argmax=SpaceTimePoint(float(r_all[i_max]), float(t_all[i_max])),
        samples=int(res.size),
        verdict=verdict,
        tolerance=tolerance,
        scale=scale,
        seed=seed,
        notes=tuple(notes),
    )


def default_catalog(p: Exponent, n: int, R: float = 1.0) -> list:
    """One representative spec per family with a sign claim, for sweeps.

    Boundary barriers appear only where their case applies (cone needs
    n < p < infinity, outer-ball needs p <= n).
    """
    specs = [
        make_eigen_barrier(p, n, R),
        make_growth_barrier(p, n, T=1.0, alpha=1.0 if p.is_finite else 0.5,
                            b=0.5 * growth_barrier_max_b(
                                p, 1.0, 1.0 if p.is_finite else 0.5)),
        make_kernel(p, n),
        make_power_solution(p, n, +1, f=lambda t: 1.0 / (1.0 + t),
                            fprime=lambda t: -1.0 / (1.0 + t) ** 2,
                            f_label="1/(1+t)"),
        make_paraboloid(p, n, R),
    ]
    alpha_flat = 1.0 if (p.is_infinity or p.p <= 2.0) else min(1.0, 1.0 / (p.p - 2.0))
    if p.is_infinity:
        alpha_flat = 0.5
    specs.append(make_flattening_upper(p, n, R, M=2.0, alpha=alpha_flat))
    specs.append(make_flattening_lower(p, n, R, m=0.5, alpha=alpha_flat))
    if p.is_finite:
        if p.p > n:
            lam = 0.5 * boundary_barrier_max_rate(p, n, {"theta": 0.5, "R": R})
            specs.append(make_boundary_barrier(p, n, delta=1.0, lam=lam, R=R, theta=0.5))
        else:
            cp = {"alpha": 1.0 + max(0.0, (n - p.p) / (p.p - 1.0)), "rho": 0.5, "R": R}
            lam = 0.5 * boundary_barrier_max_rate(p, n, cp)
            specs.append(make_boundary_barrier(p, n, delta=1.0, lam=lam, R=R,
                                               alpha=cp["alpha"], rho=0.5))
    return specs



def make_paraboloid(p: Exponent, n: int, R: float) -> BarrierSpec:
    """psi = R^2 - r^2: a non-decaying supersolution (strict except at r = 0)."""
    if R <= 0:
        raise ConstraintError("R must be positive")

    def value(r, t):
        return R ** 2 - np.asarray(r, float) ** 2 + 0.0 * np.asarray(t, float)

    phi = SpaceTimeFunction(
        value,
        dr=lambda r, t: -2.0 * np.asarray(r, float) + 0.0 * np.asarray(t, float),
        drr=lambda r, t: -2.0 + 0.0 * np.asarray(r, float) + 0.0 * np.asarray(t, float),
        dt=lambda r, t: 0.0 * np.asarray(r, float) + 0.0 * np.asarray(t, float),
        R=R,
    )
    if p.is_finite:
        pf = p.p
        k = pf + n - 2.0

        def residual_fn(r, t):
            r = np.asarray(r, float)
            res = -2.0 * k * (2.0 * r) ** (pf - 2.0) + 0.0 * np.asarray(t, float)
            return res, np.abs(res)
    else:
        def residual_fn(r, t):
            res = -8.0 * np.asarray(r, float) ** 2 + 0.0 * np.asarray(t, float)
            return res, np.abs(res)

    return BarrierSpec(
        family=Family.PARABOLOID, p=p, n=n, params={"R": float(R)}, derived={},
        phi=phi, residual_fn=residual_fn, operator="trudinger",
        expected=Verdict.SUPERSOLUTION, r_range=(0.0, R), t_start=0.0,
    )
