"""Radial evaluation of the degenerate diffusion operators.

Every evaluator is written once in the exponent law (g, k, d) of
`exponent.Exponent`: (p, 1, n) for finite p and (4, 3, 1) for infinity.
Two parabolic residuals are evaluated over broadcast (r, t) arrays in their
radial forms:

    trudinger_residual_grid:  L u - (g-1) u^{g-2} u_t
    log_form_residual_grid:   L v + ((g-1)/k)|Dv|^g - (g-1) v_t

with the radial operator L u = |u'|^{g-2}((g-1)u'' + (d-1)u'/r)/k, that is
Delta_p u for finite p and Delta_inf u = (u')^2 u'' for infinity.  If
u = exp(v) > 0, the first residual equals u^{g-1} times the second evaluated
at v; `log_transform_consistency` measures that identity.

Both return (residual, term-magnitude scale); at one point (r, t) the
residual is the [0][0] entry of that pair.  Closed forms are one type,
`SpaceTimeFunction`, with exact derivative callbacks; a radial profile is one
whose callbacks ignore t, and `eval_radial_operator` takes its spatial terms
at t = 0.  Grid fields are audited with finite differences
(`fd_residual_on_field`).  The audit is written out per branch on purpose,
without the law: it is the independent oracle the solver and the closed
forms are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .exponent import Exponent
from .grids import SpaceTimeField


class DomainError(ValueError):
    """Evaluation point outside the declared domain."""


class EvaluationError(RuntimeError):
    """Derivative callbacks failed or the operator value is unbounded."""


class SpaceTimePoint(NamedTuple):
    r: float
    t: float


@dataclass(frozen=True)
class SpaceTimeFunction:
    """Space-time function u(r, t) with analytic derivative callbacks.

    A radial profile is one whose callbacks ignore t and whose dt is None.
    origin_exponent None declares u C^2 at the axis (u_r(0, t) = 0 by
    symmetry); a gamma in (1, 2) declares u ~ c(t) r**gamma there, whose u_rr
    blows up on the axis while the operator value stays finite, and
    origin_coefficient gives c(t).  Like the derivative callbacks it must
    broadcast over an array of times.
    """

    value: Callable
    dr: Callable
    drr: Callable
    dt: Callable | None = None
    R: float = np.inf
    origin_exponent: float | None = None
    origin_coefficient: Callable | None = None


def separable_function(profile: SpaceTimeFunction, time_factor: Callable,
                       time_factor_prime: Callable) -> SpaceTimeFunction:
    """u(r, t) = profile(r) * time_factor(t) with derived callbacks."""
    base = profile.origin_coefficient
    return SpaceTimeFunction(
        value=lambda r, t: profile.value(r, t) * time_factor(t),
        dr=lambda r, t: profile.dr(r, t) * time_factor(t),
        drr=lambda r, t: profile.drr(r, t) * time_factor(t),
        dt=lambda r, t: profile.value(r, t) * time_factor_prime(t),
        R=profile.R,
        origin_exponent=profile.origin_exponent,
        origin_coefficient=None if base is None else (lambda t: base(t) * time_factor(t)),
    )


def log_of(u: SpaceTimeFunction) -> SpaceTimeFunction:
    """v = log u with derivatives pushed through (u must be positive)."""
    return SpaceTimeFunction(
        value=lambda r, t: np.log(u.value(r, t)),
        dr=lambda r, t: u.dr(r, t) / u.value(r, t),
        drr=lambda r, t: u.drr(r, t) / u.value(r, t) - (u.dr(r, t) / u.value(r, t)) ** 2,
        dt=lambda r, t: u.dt(r, t) / u.value(r, t),
        R=u.R,
    )


def grad_factor(q, p: float):
    """|q|^{p-2} with the p = 2 convention |q|^0 = 1 (also at q = 0)."""
    q = np.asarray(q, dtype=float)
    if p == 2.0:
        return np.ones_like(q)
    return np.abs(q) ** (p - 2.0)


def _radial(v1, v2, r, g: float, k: float, d: float):
    """flux'(v') v'' + (d-1) flux(v')/r = |v'|^{g-2}((g-1)v'' + (d-1)v'/r)/k."""
    return grad_factor(v1, g) * ((g - 1.0) * v2 + (d - 1.0) * v1 / r) / k


def _axis_values(u: SpaceTimeFunction, p: Exponent, n: int, t: np.ndarray) -> np.ndarray:
    """The radial operator at r = 0, for an array of times in one pass.

    Smooth functions use the symmetric limit (d-1)v'/r -> (d-1)v''(0); one
    flagged c(t) r^gamma gives the closed-form constant of the r^{g/(g-1)}
    calculus, 0 when the power is supercritical (its v'' is infinite on the
    axis and is never evaluated there).
    """
    g, k, d = p.g, p.k, p.d(n)
    gamma = u.origin_exponent
    if gamma is None:
        r0 = np.zeros_like(t)
        return grad_factor(u.dr(r0, t), g) * ((g - 1.0) + (d - 1.0)) * u.drr(r0, t) / k
    c = np.asarray(u.origin_coefficient(t), dtype=float)
    t_exp = gamma * (g - 1.0) - g
    if t_exp < 0 and np.any(c != 0.0):
        raise EvaluationError(
            f"radial operator of r^{gamma:g} profile is unbounded at the origin for p={p.label}")
    if t_exp != 0:
        return np.zeros_like(c)
    bracket = (g - 1.0) * (gamma - 1.0) + (d - 1.0)
    return np.abs(c * gamma) ** (g - 2.0) * (c * gamma) * bracket / k


def eval_radial_operator(profile: SpaceTimeFunction, p: Exponent, n: int, r):
    """Delta_p (Delta_inf) of a radial profile: |v'|^{g-2}((g-1)v'' + (d-1)v'/r)/k.

    (g, k, d) is the exponent law; at infinity this is (v')^2 v''.  The axis
    value follows `_axis_values`.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0) or np.any(r > profile.R * (1 + 1e-12)):
        raise DomainError(f"radius outside [0, {profile.R:g}]")
    spatial = _spatial_terms(profile, p, n, r, 0.0)[0]
    return float(spatial) if r.ndim == 0 else spatial


# ---------------------------------------------------------------------------
# parabolic residuals


def _spatial_terms(u: SpaceTimeFunction, p: Exponent, n: int, r, t):
    """Broadcast (r, t); return the radial operator of u and u_r (0 on the axis)."""
    shape = np.broadcast(r, t).shape
    r_b = np.broadcast_to(r, shape).astype(float)
    t_b = np.broadcast_to(t, shape).astype(float)
    spatial = np.empty(shape)
    v1 = np.zeros(shape)  # radial symmetry on the axis
    off = r_b != 0.0
    if np.any(off):
        v1[off] = u.dr(r_b[off], t_b[off])
        v2 = np.asarray(u.drr(r_b[off], t_b[off]), dtype=float)
        spatial[off] = _radial(v1[off], v2, r_b[off], p.g, p.k, p.d(n))
    if not np.all(off):
        spatial[~off] = _axis_values(u, p, n, t_b[~off])
    return spatial, v1, r_b, t_b


def trudinger_residual_grid(u: SpaceTimeFunction, p: Exponent, n: int, r, t):
    """Vectorized Trudinger residual; returns (residual, term-magnitude scale)."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    spatial, _, r_b, t_b = _spatial_terms(u, p, n, r, t)
    uval = np.asarray(u.value(r_b, t_b), dtype=float)
    ut = np.asarray(u.dt(r_b, t_b), dtype=float)
    time_term = p.time_weight * grad_factor(uval, p.g) * ut
    return spatial - time_term, np.abs(spatial) + np.abs(time_term)


def log_form_residual_grid(v: SpaceTimeFunction, p: Exponent, n: int, r, t):
    """Vectorized log-form residual; returns (residual, term-magnitude scale)."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    spatial, v1, r_b, t_b = _spatial_terms(v, p, n, r, t)
    grad_term = p.time_weight / p.k * np.abs(v1) ** p.g
    time_term = p.time_weight * np.asarray(v.dt(r_b, t_b), dtype=float)
    res = spatial + grad_term - time_term
    return res, np.abs(spatial) + grad_term + np.abs(time_term)


def log_transform_consistency(u: SpaceTimeFunction, p: Exponent, n: int,
                              points) -> float:
    """Max over sample points of |Trudinger(u) - u^{g-1} * log_form(log u)|.

    g - 1 is the time weight (p - 1, or 3 for infinity).  The identity is
    algebraic, so the deviation must sit at rounding scale when analytic
    derivatives are used.  points is an (r, t) pair of arrays.
    """
    r, t = (np.asarray(x, float) for x in points)
    uval = np.asarray(u.value(r, t), dtype=float)
    if np.any(uval <= 0.0):
        raise EvaluationError("log transform needs a positive function on all samples")
    v = log_of(u)
    gamma, _ = trudinger_residual_grid(u, p, n, r, t)
    gform, _ = log_form_residual_grid(v, p, n, r, t)
    return float(np.max(np.abs(gamma - uval ** p.time_weight * gform)))


# ---------------------------------------------------------------------------
# finite-difference residual audit on grid fields

AUDIT_BLOCK_BYTES = 1 << 16  # level block of `fd_residual_on_field`


def _flux(q, p: Exponent):
    if p.is_finite:
        return np.abs(q) ** (p.p - 2.0) * q if p.p != 2.0 else q
    return q ** 3 / 3.0


def fd_laplacian_grid(values: np.ndarray, grid, p: Exponent, n: int) -> np.ndarray:
    """Discrete Delta_p (Delta_inf) per spatial node, boundary column excluded.

    Interior nodes use the second-order central form; the axis uses the
    one-sided symmetry-corrected flux stencil (2n/h) |u_r|^{p-2} u_r at r=h/2,
    which stays consistent for the degenerate r^{p/(p-1)} profiles.
    """
    u = np.atleast_2d(values)
    h = grid.h
    r = grid.r
    out = np.empty((u.shape[0], grid.count - 1))
    # axis node
    q0 = (u[:, 1] - u[:, 0]) / h
    if p.is_finite:
        out[:, 0] = (2.0 * n / h) * _flux(q0, p)
    else:
        out[:, 0] = (2.0 / h) * _flux(q0, p)
    # interior nodes 1 .. count-2, central differences
    ur = (u[:, 2:] - u[:, :-2]) / (2.0 * h)
    urr = (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) / h ** 2
    if p.is_finite and p.p == 2.0:  # |u_r|^0 (p - 1) = 1
        out[:, 1:] = urr + (n - 1.0) * ur / r[1:-1]
    elif p.is_finite:
        pf = p.p
        out[:, 1:] = grad_factor(ur, pf) * ((pf - 1.0) * urr + (n - 1.0) * ur / r[1:-1])
    else:
        out[:, 1:] = ur ** 2 * urr
    return out if values.ndim == 2 else out[0]


def fd_residual_on_field(field: SpaceTimeField, p: Exponent, n: int) -> np.ndarray:
    """Trudinger residual of a sampled field by finite differences.

    Central second-order stencils in r (symmetry-corrected at the axis),
    first-order backward differences in t.  Returns residuals at time levels
    1..end for all spatial nodes except the r = R boundary column.

    Levels are evaluated in blocks of about AUDIT_BLOCK_BYTES into one output,
    so every temporary stays below glibc's mmap threshold and reuses heap
    pages instead of being page-faulted afresh; each entry is computed as
    for the whole field at once.
    """
    if field.grid.count < 3 or field.times.size < 2:
        raise DomainError("field needs at least 3 spatial nodes and 2 time levels")
    u = field.values
    dt = (field.times[1:] - field.times[:-1])[:, None]
    out = np.empty((u.shape[0] - 1, u.shape[1] - 1))
    block = max(1, AUDIT_BLOCK_BYTES // u[0].nbytes)
    for a in range(0, out.shape[0], block):
        b = min(a + block, out.shape[0])  # output rows a..b-1 are levels a+1..b
        level = u[a + 1:b + 1]
        spatial = fd_laplacian_grid(level, field.grid, p, n)
        uval = level[:, :-1]
        ut = (uval - u[a:b, :-1]) / dt[a:b]
        if p.is_finite and p.p == 2.0:  # (p - 1)|u|^0 = 1
            time_term = ut
        elif p.is_finite:
            time_term = (p.p - 1.0) * grad_factor(uval, p.p) * ut
        else:
            time_term = 3.0 * uval ** 2 * ut
        np.subtract(spatial, time_term, out=out[a:b])
    return out
