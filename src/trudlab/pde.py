"""Radial time stepping for the doubly nonlinear diffusion problem.

Two schemes, split by where the degenerate factor u^{p-2} is harmless:

* log-implicit: for strictly positive data, advance v = log u with backward
  Euler on Delta_p v + (p-1)|Dv|^p - (p-1) v_t = 0 (the transform removes the
  degenerate time factor); a damped Newton iteration solves each step.
  `_log_residual` caches its slopes; `_log_jacobian` builds the three
  diagonals from them when Newton needs an update; LAPACK dgtsv solves.
* direct-explicit: for nonnegative data (zero boundary allowed), advance
  u_t = Delta_p u / ((p-1) max(u, eps)^{p-2}) by forward Euler under a
  frozen-coefficient step restriction (constant at p = 2, like the time
  denominator); one difference of u per step feeds bound and flux.

Every weight comes from the exponent law (g, k, d) of `exponent.Exponent`
((p, 1, n) for finite p, (4, 3, 1) for infinity), so the infinity branch is
the same code: (u^3)_t = Delta_inf u is the d = 1 case with flux (u_r)^3/3.
Space is discretized conservatively: face fluxes r^{d-1}|u_r|^{g-2} u_r / k
with the one-sided symmetry-corrected stencil at the axis.  This stays
consistent at r = 0 for the degenerate r^{g/(g-1)} profiles the continuum
theory produces there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg.lapack import dgtsv

from .exponent import Exponent
from .grids import RadialGrid, SpaceTimeField
from .operators import fd_residual_on_field


LOG_IMPLICIT = "log-implicit"
DIRECT_EXPLICIT = "direct-explicit"


class SolverError(RuntimeError):
    """Scheme failure at run time: divergence, positivity loss, blow-up."""


class ConfigError(ValueError):
    """Invalid solver configuration (rejected before any stepping)."""


@dataclass
class SolverConfig:
    p: Exponent
    n: int
    R: float
    nodes: int
    t_end: float
    scheme: str
    boundary: Callable  # g(t) on r = R
    initial: Callable   # f(r), vectorized
    dt: float | None = None  # None: adaptive (explicit CFL / implicit growth)
    tolerance: float = 1e-9
    max_newton: int = 50
    label: str = ""

    def __post_init__(self):
        if self.scheme not in (LOG_IMPLICIT, DIRECT_EXPLICIT):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.n < 2:
            raise ConfigError("dimension n must be >= 2")
        if self.nodes < 4:
            raise ConfigError("need at least 4 radial nodes")
        if self.t_end <= 0:
            raise ConfigError("t_end must be positive")

    def validate(self) -> None:
        grid = self.grid
        f = np.asarray(self.initial(grid.r), float)
        g0 = float(self.boundary(0.0))
        if not np.all(np.isfinite(f)):
            raise ConfigError("initial data must be finite")
        gap = abs(f[-1] - g0)
        if gap > 1e-9 * (1.0 + abs(g0)):
            raise ConfigError(
                f"incompatible data: f(R)={f[-1]:.6g} != g(0)={g0:.6g}")
        t_probe = np.linspace(0.0, self.t_end, 33)
        g = np.asarray([self.boundary(t) for t in t_probe], float)
        if self.scheme == LOG_IMPLICIT:
            if f.min() <= 0 or g.min() <= 0:
                raise ConfigError("log-implicit needs strictly positive data")
        else:
            if f.min() < 0 or g.min() < 0:
                raise ConfigError("direct-explicit needs nonnegative data")

    @property
    def grid(self) -> RadialGrid:
        return RadialGrid(self.R, self.nodes)

    def manifest(self) -> dict:
        return {
            "p": self.p.label,
            "n": self.n,
            "R": self.R,
            "nodes": self.nodes,
            "t_end": self.t_end,
            "scheme": self.scheme,
            "dt": self.dt,
            "tolerance": self.tolerance,
            "label": self.label,
        }


class _Stencil(NamedTuple):
    """Conservative stencil of one (grid, n, p): spacing, law, weights, flux.

    The 1/k of the law sits in axis and faces, so flux(q) = |q|^{g-2} q and
    flux_prime(q) = (g-1)|q|^{g-2}; at g = 2 they are the identity and one,
    chosen here once instead of on every step.  grad = (g-1)/k is the
    coefficient of the log form's gradient term.
    """

    h: float
    g: float
    grad: float
    axis: float
    faces: np.ndarray
    nodes: np.ndarray
    flux: Callable
    flux_prime: Callable


def _stencil(grid: RadialGrid, n: int, p: Exponent) -> _Stencil:
    """Axis factor 2d/(hk), face weights r_{i+1/2}^{d-1}/k, node weights.

    Node weights are exact cell volumes (r_{i+1/2}^d - r_{i-1/2}^d)/d: the
    midpoint surrogate r_i^{d-1} h loses consistency at the first node off
    the axis, where r is comparable to h.
    """
    g, k, d = p.g, p.k, p.d(n)
    r = grid.r
    r_face = 0.5 * (r[:-1] + r[1:])
    faces = r_face ** (d - 1.0) / k
    nodes = (r_face[1:] ** d - r_face[:-1] ** d) / d
    law = (grid.h, g, (g - 1.0) / k, 2.0 * d / (grid.h * k), faces, nodes)
    if g == 2.0:
        return _Stencil(*law, lambda q: q, np.ones_like)
    return _Stencil(*law, lambda q: np.abs(q) ** (g - 2.0) * q,
                    lambda q: (g - 1.0) * np.abs(q) ** (g - 2.0))


def _divergence(q: np.ndarray, st: _Stencil, out: np.ndarray) -> np.ndarray:
    """Discrete radial operator at nodes 0..m-1 from face slopes q = diff(v)/h.

    The boundary node m is excluded; the result is written into out.
    """
    flux = st.flux(q)
    out[0] = st.axis * flux[0]
    flux = st.faces * flux
    np.divide(flux[1:] - flux[:-1], st.nodes, out=out[1:])
    return out


def _upwind_nodes(v_prev: np.ndarray, h: float, threshold: float = 0.2) -> np.ndarray:
    """Nodes where one-sided slopes disagree badly: use the monotone gradient.

    Frozen at the previous level so the step's residual stays smooth for
    Newton.  Smooth profiles keep the centered (second-order) gradient; the
    switch only engages in under-resolved layers and at extrema, where the
    gradient term is small anyway.  Returns node indices in 1..m-1.
    """
    q = (v_prev[1:] - v_prev[:-1]) / h
    d_minus, d_plus = q[:-1], q[1:]   # (v_i - v_{i-1})/h, (v_{i+1} - v_i)/h
    mask = np.abs(d_plus - d_minus) > threshold * (np.abs(d_plus) + np.abs(d_minus)) + 1e-300
    return 1 + np.flatnonzero(mask)


def _log_residual(v: np.ndarray, v_prev: np.ndarray, dt: float, w: float,
                  st: _Stencil, up: np.ndarray):
    """Backward-Euler residual F = div flux(v_r) + ((g-1)/k)|Dv|^g - w (v - v_prev)/dt
    at nodes 0..m-1, |Dv| centered or Godunov at the frozen upwind nodes up.

    Returns F and the cache (q = diff(v)/h, centered gradient, |Dv|).
    """
    q = (v[1:] - v[:-1]) / st.h
    F = _divergence(q, st, np.empty(q.size))
    centered = 0.5 * (q[:-1] + q[1:])
    slope = np.empty(q.size)
    slope[0] = 0.0
    np.abs(centered, out=slope[1:])
    if up.size:  # Godunov: max(max(d_plus, 0), max(-d_minus, 0))
        slope[up] = np.maximum(np.maximum(q[up], 0.0), np.maximum(-q[up - 1], 0.0))
    F += st.grad * slope ** st.g
    F -= w * (v[:-1] - v_prev[:-1]) / dt
    return F, (q, centered, slope)


def _log_jacobian(cache: tuple, st: _Stencil, up: np.ndarray, w_dt: float,
                  nodes_h: np.ndarray):
    """dF/dv of `_log_residual` as (sub, diagonal, super) from its cache;
    w_dt = w/dt and nodes_h = nodes h are the step's constants."""
    q, centered, slope = cache
    h = st.h
    fp = st.flux_prime(q)
    a = st.faces * fp   # node i couples through faces a[i-1] (left), a[i] (right)
    top = st.axis * fp[0] / h
    diag = np.empty(q.size)
    diag[0] = -top - w_dt
    np.divide(-(a[1:] + a[:-1]), nodes_h, out=diag[1:])
    diag[1:] -= w_dt
    upper = np.empty(q.size - 1)
    upper[0] = top
    np.divide(a[1:-1], nodes_h[:-1], out=upper[1:])
    lower = a[:-1] / nodes_h
    # gradient term: d slope^g at nodes 1..m-1 per d v_{i-1}, v_i, v_{i+1}
    dterm = st.grad * st.g * slope[1:] ** (st.g - 1.0)
    hi = dterm * (0.5 * np.sign(centered)) / h
    lo = -hi
    if up.size:
        # a Godunov slope is the right face's (a >= b, a > 0), the left
        # face's (b > a) or 0; its v_i derivative is minus the other two
        a = np.maximum(q[up], 0.0)
        b = np.maximum(-q[up - 1], 0.0)
        d_up = dterm[up - 1] / h
        hi[up - 1] = d_up * ((a >= b) & (a > 0))
        lo[up - 1] = d_up * (a < b)
        diag[up] -= hi[up - 1] + lo[up - 1]
    upper[1:] += hi[:-1]
    lower += lo
    return lower, diag, upper


def _log_implicit_step(v_prev: np.ndarray, v_bc: float, dt: float, w: float,
                       st: _Stencil, tolerance: float, max_newton: int):
    """One backward-Euler step of the log-form equation; damped Newton."""
    up = _upwind_nodes(v_prev, st.h)
    w_dt = w / dt
    nodes_h = st.nodes * st.h
    vfull = np.concatenate([v_prev[:-1], [v_bc]])
    F, cache = _log_residual(vfull, v_prev, dt, w, st, up)
    norm0 = np.abs(F).max()
    tol_abs = tolerance * w_dt * (1.0 + np.abs(v_prev).max())
    for it in range(max_newton):
        norm = np.abs(F).max()
        if norm <= tol_abs:
            return vfull, it, norm
        lower, diag, upper = _log_jacobian(cache, st, up, w_dt, nodes_h)
        *_, delta, info = dgtsv(lower, diag, upper, -F, True, True, True, True)
        if info != 0:
            raise SolverError(f"newton linear solve failed: dgtsv info {info}")
        # trust-region style clip: log-space updates beyond ~2 invite blowups
        big = np.abs(delta).max()
        if big > 2.0:
            delta *= 2.0 / big
        merit = math.sqrt(F.dot(F))  # |F|_2
        step = 1.0
        for _ in range(25):
            trial = vfull.copy()
            trial[:-1] += step * delta
            F_try, cache_try = _log_residual(trial, v_prev, dt, w, st, up)
            # the squared norm is finite exactly when every residual entry is
            # (an overflowing sum of squares fails the merit test either way)
            sq = F_try.dot(F_try)
            if math.isfinite(sq) and math.sqrt(sq) < merit:
                vfull, F, cache = trial, F_try, cache_try
                break
            step *= 0.5
        else:
            return None, it, norm  # no progress: caller halves dt
    norm = np.abs(F).max()
    if norm <= max(tol_abs, 1e-10 * norm0):
        return vfull, max_newton, norm
    return None, max_newton, norm


def _solve_log_implicit(config: SolverConfig) -> SpaceTimeField:
    grid = config.grid
    p = config.p
    st = _stencil(grid, config.n, p)
    f = np.asarray(config.initial(grid.r), float)
    v = np.log(f)
    t = 0.0
    dt_target = config.dt if config.dt else config.t_end / 200.0
    dt = dt_target
    values = [f.copy()]
    times = [0.0]
    newton_iters = []
    while t < config.t_end - 1e-12 * config.t_end:
        dt = min(dt, config.t_end - t)
        v_bc = np.log(float(config.boundary(t + dt)))
        out, iters, norm = _log_implicit_step(
            v, v_bc, dt, p.time_weight, st, config.tolerance, config.max_newton)
        if out is None:
            if dt <= dt_target * 2.0 ** -30:
                raise SolverError(
                    f"inner iteration diverged at t={t:.6g} (level {len(times)}), "
                    f"residual {norm:.3e}")
            dt *= 0.5
            continue
        v = out
        t += dt
        u = np.exp(v)
        if not np.all(np.isfinite(u)) or u.min() <= 0.0:
            raise SolverError(f"positivity loss at t={t:.6g}")
        values.append(u)
        times.append(t)
        newton_iters.append(iters)
        # regrow toward the target after transient halvings
        if iters <= 6:
            dt = min(dt * 1.3, dt_target)
    return SpaceTimeField(np.asarray(values), grid, np.asarray(times),
                          metadata={**config.manifest(),
                                    "newton_iterations_max": int(max(newton_iters or [0]))})


def _cfl_dt(du: np.ndarray, u: np.ndarray, h: float, g: float, floor: float) -> float:
    """Step bound 0.4 h^2 (g-1) u_min^{g-2} / (g max|u_r|^{g-2}), du = diff(u)."""
    slope = np.abs(du).max() / h
    u_min = max(u.min(), floor)
    num = 0.4 * h * h * (g - 1.0) * u_min ** (g - 2.0)
    den = g * slope ** (g - 2.0) + 1e-300
    return num / den


def _solve_direct_explicit(config: SolverConfig) -> SpaceTimeField:
    grid = config.grid
    p = config.p
    st = _stencil(grid, config.n, p)
    h, g, w = st.h, st.g, p.time_weight
    u = np.asarray(config.initial(grid.r), float).copy()
    eps_reg = 1e-12 * max(u.max(), 1.0)
    du = np.diff(u)
    # at g = 2, u_min^{g-2} = |u_r|^{g-2} = max(u, eps)^{g-2} = 1: the step
    # bound and the time denominator are constants of the solve
    frozen = g == 2.0
    dt_cfl, denom = _cfl_dt(du, u, h, g, eps_reg), w
    spatial = np.empty(u.size - 1)
    u_new = np.empty_like(u)
    t = 0.0
    values = [u.copy()]
    times = [0.0]
    # store at most ~400 levels; sub-steps in between
    store_every = max(1, int(np.ceil(config.t_end / (dt_cfl + 1e-300) / 400.0)))
    step_count = 0
    while t < config.t_end - 1e-12 * config.t_end:
        np.subtract(u[1:], u[:-1], out=du)
        if not frozen:
            dt_cfl = _cfl_dt(du, u, h, g, eps_reg)
            denom = w * np.maximum(u[:-1], eps_reg) ** (g - 2.0)
        dt = dt_cfl if config.dt is None else min(dt_cfl, config.dt)
        dt = min(dt, config.t_end - t)
        if dt <= 0 or not np.isfinite(dt):
            raise SolverError(f"step size underflow at t={t:.6g}")
        _divergence(np.divide(du, h, out=du), st, spatial)
        spatial *= dt
        spatial /= denom
        np.add(u[:-1], spatial, out=u_new[:-1])
        t += dt
        u_new[-1] = float(config.boundary(t))
        if not np.isfinite(u_new).all():
            raise SolverError(f"explicit step produced non-finite values at t={t:.6g}")
        u, u_new = u_new, u
        step_count += 1
        if step_count % store_every == 0:
            values.append(u.copy())
            times.append(t)
    if times[-1] < t:
        values.append(u.copy())
        times.append(t)
    return SpaceTimeField(np.asarray(values), grid, np.asarray(times),
                          metadata={**config.manifest(), "steps": step_count})


def _attach_consistency(field: SpaceTimeField, config: SolverConfig) -> None:
    """Measured consistency bound on the field, in residual and solution units.

    audit_max is the FD residual of the computed field.  The backward time
    difference of the audit coincides with the implicit scheme's, so the dt
    truncation is re-added from a measured second time difference.  The
    solution-unit bound divides by the degenerate time factor and multiplies
    by the horizon.
    """
    p, n = config.p, config.n
    res = fd_residual_on_field(field, p, n)
    audit_max = float(np.abs(res).max())
    u = field.values
    dt_levels = np.diff(field.times)
    res_levels = np.abs(res).max(axis=1)
    # truncation invisible to the backward-difference audit: 0.5 dt |u_tt|
    utt_term = np.zeros_like(res_levels)
    if len(dt_levels) >= 2:
        utt = np.abs(np.diff(np.diff(u, axis=0), axis=0)).max(axis=1)
        dts = 0.5 * (dt_levels[1:] + dt_levels[:-1])
        rate = utt / dts ** 2
        utt_term[1:] = 0.5 * dt_levels[1:] * rate
        utt_term[0] = utt_term[1]
    w, g = p.time_weight, p.g
    w_max = w * np.abs(u).max() ** (g - 2.0)
    w_min_levels = w * np.maximum(u[1:].min(axis=1), 1e-30) ** (g - 2.0)
    bound_resid = float(audit_max + (utt_term * w_max).max())
    # integrate the per-level u_t error estimate over the run
    bound_u = float(np.sum(dt_levels * (res_levels + utt_term * w_max) / w_min_levels))
    field.metadata.update({
        "audit_max": audit_max,
        "consistency_bound_residual": bound_resid,
        "consistency_bound_u": float(min(bound_u, 1e30)),
    })


def solve_trudinger_radial(config: SolverConfig) -> SpaceTimeField:
    """Advance the radial problem with the configured scheme.

    Returns the full field with a manifest carrying the measured consistency
    bounds (audit residual, residual-unit and solution-unit estimates).
    """
    config.validate()
    solve = _solve_log_implicit if config.scheme == LOG_IMPLICIT else _solve_direct_explicit
    field = solve(config)
    _attach_consistency(field, config)
    return field


def measure_decay_rate(field: SpaceTimeField, window: tuple) -> float:
    """Least-squares slope of log(sup_r u) against t over [t_a, t_b]."""
    t_a, t_b = window
    sup = field.sup_per_level
    mask = (field.times >= t_a) & (field.times <= t_b)
    if mask.sum() < 2:
        raise SolverError("decay window contains fewer than two stored levels")
    sup_w = sup[mask]
    if np.any(sup_w <= 0):
        last_ok = field.times[mask][sup_w > 0]
        raise SolverError(
            "field decayed to zero inside the window; last usable time "
            f"{last_ok[-1] if last_ok.size else float('nan'):.6g}")
    slope = np.polyfit(field.times[mask], np.log(sup_w), 1)[0]
    return float(slope)


def comparison_check(a: SpaceTimeField, b: SpaceTimeField) -> float:
    """Max over interior of a/b minus the parabolic-boundary sup of a/b.

    Nonpositive (up to the consistency bound) when a's data sits below b's.
    """
    if a.values.shape != b.values.shape or not np.allclose(a.times, b.times):
        raise SolverError("fields live on different grids or time lines")
    if np.any(b.values <= 0):
        raise SolverError("comparison denominators must be positive")
    ratio = a.values / b.values
    boundary_sup = float(np.concatenate([ratio[0, :], ratio[1:, -1]]).max())
    interior_max = float(ratio[1:, :-1].max())
    return interior_max - boundary_sup


def max_principle_check(field: SpaceTimeField) -> tuple:
    """(interior sup excess over boundary data, boundary inf excess over interior).

    Both are <= consistency bound for solutions of the problem.
    """
    boundary = field.parabolic_boundary_values()
    interior = field.interior_values()
    sup_violation = float(interior.max() - boundary.max())
    inf_violation = float(boundary.min() - interior.min())
    return sup_violation, inf_violation
