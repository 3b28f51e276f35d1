"""Radial time stepping for the doubly nonlinear diffusion problem.

Trudinger's equation is b(u)_t = L u with b(u) = |u|^{g-2} u.  Two schemes:

* log-implicit: for strictly positive data, backward Euler on the log form
  L v + ((g-1)/k)|Dv|^g - (g-1) v_t = 0 of v = log u (the transform removes
  the degenerate time factor), with |Dv|^g = c flux(c) for the centered
  gradient c; dt halves on a failed step and regrows.
* direct-implicit: for nonnegative data (zero boundary allowed), fixed-step
  BDF2 on b(u), backward Euler first: each step solves L u - (c b(u) - B)/dt
  = 0 with (c, B) = (1, b_k), then (3/2, 2 b_k - b_{k-1}/2).

Both run one damped Newton loop (`_newton`) on the flux tridiagonal
(`_flux_jacobian`, its face weights over nodes h folded once into `_Stencil`)
plus the scheme's own terms; LAPACK dgtsv solves.  Newton starts from the
polynomial through the last one to three accepted levels (`_extrapolate`, the
predictor of BDF codes, x0 + A (x0 - x1) + B (x1 - x2) with weights from the
times alone: A = 2, B = -1 on the direct scheme's uniform steps), clipped at
zero on the direct scheme.  The log scheme restarts that history at a step
that took more than 6 iterations (its dt regrowth bound): levels before a
hard step predict nothing.  Field metadata counts the work:
newton_iterations_max and _total over accepted steps, and log-implicit's
rejected_steps (dt halvings).

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
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg.lapack import dgtsv

from .exponent import Exponent
from .grids import RadialGrid, SpaceTimeField
from .operators import fd_residual_on_field


LOG_IMPLICIT = "log-implicit"
DIRECT_IMPLICIT = "direct-implicit"
MAX_NEWTON = 50


class SolverError(RuntimeError):
    """Scheme failure at run time: divergence, positivity loss, blow-up."""


class ConfigError(ValueError):
    """Invalid solver configuration (rejected before any stepping)."""


@dataclass(frozen=True)
class SolverConfig:
    p: Exponent
    n: int
    R: float
    nodes: int
    t_end: float
    scheme: str
    boundary: Callable  # g(t) on r = R
    initial: Callable   # f(r), vectorized
    dt: float | None = None  # None: t_end/200 (log-implicit halves it on failure)
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.scheme not in (LOG_IMPLICIT, DIRECT_IMPLICIT):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.n < 2:
            raise ConfigError("dimension n must be >= 2")
        if not 0 < self.R < math.inf:
            raise ConfigError("radius R must be positive and finite")
        if self.nodes < 4:
            raise ConfigError("need at least 4 radial nodes")
        if not 0 < self.t_end < math.inf:
            raise ConfigError("t_end must be positive and finite")
        if self.dt is not None and not 0 <= self.dt < math.inf:
            raise ConfigError("dt must be nonnegative and finite (0 means t_end/200)")

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
                raise ConfigError("direct-implicit needs nonnegative data")

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
        }


class _Stencil(NamedTuple):
    """Conservative stencil of one (grid, n, p): spacing, law, weights, flux.

    The 1/k of the law sits in axis and faces, so flux(q) = |q|^{g-2} q and
    flux_prime(q) = (g-1)|q|^{g-2}, also b(u) and b'(u) of the direct scheme;
    at g = 2 the identity and one, chosen once.  grad = (g-1)/k is the
    coefficient of the log form's gradient term.  The flux Jacobian's
    weights are folded once: axis_h = axis/h, and left, right = the faces
    at i -+ 1/2 over nodes h for nodes 1..m-1.
    """

    h: float
    g: float
    grad: float
    axis: float
    faces: np.ndarray
    nodes: np.ndarray
    axis_h: float
    left: np.ndarray
    right: np.ndarray
    flux: Callable
    flux_prime: Callable


def _stencil(grid: RadialGrid, n: int, p: Exponent) -> _Stencil:
    """Axis factor 2d/(hk), face weights r_{i+1/2}^{d-1}/k, node weights.

    Node weights are exact cell volumes (r_{i+1/2}^d - r_{i-1/2}^d)/d: the
    midpoint surrogate r_i^{d-1} h loses consistency at the first node off
    the axis, where r is comparable to h.
    """
    g, k, d, h = p.g, p.k, p.d(n), grid.h
    r = grid.r
    r_face = 0.5 * (r[:-1] + r[1:])
    faces = r_face ** (d - 1.0) / k
    nodes = (r_face[1:] ** d - r_face[:-1] ** d) / d
    axis = 2.0 * d / (h * k)
    law = (h, g, (g - 1.0) / k, axis, faces, nodes,
           axis / h, faces[:-1] / (nodes * h), faces[1:] / (nodes * h))
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


def _log_residual(v: np.ndarray, v_prev: np.ndarray, w_dt: float, st: _Stencil):
    """Backward-Euler residual F = div flux(v_r) + ((g-1)/k) c flux(c) - w (v - v_prev)/dt
    at nodes 0..m-1, where c flux(c) = |c|^g for the centered gradient c at
    nodes 1..m-1; the axis has no gradient term.  w_dt = w/dt is the step's
    constant.

    Returns F and the cache (q = diff(v)/h, flux(c)).
    """
    q = (v[1:] - v[:-1]) / st.h
    F = _divergence(q, st, np.empty(q.size))
    c = 0.5 * (q[:-1] + q[1:])
    flux_c = st.flux(c)
    F[1:] += st.grad * c * flux_c
    dv = v[:-1] - v_prev[:-1]
    dv *= w_dt
    F -= dv
    return F, (q, flux_c)


def _flux_jacobian(q: np.ndarray, st: _Stencil):
    """d `_divergence` / du at nodes 0..m-1 as (sub, diagonal, super) from the
    face slopes q."""
    fp = st.flux_prime(q)
    # node i couples through its left face i-1/2 and its right face i+1/2
    lower = st.left * fp[:-1]
    right = st.right * fp[1:]
    top = st.axis_h * fp[0]
    diag = np.empty(q.size)
    diag[0] = -top
    np.add(lower, right, out=diag[1:])
    np.negative(diag[1:], out=diag[1:])
    upper = np.empty(q.size - 1)
    upper[0] = top
    upper[1:] = right[:-1]
    return lower, diag, upper


def _log_jacobian(cache: tuple, st: _Stencil, w_dt: float):
    """dF/dv of `_log_residual` as (sub, diagonal, super) from its cache;
    w_dt = w/dt is the step's constant."""
    q, flux_c = cache
    lower, diag, upper = _flux_jacobian(q, st)
    diag -= w_dt
    # gradient term: d(c flux(c))/dc = g flux(c), and dc/dv_{i+-1} = +-1/(2h)
    hi = (0.5 * st.grad * st.g / st.h) * flux_c
    upper[1:] += hi[:-1]
    lower -= hi
    return lower, diag, upper


def _extrapolate(history: list, t: float) -> np.ndarray:
    """Predicted level at t, a new array: the polynomial through the one to
    three accepted (t, level) pairs of history (oldest first), written about
    the newest as x0 + A (x0 - x1) + B (x1 - x2).

    With w1 = (t - t0)/(t0 - t1) and c = w1 (t - t1)/(t0 - t2), A = w1 + c
    and B = -c (t0 - t1)/(t1 - t2) (c = 0 for two levels); on uniform times
    A = 2, B = -1.  Constant levels extrapolate to themselves bit-exactly.
    """
    t0, x0 = history[-1]
    if len(history) == 1:
        return x0.copy()
    t1, x1 = history[-2]
    out = x0 - x1
    w1 = (t - t0) / (t0 - t1)
    if len(history) == 2:
        out *= w1
    else:
        t2, x2 = history[-3]
        c = w1 * (t - t1) / (t0 - t2)
        out *= w1 + c
        older = x1 - x2
        older *= -c * (t0 - t1) / (t1 - t2)
        out += older
    out += x0
    return out


def _newton(x: np.ndarray, residual: Callable, jacobian: Callable,
            tol_abs: float, clip: float):
    """Damped Newton for residual(x) = (F, cache) = 0 on x[:-1] (x[-1] is
    boundary data); jacobian(cache) gives dF/dx's three diagonals.  Updates
    are clipped to max-norm clip, then halved until |F|_2 falls.  Returns
    (x, iterations, max|F|); x is None if the search stalls or MAX_NEWTON
    iterations miss the tolerance."""
    F, cache = residual(x)
    norm = norm0 = np.abs(F).max()
    merit = math.sqrt(F.dot(F))  # |F|_2, carried with F from the accepted trial
    for it in range(MAX_NEWTON):
        if norm <= tol_abs:
            return x, it, norm
        lower, diag, upper = jacobian(cache)
        *_, delta, info = dgtsv(lower, diag, upper, -F, True, True, True, True)
        if info != 0:
            raise SolverError(f"newton linear solve failed: dgtsv info {info}")
        big = np.abs(delta).max()
        if big > clip:
            delta *= clip / big
        step = 1.0
        for _ in range(25):
            trial = x.copy()
            trial[:-1] += delta if step == 1.0 else step * delta
            F_try, cache_try = residual(trial)
            # the squared norm is finite exactly when every residual entry is
            # (an overflowing sum of squares fails the merit test either way)
            sq = F_try.dot(F_try)
            if math.isfinite(sq) and math.sqrt(sq) < merit:
                x, F, cache, merit = trial, F_try, cache_try, math.sqrt(sq)
                norm = np.abs(F).max()
                break
            step *= 0.5
        else:
            return None, it, norm
    if norm <= max(tol_abs, 1e-10 * norm0):
        return x, MAX_NEWTON, norm
    return None, MAX_NEWTON, norm


def _solve_log_implicit(config: SolverConfig) -> SpaceTimeField:
    grid = config.grid
    w = config.p.time_weight
    st = _stencil(grid, config.n, config.p)
    f = np.asarray(config.initial(grid.r), float)
    v = np.log(f)
    t = 0.0
    dt_target = config.dt if config.dt else config.t_end / 200.0
    dt = dt_target
    values = [f.copy()]
    times = [0.0]
    history = [(t, v)]  # accepted (t, v) levels the predictor runs through
    newton_iters = []
    rejected = 0
    while t < config.t_end - 1e-12 * config.t_end:
        dt = min(dt, config.t_end - t)
        w_dt = w / dt
        start = _extrapolate(history, t + dt)
        start[-1] = np.log(float(config.boundary(t + dt)))
        # log-space updates beyond 2 invite blowups, so Newton clips there
        out, iters, norm = _newton(
            start,
            lambda x: _log_residual(x, v, w_dt, st),
            lambda cache: _log_jacobian(cache, st, w_dt),
            config.tolerance * w_dt * (1.0 + np.abs(v).max()), clip=2.0)
        if out is None:
            if dt <= dt_target * 2.0 ** -30:
                raise SolverError(
                    f"inner iteration diverged at t={t:.6g} (level {len(times)}), "
                    f"residual {norm:.3e}")
            dt *= 0.5
            rejected += 1
            continue
        v = out
        t += dt
        # a hard step is a transient: the levels before it predict nothing
        history = history[-2:] + [(t, v)] if iters <= 6 else [(t, v)]
        u = np.exp(v)
        if not (u.min() > 0.0 and u.max() < math.inf):
            raise SolverError(f"positivity loss at t={t:.6g}")
        values.append(u)
        times.append(t)
        newton_iters.append(iters)
        # regrow toward the target after transient halvings
        if iters <= 6:
            dt = min(dt * 1.3, dt_target)
    return SpaceTimeField(np.asarray(values), grid, np.asarray(times),
                          metadata={**config.manifest(),
                                    "newton_iterations_max": int(max(newton_iters or [0])),
                                    "newton_iterations_total": sum(newton_iters),
                                    "rejected_steps": rejected})


def _direct_residual(u: np.ndarray, c_dt: float, B_dt: np.ndarray, st: _Stencil):
    """BDF residual L u - c_dt b(u) + B_dt at nodes 0..m-1, with b(u) =
    |u|^{g-2} u the stencil's flux law.  Returns F and the cache (q, u)."""
    q = (u[1:] - u[:-1]) / st.h
    F = _divergence(q, st, np.empty(q.size))
    F += B_dt - c_dt * st.flux(u[:-1])
    return F, (q, u)


def _direct_jacobian(cache: tuple, st: _Stencil, c_dt: float):
    """dF/du of `_direct_residual`: the flux tridiagonal minus c_dt b'(u)."""
    q, u = cache
    lower, diag, upper = _flux_jacobian(q, st)
    diag -= c_dt * st.flux_prime(u[:-1])
    return lower, diag, upper


def _solve_direct_implicit(config: SolverConfig) -> SpaceTimeField:
    grid = config.grid
    st = _stencil(grid, config.n, config.p)
    dt_target = config.dt if config.dt else config.t_end / 200.0
    steps = max(1, math.ceil(config.t_end / dt_target * (1.0 - 1e-12)))
    times, dt = np.linspace(0.0, config.t_end, steps + 1, retstep=True)
    values = np.empty((steps + 1, grid.count))
    u = values[0] = np.asarray(config.initial(grid.r), float)
    b = st.flux(u)
    ts = times.tolist()
    history = [(0.0, u)]  # the last three levels the predictor runs through
    newton_iters = []
    for k in range(1, steps + 1):
        if k == 1:  # backward Euler starts the two-step method
            c_dt, B_dt = 1.0 / dt, b[:-1] / dt
        else:
            c_dt, B_dt = 1.5 / dt, (2.0 * b[:-1] - 0.5 * b_prev[:-1]) / dt
        u_bc = float(config.boundary(times[k]))
        start = _extrapolate(history, ts[k])
        np.maximum(start, 0.0, out=start)
        start[-1] = u_bc
        u, iters, norm = _newton(
            start,
            lambda x: _direct_residual(x, c_dt, B_dt, st),
            lambda cache: _direct_jacobian(cache, st, c_dt),
            config.tolerance * c_dt * max(np.abs(b).max(), abs(st.flux(u_bc))), clip=np.inf)
        if u is None:
            raise SolverError(f"newton failed at t={times[k]:.6g} (level {k}), "
                              f"residual {norm:.3e}")
        values[k] = u
        history = history[-2:] + [(ts[k], values[k])]
        b_prev, b = b, st.flux(u)
        newton_iters.append(iters)
    return SpaceTimeField(values, grid, times,
                          metadata={**config.manifest(),
                                    "newton_iterations_max": max(newton_iters),
                                    "newton_iterations_total": sum(newton_iters)})


def _consistency(field: SpaceTimeField, config: SolverConfig) -> dict:
    """Measured consistency bounds of the field, in residual and solution units.

    audit_max is the FD residual of the computed field.  The backward time
    difference of the audit coincides with backward Euler's, so the dt
    truncation is re-added from a measured second time difference.  The
    solution-unit bound divides by the degenerate time factor at the interior
    minimum (r = R is boundary data, which the audit excludes) and multiplies
    by the horizon.
    """
    p, n = config.p, config.n
    res = fd_residual_on_field(field, p, n)
    res_levels = np.abs(res, out=res).max(axis=1)
    audit_max = float(res_levels.max())
    u = field.values
    dt_levels = np.diff(field.times)
    # truncation invisible to the backward-difference audit: 0.5 dt |u_tt|
    utt_term = np.zeros_like(res_levels)
    if len(dt_levels) >= 2:
        utt = np.diff(np.diff(u, axis=0), axis=0)
        utt = np.abs(utt, out=utt).max(axis=1)
        dts = 0.5 * (dt_levels[1:] + dt_levels[:-1])
        rate = utt / dts ** 2
        utt_term[1:] = 0.5 * dt_levels[1:] * rate
        utt_term[0] = utt_term[1]
    w, g = p.time_weight, p.g
    w_max = w * np.abs(u).max() ** (g - 2.0)
    w_min_levels = w * np.maximum(u[1:, :-1].min(axis=1), 1e-30) ** (g - 2.0)
    bound_resid = float(audit_max + (utt_term * w_max).max())
    # integrate the per-level u_t error estimate over the run
    bound_u = float(np.sum(dt_levels * (res_levels + utt_term * w_max) / w_min_levels))
    return {
        "audit_max": audit_max,
        "consistency_bound_residual": bound_resid,
        "consistency_bound_u": float(min(bound_u, 1e30)),
    }


def solve_trudinger_radial(config: SolverConfig) -> SpaceTimeField:
    """Advance the radial problem with the configured scheme.

    Returns the full field with a manifest carrying the measured consistency
    bounds (audit residual, residual-unit and solution-unit estimates).
    """
    config.validate()
    solve = _solve_log_implicit if config.scheme == LOG_IMPLICIT else _solve_direct_implicit
    field = solve(config)
    return replace(field, metadata={**field.metadata, **_consistency(field, config)})


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
    # the parabolic boundary is the initial level plus the r = R column; the
    # interior is every other node (the axis r = 0 is interior)
    boundary = np.concatenate([field.values[0, :], field.values[1:, -1]])
    interior = field.values[1:, :-1]
    sup_violation = float(interior.max() - boundary.max())
    inf_violation = float(boundary.min() - interior.min())
    return sup_violation, inf_violation
