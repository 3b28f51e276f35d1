"""Radial time stepping for the doubly nonlinear diffusion problem.

Trudinger's equation is b(u)_t = L u with b(u) = |u|^{g-2} u.  Two schemes:

* log-implicit: for strictly positive data, backward Euler on the log form
  L v + ((g-1)/k)|Dv|^g - (g-1) v_t = 0 of v = log u (the transform removes
  the degenerate time factor), with |Dv|^g = c flux(c) for the centered
  gradient c; dt halves on a failed step and regrows.
* direct-implicit: for nonnegative data (zero boundary allowed), fixed-step
  BDF2 on b(u), backward Euler first: each step solves L u - (c b(u) - B)/dt
  = 0 with (c, B) = (1, b_k), then (3/2, 2 b_k - b_{k-1}/2).

Both run one damped Newton iteration (`_newton`) on the flux tridiagonal
(`_flux_jacobian`, its face weights over nodes h folded once into `_Stencil`)
plus the scheme's own terms; LAPACK dgtsv solves.  Newton starts from the
polynomial through the last one to three accepted levels (`_extrapolate`, the
predictor of BDF codes, x0 + A (x0 - x1) + B (x1 - x2) with weights from the
times alone: A = 2, B = -1 on the direct scheme's uniform steps), clipped at
zero on the direct scheme.  The log scheme restarts that history at a step
that took more than 6 iterations (its dt regrowth bound): levels before a
hard step predict nothing.  Field metadata counts the work:
newton_iterations_max and _total over accepted steps, and log-implicit's
rejected_steps (dt halvings).  The log scheme exponentiates its levels once,
after the loop; an accepted level with |v| >= 700 is checked at once.

A solve computes each quantity at the rate it changes, with the same
arithmetic.  Per stencil (cached by grid, n, p and member count): the
weights and, at g = 2, where flux'(q) = 1, the flux Jacobian itself.  Per
solve: the workspace, that is the three Jacobian diagonals (dgtsv
overwrites them) and, on the log scheme, the residual's scratch (slopes and
centred gradients, weighted faces, update difference), and the log
scheme's residual and Jacobian closures, which read the step's level and
w/dt when called.  Per dt, which changes on the last step's
min(dt, t_end - t), a halving and a regrowth: w/dt as a 0-d array and the
tolerance's tol w/dt as a float.  Per step: the predictor start and the
tolerance's factor 1 + max|v|.  Per Newton iteration: the residual, its
Jacobian (at g = 2 a copy of the stencil's) and one dgtsv.  What outlives
a call is allocated fresh: F, the powers its Jacobian reads, each trial
level and the predictor start, which a 0-iteration step stores as its level.

`solve_members` advances members, configs equal but for their initial data,
through one time loop.  Their nodes are concatenated into one vector; each
member's boundary node is an identity row (F = 0, diagonal 1, no coupling),
so nothing couples across a seam and one dgtsv per Newton iteration solves
every member with no pivot crossing a seam.  `_newton` picks its
bookkeeping by member count: several members keep a norm, merit, line-search
step and count each, and a converged member's update is zero; one member
runs the same iteration on plain floats.  The two paths are bit-identical,
so every member's field equals its lone solve.  log-implicit, whose dt
halves for one member's failure, runs one member per solve.

Every weight comes from the exponent law (g, k, d) of `exponent.Exponent`
((p, 1, n) for finite p, (4, 3, 1) for infinity), so the infinity branch is
the same code: (u^3)_t = Delta_inf u is the d = 1 case with flux (u_r)^3/3.
Space is discretized conservatively: face fluxes r^{d-1}|u_r|^{g-2} u_r / k
with the one-sided symmetry-corrected stencil at the axis.  This stays
consistent at r = 0 for the degenerate r^{g/(g-1)} profiles the continuum
theory produces there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .exponent import Exponent
from .grids import RadialGrid, SpaceTimeField, read_only
from .operators import fd_residual_on_field


LOG_IMPLICIT = "log-implicit"
DIRECT_IMPLICIT = "direct-implicit"
MAX_NEWTON = 50
_amax = np.maximum.reduce  # ndarray.max and .min without their Python-level wrappers
_amin = np.minimum.reduce
_HALF = read_only(0.5)  # a 0-d array, as _Stencil's scalars


def dgtsv(*args):
    """LAPACK's tridiagonal solve: the first call imports scipy.linalg and
    rebinds this module attribute to the routine itself."""
    global dgtsv
    from scipy.linalg.lapack import dgtsv
    return dgtsv(*args)


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

    def validate(self) -> np.ndarray:
        """Rejects data the scheme cannot run; returns the sampled initial data."""
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
        return f

    @functools.cached_property
    def grid(self) -> RadialGrid:  # one grid, and so one r, per config
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
    """Conservative stencil of one (grid, n, p) for a batch of members: the
    members' nodes concatenated into one vector of N nodes, count per member.

    The 1/k of the law sits in axis and faces, so flux(q) = |q|^{g-2} q and
    flux'(q) = (g-1)|q|^{g-2}, also b(u) and b'(u) of the direct scheme, come
    from flux_power(q) = (flux(q), |q|^{g-2}): one power for both, at g = 2
    (q, the scalar 1), chosen once.  grad = (g-1)/k is the coefficient of
    the log form's gradient term, slope = g grad/(2h) its Jacobian's weight
    and g1 = g - 1.  h, grad, g1 and slope are read-only 0-d arrays: numpy
    takes an array operand through its array path, a Python float through a
    slower scalar one, with the same arithmetic.  Weights are tiled per
    member: faces and the Jacobian's left, right and upper weights over the
    N - 1 faces (a face across a seam weighs 0), nodes over nodes 1..N-2.
    left and right are the faces at i -+ 1/2 over nodes h, the couplings of
    node i to i -+ 1 (axis/h on the axis's right); upper is right without a
    node's coupling to its boundary, and nothing couples to or from a
    boundary node, so its row of the batch is the identity.  seams slices
    the faces across seams; axes and edges index the members' axis and
    boundary nodes (an int for one member, a strided slice for several).

    jacobian is None but at g = 2, where flux'(q) = 1 makes the flux
    Jacobian a property of the stencil: there it holds `_flux_jacobian`'s
    (sub, diagonal, super) at power 1, built once by the general formula,
    read-only and tiled like the weights (boundary rows the identity, zero
    couplings across seams).  `_flux_jacobian` copies it into a solve's
    own diagonals, which dgtsv overwrites.
    """

    g: float
    h: np.ndarray
    grad: np.ndarray
    g1: np.ndarray
    slope: np.ndarray
    axis: float
    faces: np.ndarray
    nodes: np.ndarray
    left: np.ndarray
    right: np.ndarray
    upper: np.ndarray
    seams: slice
    axes: int | slice
    edges: int | slice
    flux_power: Callable
    jacobian: tuple | None


@functools.lru_cache(maxsize=16)
def _stencil(grid: RadialGrid, n: int, p: Exponent, members: int = 1) -> _Stencil:
    """Axis factor 2d/(hk), face weights r_{i+1/2}^{d-1}/k, node weights, for
    `members` copies of the grid in one vector.  Cached: solves on one grid
    share it, and its weights are read-only.

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
    left, right = faces[:-1] / (nodes * h), faces[1:] / (nodes * h)

    def tile(*parts):  # one member's weights, once per member
        out = np.concatenate(parts * members)
        out.flags.writeable = False
        return out

    count = grid.count
    seams = slice(count - 1, None, count)  # the faces across seams (none for one member)
    # one member's axis and boundary are single nodes: scalar indexing
    axes, edges = (0, -1) if members == 1 else (slice(0, None, count), seams)
    grad = (g - 1.0) / k
    scalars = map(read_only, (h, grad, g - 1.0, 0.5 * grad * g / h))  # h, grad, g1, slope
    law = (g, *scalars, axis, tile(faces, [0.0])[:-1],
           tile([1.0], nodes, [1.0])[1:-1], tile(left, [0.0, 0.0])[:-1],
           tile([axis / h], right, [0.0])[:-1], tile([axis / h], right[:-1], [0.0, 0.0])[:-1],
           seams, axes, edges)
    # |q|^{g-2} by the ufunc numpy's ** runs for that float exponent, chosen once:
    # the same bits without **'s scalar dispatch on every call
    of_abs = {0.5: np.sqrt, 1.0: lambda a: a, 2.0: np.square}.get(
        g - 2.0, lambda a, e=read_only(g - 2.0): np.power(a, e))

    def flux_power(q):
        power = of_abs(np.abs(q))
        return power * q, power

    if g != 2.0:
        return _Stencil(*law, flux_power, None)
    # at g = 2 the power 1 scales every weight exactly, the Jacobian's too
    st = _Stencil(*law, lambda q: (q, 1.0), None)
    jacobian = _flux_jacobian(1.0, st, _diagonals(members * count))
    for diagonal in jacobian:
        diagonal.flags.writeable = False
    return st._replace(jacobian=jacobian)


def _divergence(flux: np.ndarray, st: _Stencil, out: np.ndarray,
                weighted: np.ndarray) -> np.ndarray:
    """Discrete radial operator at every node from the face fluxes flux(q),
    written into out; 0 at the boundary nodes, whose rows are the identity.
    weighted, of flux's size, receives the weighted face fluxes."""
    np.multiply(st.faces, flux, weighted)
    np.divide(weighted[1:] - weighted[:-1], st.nodes, out[1:-1])
    out[st.axes] = st.axis * flux[st.axes]
    out[st.edges] = 0.0
    return out


def _log_scratch(size: int) -> tuple:
    """`_log_residual`'s scratch for size nodes, allocated once per solve: q
    and c in one array, its views q, c, q[:-1] and q[1:], the weighted
    faces and the update difference."""
    m = size - 1
    qc = np.empty(2 * m - 1)
    q = qc[:m]
    return qc, q, qc[m:], q[:-1], q[1:], np.empty(m), np.empty(size)


def _diagonals(size: int) -> tuple:
    """A Jacobian's three diagonals for size nodes, allocated once per solve:
    each Jacobian call writes every entry, and dgtsv overwrites them."""
    return np.empty(size - 1), np.empty(size), np.empty(size - 1)


def _log_residual(v: np.ndarray, v_prev: np.ndarray, w_dt: float, st: _Stencil,
                  scratch: tuple):
    """Backward-Euler residual F = div flux(v_r) + ((g-1)/k) c flux(c) - w (v - v_prev)/dt
    of one member, where c flux(c) = |c|^g for the centered gradient c at
    nodes 1..m-1; the axis has no gradient term, the boundary row is 0.
    w_dt = w/dt is the step's constant (0-d); scratch is the solve's `_log_scratch`.

    Returns F and the cache (power(q), flux(c)) for q = diff(v)/h, both in
    memory of their own: power runs once over q and c together.
    """
    qc, q, c, q_lo, q_hi, weighted, dv = scratch
    m = q.size
    np.subtract(v[1:], v[:-1], q)
    q /= st.h
    np.add(q_lo, q_hi, c)
    np.multiply(c, _HALF, c)
    flux, power = st.flux_power(qc)
    flux_c = flux[m:]
    F = _divergence(flux[:m], st, np.empty(m + 1), weighted)
    F[1:-1] += st.grad * c * flux_c
    F -= np.multiply(np.subtract(v, v_prev, dv), w_dt, dv)
    F[st.edges] = 0.0
    # at g = 2 flux is the scratch itself, so flux(c) = c is copied out of it
    return F, (1.0, c.copy()) if st.g == 2.0 else (power[:m], flux_c)


def _flux_jacobian(power: np.ndarray, st: _Stencil, out: tuple):
    """d `_divergence` / du as (sub, diagonal, super) from power(q) of the
    face slopes q, written into out, the solve's `_diagonals`.  A boundary
    node's row is the identity (a scheme that adds to the whole diagonal
    sets it again) and no entry couples across a seam, so dgtsv's pivots
    stay inside each member.  At g = 2 the stencil's own Jacobian is
    copied into out: dgtsv overwrites what it is handed."""
    if st.jacobian is not None:
        for diagonal, cached in zip(out, st.jacobian):
            diagonal[...] = cached
        return out
    lower, diag, upper = out
    fp = np.multiply(power, st.g1, upper)  # flux'(q) until upper is scaled last
    np.multiply(st.left, fp, lower)
    head = np.multiply(st.right, fp, diag[:-1])  # diag_i = -(right_i + lower_{i-1})
    diag[1:-1] += lower[:-1]
    np.negative(head, head)
    diag[st.edges] = 1.0
    upper *= st.upper
    return out


def _log_jacobian(cache: tuple, st: _Stencil, w_dt: float, out: tuple):
    """dF/dv of `_log_residual` as (sub, diagonal, super) from its cache,
    written into out; w_dt = w/dt is the step's constant (0-d)."""
    power, flux_c = cache
    lower, diag, upper = _flux_jacobian(power, st, out)
    diag -= w_dt
    diag[st.edges] = 1.0
    # gradient term: d(c flux(c))/dc = g flux(c), and dc/dv_{i+-1} = +-1/(2h)
    hi = st.slope * flux_c
    upper[1:-1] += hi[:-1]
    lower[:-1] -= hi
    return out


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
    w1 = (t - t0) / (t0 - t1)  # the weights scale as 0-d arrays, as _Stencil's scalars
    if len(history) == 2:
        out *= np.array(w1)
    else:
        t2, x2 = history[-3]
        c = w1 * (t - t1) / (t0 - t2)
        out *= np.array(w1 + c)
        older = x1 - x2
        older *= np.array(-c * (t0 - t1) / (t1 - t2))
        out += older
    out += x0
    return out


class _Diverged(Exception):
    """args (member, max|F|): its Newton iteration stalled or missed the tolerance."""


def _newton(x: np.ndarray, residual: Callable, jacobian: Callable,
            tol_abs: list, clip: float):
    """Damped Newton for residual(x) = (F, cache) = 0 on a batch vector of
    len(tol_abs) members, each count = x.size / members nodes with its last
    node boundary data (F = 0 there, an identity row); jacobian(cache) gives
    dF/dx's three diagonals, and one dgtsv solves every member at once.
    Each member keeps its own max-norm, tolerance tol_abs[j], merit |F_j|_2,
    step and iteration count: its update is clipped to max-norm clip, then
    halved until its merit falls, and a converged member gets a zero update,
    so every member follows its lone iteration bit for bit.  Returns (x,
    cache, iterations per member); raises _Diverged for a member whose
    search stalls or whose MAX_NEWTON iterations miss the tolerance.  One
    member runs the same iteration on plain floats (`_newton_lone`)."""
    members = len(tol_abs)
    if members == 1:
        return _newton_lone(x, residual, jacobian, tol_abs[0], clip)
    count = x.size // members
    rows = [slice(j * count, (j + 1) * count - 1) for j in range(members)]
    F, cache = residual(x)
    norm = norm0 = _maxima(F, members)
    merit = [math.sqrt(F[r].dot(F[r])) for r in rows]  # |F_j|_2 of the accepted trial
    iters = [0] * members
    for _ in range(MAX_NEWTON):
        live = [j for j in range(members) if not norm[j] <= tol_abs[j]]
        if not live:
            return x, cache, iters
        lower, diag, upper = jacobian(cache)
        rhs = -F
        idle = () if len(live) == members else [
            slice(j * count, (j + 1) * count) for j in range(members) if j not in live]
        for block in idle:  # a converged member's rows: identity, zero update
            lower[block] = upper[block] = rhs[block] = 0.0
            diag[block] = 1.0
        *_, delta, info = dgtsv(lower, diag, upper, rhs, True, True, True, True)
        if info != 0:
            raise SolverError(f"newton linear solve failed for member "
                              f"{(info - 1) // count}: dgtsv info {info}")
        for block in idle:  # 0 * inf = nan from a neighbour must not reach it
            delta[block] = 0.0
        if clip < math.inf:
            for j, big in enumerate(_maxima(delta, members)):
                if big > clip:
                    delta[j * count:(j + 1) * count] *= clip / big
        trial, step, pending = x + delta, None, live
        for _ in range(25):
            F_try, cache_try = residual(trial)
            failed = []
            for j in pending:
                f = F_try[rows[j]]
                # an inf or nan merit (an entry or the sum of squares
                # overflowing) is never below the last one
                now = math.sqrt(f.dot(f))
                if now < merit[j]:
                    merit[j] = now
                else:
                    failed.append(j)
            if not failed:
                break
            if step is None:  # members keep the step they were accepted at
                step = np.ones((members, 1))
            step[failed] *= 0.5
            trial, pending = x + (step * delta.reshape(members, count)).ravel(), failed
        else:
            raise _Diverged(pending[0], norm[pending[0]])
        x, F, cache = trial, F_try, cache_try
        norm = _maxima(F, members)
        for j in live:
            iters[j] += 1
    for j in range(members):
        if not norm[j] <= max(tol_abs[j], 1e-10 * norm0[j]):
            raise _Diverged(j, norm[j])
    return x, cache, iters


def _newton_lone(x: np.ndarray, residual: Callable, jacobian: Callable,
                 tol: float, clip: float):
    """`_newton` for one member on float state: the same iteration bit for bit."""
    F, cache = residual(x)
    norm = norm0 = _amax(np.abs(F))
    merit = math.sqrt(F[:-1].dot(F[:-1]))  # without the boundary row, as a member's
    for iters in range(MAX_NEWTON):
        if norm <= tol:
            return x, cache, [iters]
        lower, diag, upper = jacobian(cache)
        *_, delta, info = dgtsv(lower, diag, upper, -F, True, True, True, True)
        if info != 0:
            raise SolverError(f"newton linear solve failed: dgtsv info {info}")
        big = _amax(np.abs(delta)) if clip < math.inf else 0.0
        if big > clip:
            delta *= clip / big
        trial, step = x + delta, 1.0
        for _ in range(25):
            F_try, cache_try = residual(trial)
            now = math.sqrt(F_try[:-1].dot(F_try[:-1]))  # an inf or nan merit never falls
            if now < merit:
                break
            step *= 0.5
            trial = x + step * delta
        else:
            raise _Diverged(0, norm)
        x, F, cache, merit = trial, F_try, cache_try, now
        norm = _amax(np.abs(F))
    if not norm <= max(tol, 1e-10 * norm0):
        raise _Diverged(0, norm)
    return x, cache, [MAX_NEWTON]


def _maxima(a: np.ndarray, members: int) -> list:
    """max |a| over each member's nodes."""
    return _amax(np.abs(a).reshape(members, -1), axis=1).tolist()


def _solve_log_implicit(configs: tuple, data: list) -> list:
    (config,), (f,) = configs, data
    grid = config.grid
    w = config.p.time_weight
    st = _stencil(grid, config.n, config.p)
    # this solve's own arrays: st is cached and shared between solves
    scratch, diagonals = _log_scratch(grid.count), _diagonals(grid.count)
    v = np.log(f)
    size = float(_amax(np.abs(v)))
    t = 0.0
    dt_target = config.dt if config.dt else config.t_end / 200.0
    dt = dt_target
    dt_of = None  # the dt that w_dt and tol_dt belong to
    levels = [v]  # log levels, exponentiated after the loop; level 0 stays f
    times = [0.0]
    history = [(t, v)]  # accepted (t, v) levels the predictor runs through
    newton_iters = []
    rejected = 0

    # built once: they read the step's v and w_dt when called
    def residual(x):
        return _log_residual(x, v, w_dt, st, scratch)

    def jacobian(cache):
        return _log_jacobian(cache, st, w_dt, diagonals)

    while t < config.t_end - 1e-12 * config.t_end:
        dt = min(dt, config.t_end - t)
        if dt != dt_of:  # the last step, a halving or a regrowth
            dt_of = dt
            w_dt = read_only(w / dt)  # 0-d, as _Stencil's scalars
            tol_dt = config.tolerance * (w / dt)
        start = _extrapolate(history, t + dt)
        start[-1] = np.log(float(config.boundary(t + dt)))
        # log-space updates beyond 2 invite blowups, so Newton clips there
        try:
            v_new, _, (iters,) = _newton(start, residual, jacobian,
                                         [tol_dt * (1.0 + size)], clip=2.0)
        except _Diverged as failure:
            if dt <= dt_target * 2.0 ** -30:
                raise SolverError(
                    f"inner iteration diverged at t={t:.6g} (level {len(times)}), "
                    f"residual {failure.args[1]:.3e}") from None
            dt *= 0.5
            rejected += 1
            continue
        v = v_new
        t += dt
        size = float(_amax(np.abs(v)))
        if not size < 700.0:  # only there may exp(v) leave (0, inf): check exactly
            with np.errstate(over="ignore"):  # an overflow is inf, which it rejects
                u = np.exp(v)
            if not (u.min() > 0.0 and u.max() < math.inf):
                raise SolverError(f"positivity loss at t={t:.6g}")
        # a hard step is a transient: the levels before it predict nothing
        history = history[-2:] + [(t, v)] if iters <= 6 else [(t, v)]
        levels.append(v)
        times.append(t)
        newton_iters.append(iters)
        # regrow toward the target after transient halvings
        if iters <= 6:
            dt = min(dt * 1.3, dt_target)
    values = np.exp(levels)
    values[0] = f  # the data themselves, not exp(log f)
    return [SpaceTimeField(values, grid, np.asarray(times),
                           metadata={**config.manifest(),
                                     "newton_iterations_max": max(newton_iters or [0]),
                                     "newton_iterations_total": sum(newton_iters),
                                     "rejected_steps": rejected})]


def _direct_residual(u: np.ndarray, c_dt: float, B_dt: np.ndarray, st: _Stencil):
    """BDF residual L u - c_dt b(u) + B_dt of the batch vector u, with b(u) =
    |u|^{g-2} u the stencil's flux law; 0 at the boundary nodes.  Returns F
    and the cache (power(q), power(u), b(u)): the Jacobian's flux' comes from
    the powers, and the accepted level's b feeds the next step."""
    q = (u[1:] - u[:-1]) / st.h
    q[st.seams] = 0.0  # no overflow from a slope across a seam
    flux, power = st.flux_power(q)
    F = _divergence(flux, st, np.empty(u.size), np.empty(q.size))
    b, b_power = st.flux_power(u)
    F += B_dt - c_dt * b
    F[st.edges] = 0.0
    return F, (power, b_power, b)


def _direct_jacobian(cache: tuple, st: _Stencil, c_dt: float, out: tuple):
    """dF/du of `_direct_residual`, written into out: the flux tridiagonal
    minus c_dt b'(u)."""
    power, b_power, _ = cache
    _, diag, _ = _flux_jacobian(power, st, out)
    diag -= c_dt * (st.g1 * b_power)
    diag[st.edges] = 1.0
    return out


def _solve_direct_implicit(configs: tuple, data: list) -> list:
    config = configs[0]
    grid = config.grid
    members, count = len(configs), grid.count
    st = _stencil(grid, config.n, config.p, members)
    diagonals = _diagonals(members * count)
    dt_target = config.dt if config.dt else config.t_end / 200.0
    steps = max(1, math.ceil(config.t_end / dt_target * (1.0 - 1e-12)))
    times, dt = np.linspace(0.0, config.t_end, steps + 1, retstep=True)
    values = np.empty((members, steps + 1, count))
    values[:, 0] = data
    u = values[:, 0].ravel()
    b = st.flux_power(u)[0]
    ts = times.tolist()
    history = [(0.0, u)]  # the last three levels the predictor runs through
    newton_iters = []
    for k in range(1, steps + 1):
        if k == 1:  # backward Euler starts the two-step method
            c_dt, B_dt = 1.0 / dt, b / dt
        else:
            c_dt, B_dt = 1.5 / dt, (2.0 * b - 0.5 * b_prev) / dt
        u_bc = float(config.boundary(times[k]))
        start = _extrapolate(history, ts[k])
        np.maximum(start, 0.0, out=start)
        start[st.edges] = u_bc
        # |b(u_bc)| on numpy's scalar path: flux_power's ufuncs are for arrays
        tol, b_bc = config.tolerance * c_dt, abs(u_bc) * np.abs(u_bc) ** (st.g - 2.0)
        try:
            u, cache, iters = _newton(
                start,
                lambda x: _direct_residual(x, c_dt, B_dt, st),
                lambda cache: _direct_jacobian(cache, st, c_dt, diagonals),
                [tol * max(b_j, b_bc) for b_j in _maxima(b, members)], clip=np.inf)
        except _Diverged as failure:
            member, norm = failure.args
            raise SolverError(f"newton failed at t={times[k]:.6g} (level {k}) for member "
                              f"{member}, residual {norm:.3e}") from None
        values[:, k] = u.reshape(members, count)
        history = history[-2:] + [(ts[k], u)]
        b_prev, b = b, cache[2]
        newton_iters.append(iters)
    return [SpaceTimeField(field, grid, times,
                           metadata={**member.manifest(),
                                     "newton_iterations_max": max(counts),
                                     "newton_iterations_total": sum(counts)})
            for field, member, counts in zip(values, configs, zip(*newton_iters))]


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
    res_levels = _amax(np.abs(res, out=res), axis=1)
    audit_max = float(_amax(res_levels))
    u = field.values
    dt_levels = field.times[1:] - field.times[:-1]
    # truncation invisible to the backward-difference audit: 0.5 dt |u_tt|
    utt_term = np.zeros_like(res_levels)
    if len(dt_levels) >= 2:
        du = u[1:] - u[:-1]
        utt = du[1:] - du[:-1]
        utt = _amax(np.abs(utt, out=utt), axis=1)
        dts = 0.5 * (dt_levels[1:] + dt_levels[:-1])
        rate = utt / dts ** 2
        utt_term[1:] = 0.5 * dt_levels[1:] * rate
        utt_term[0] = utt_term[1]
    w, g = p.time_weight, p.g
    w_max = w * _amax(np.abs(u), axis=None) ** (g - 2.0)
    w_min_levels = w * np.maximum(_amin(u[1:, :-1], axis=1), 1e-30) ** (g - 2.0)
    bound_resid = float(audit_max + _amax(utt_term * w_max))
    # integrate the per-level u_t error estimate over the run
    bound_u = float(np.sum(dt_levels * (res_levels + utt_term * w_max) / w_min_levels))
    return {
        "audit_max": audit_max,
        "consistency_bound_residual": bound_resid,
        "consistency_bound_u": float(min(bound_u, 1e30)),
    }


def solve_members(configs) -> tuple:
    """Advance members, configs equal in every field but `initial`, through
    one time loop and one Newton loop; one field per member, each equal bit
    for bit to the member's lone solve.

    Each field's manifest carries the member's Newton counts and its
    measured consistency bounds (audit residual, residual-unit and
    solution-unit estimates).  log-implicit takes one member: its dt halves
    for the member's own failures.
    """
    configs = tuple(configs)
    if not configs:
        raise ConfigError("need at least one member")
    head = configs[0]
    if any(replace(c, initial=head.initial) != head for c in configs[1:]):
        raise ConfigError("members must share every config field but initial")
    if head.scheme == LOG_IMPLICIT and len(configs) > 1:
        raise ConfigError("log-implicit solves one member at a time")
    data = [config.validate() for config in configs]
    solve = _solve_log_implicit if head.scheme == LOG_IMPLICIT else _solve_direct_implicit
    return tuple(replace(field, metadata={**field.metadata, **_consistency(field, config)})
                 for field, config in zip(solve(configs, data), configs))


def solve_trudinger_radial(config: SolverConfig) -> SpaceTimeField:
    """Advance the radial problem with the configured scheme: the one member
    of `solve_members`."""
    return solve_members((config,))[0]


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
