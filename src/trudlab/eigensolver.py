"""First Dirichlet eigenvalue on balls by shooting, and the delta-boundary
problem, in the exponent law (g, k, d) of `exponent.Exponent`.

The radial equation L psi + lam |psi|^{g-2} psi = 0, L the law's operator
(Delta_p, or Delta_inf = (psi')^2 psi'' at (4, 3, 1), where it is the 1-D
p = 4 problem (psi'^3)' + 3 lam psi^3 = 0), is integrated as a first order
system in (psi, W) with the flux variable W = |psi'|^{g-2} psi', which keeps
the right-hand side regular through the degenerate axis:

    psi' = sign(W) |W|^{1/(g-1)},     W' = -k lam |psi|^{g-2} psi - (d-1) W / r.

Near r = 0 the solution is a power series in x = (mu r)^{g/(g-1)}, mu^g = k lam,
whose coefficients (`_axis_coefficients`, one triangular recurrence) depend
on the law only; `_axis_series` gives the start values at the handover h (the
largest r where the series' 12th term is at most 1e-2 ATOL, capped at 0.1 R),
the solution below h and, through a_1, the origin_coefficient of the
eigenfunction profile.  Above h the 8th-order Dormand-Prince pair DOP853 takes
over, on plain floats with scipy's step control (`_dop853`), so it never steps
through the non-integer powers of r at the axis.  Its stages, update and error
sums are plain loops over scipy's tables: the eigenvalue and the delta-boundary
problem shoot once per (p, n) per process (below), so a faster step would save
a few ms per process at most.  One integration is one frozen `Shot` holding
its 7th-order dense solution sol(r) -> (psi, W) on [0, r_end].

No parameter is searched for: the equation is invariant under r -> s r,
lam -> lam s^g (the lam_R R^g law, `Shot.stretched`) and (g-1)-homogeneous in
psi, so a single shot yields the eigenvalue (from where its first zero falls)
and every center value (from its trace at the dilated boundary).  The barrier
rate scales as R^{-g} too, so the eigen shot on B_R is the unit-ball shot
stretched by 1/R: the eigenfunction takes the same values at node i of every
radius' grid.  One integration per (p, n) per process (`_unit_eigen`)
therefore serves every radius and every delta-boundary problem; each call
keeps its own certificate check (its radius' barrier rate, or the dilated
first zero beyond R and a resolved positive trace at R) and each eigenvalue
its own FD audit, and a one-radius run costs what it did.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import mul
from typing import Callable

import numpy as np

from .barriers import make_eigen_barrier
from .exponent import Exponent
from .grids import RadialGrid, format_17g, read_only
from .operators import SpaceTimeFunction, fd_laplacian_grid

GRID_COUNT = 2001  # nodes of the grid the shot profiles are sampled on
RTOL, ATOL = 1e-11, 1e-13  # the shot's DOP853 tolerances
_TERMS = 12  # terms of the axis series


class ShootingError(RuntimeError):
    """Integration failure, or a shot that contradicts a certified bound."""


@functools.cache
def _tableau() -> tuple:
    """DOP853 (Hairer-Norsett-Wanner, Solving ODEs I, II.10) as scipy ships it, as
    plain floats: the (c_s, a_s) rows of the stages 1..11 and of the dense
    stages 13..15, B, E3, E5, then D and brentq.  scipy.integrate and
    scipy.optimize are imported here, on the first shot, so a process that
    never shoots never loads them."""
    from scipy.integrate import DOP853
    from scipy.optimize import brentq

    stages = [(c, a[:s]) for s, (c, a) in enumerate(
        zip(DOP853.C.tolist(), DOP853.A.tolist())) if s]
    extra = [(c, a[:s]) for s, (c, a) in enumerate(
        zip(DOP853.C_EXTRA.tolist(), DOP853.A_EXTRA.tolist()), start=DOP853.n_stages + 1)]
    return (stages, extra, DOP853.B.tolist(), DOP853.E3.tolist(), DOP853.E5.tolist(),
            DOP853.D, brentq)


def _stages(rhs, r, h, psi, w, kp, kw, rows) -> None:
    """Append the stages (c_s, a_s) in rows to the slopes kp, kw of psi and w."""
    for c, a in rows:
        dp, dw = rhs(r + c * h, psi + sum(map(mul, a, kp)) * h, w + sum(map(mul, a, kw)) * h)
        kp.append(dp)
        kw.append(dw)


_EPS4 = 4.0 * np.finfo(float).eps


def _rms(a: float, b: float) -> float:
    return math.sqrt(a * a + b * b) / math.sqrt(2.0)


def _interp(F, x):
    """DOP853's 7th-order dense polynomial in x = (r - r_old)/h, without y_old."""
    y = 0.0
    for i, f in enumerate(reversed(F)):
        y = (y + f) * (x if i % 2 == 0 else 1.0 - x)
    return y


def _dop853(rhs, r, y, r_bound, rtol, atol):
    """DOP853 on plain floats for y = (psi, w), from r to r_bound or to the first
    downward zero of psi, whichever comes first.

    rhs(r, psi, w) -> (psi', w').  Step control is scipy's: its initial-step
    rule, the E5/E3 error norm, safety 0.9, step factors in [0.2, 10] with
    exponent -1/8 and no growth right after a rejection; the zero is brentq's
    (xtol = rtol = 4 eps) on the step's dense polynomial.  Returns (ts, sol,
    first_zero): the breakpoints, ending at the stop, and sol(r) -> (psi, w) of
    shape (2, *r.shape).  The dense table is component-major, F[j, component,
    step], so sol's one take along the step axis gathers unit-stride rows and
    each Horner term is one pass over them, not len(r) passes over two values.
    """
    stages, extra, B, E3, E5, D, brentq = _tableau()
    psi, w = y
    f = rhs(r, psi, w)
    sp, sw = atol + abs(psi) * rtol, atol + abs(w) * rtol
    d0, d1 = _rms(psi / sp, w / sw), _rms(f[0] / sp, f[1] / sw)
    h_abs = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, r_bound - r)
    f1 = rhs(r + h_abs, psi + h_abs * f[0], w + h_abs * f[1])
    d2 = _rms((f1[0] - f[0]) / sp, (f1[1] - f[1]) / sw) / h_abs
    h1 = (max(1e-6, h_abs * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** 0.125)
    h_abs = min(100.0 * h_abs, h1, r_bound - r)

    steps, crossed, first_zero = [], False, None
    while r < r_bound and not crossed:
        min_step = 10.0 * math.ulp(r)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if not h_abs >= min_step:  # also stops a NaN step
                raise ShootingError(f"integration failed at r={r:.6g}: step size too small")
            r_new = min(r + h_abs, r_bound)
            h = r_new - r
            kp, kw = [f[0]], [f[1]]
            _stages(rhs, r, h, psi, w, kp, kw, stages)
            psi_new, w_new = psi + h * sum(map(mul, B, kp)), w + h * sum(map(mul, B, kw))
            f_new = rhs(r + h, psi_new, w_new)
            kp.append(f_new[0])
            kw.append(f_new[1])
            e5p, e5w, e3p, e3w = (sum(map(mul, e, k)) for e in (E5, E3) for k in (kp, kw))
            sp = atol + max(abs(psi), abs(psi_new)) * rtol
            sw = atol + max(abs(w), abs(w_new)) * rtol
            e5, e3 = (e5p / sp) ** 2 + (e5w / sw) ** 2, (e3p / sp) ** 2 + (e3w / sw) ** 2
            err = 0.0 if e5 == 0.0 and e3 == 0.0 else h * e5 / math.sqrt(2.0 * (e5 + 0.01 * e3))
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.125)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.125)
            rejected = True
        _stages(rhs, r, h, psi, w, kp, kw, extra)
        steps.append((r, h, psi, w, psi_new, w_new, kp, kw))
        crossed = psi >= 0.0 and psi_new <= 0.0  # solve_ivp's direction = -1 event
        r, psi, w, f = r_new, psi_new, w_new, f_new

    # the dense coefficients of all steps at once, built as F[j, step, component]
    # and stored as F[j, component, step], with y_old as (component, step)
    r_old, hs, psi_old, w_old, psi_new, w_new, kp, kw = map(np.array, zip(*steps))
    y_old, K = np.stack([psi_old, w_old], -1), np.stack([kp, kw], -1)
    dy, h = np.stack([psi_new, w_new], -1) - y_old, hs[:, None]
    F = np.concatenate([[dy, h * K[:, 0] - dy, 2.0 * dy - h * (K[:, 12] + K[:, 0])],
                        h * np.einsum("jk,mkc->jmc", D, K)]).transpose(0, 2, 1).copy()
    y_old = y_old.T.copy()
    if crossed:  # the zero of the last step's polynomial
        Fp, (r0, h, psi0) = F[:, 0, -1].tolist(), steps[-1][:3]
        r = first_zero = brentq(lambda t: _interp(Fp, (t - r0) / h) + psi0, r0, r,
                                xtol=_EPS4, rtol=_EPS4)

    def sol(t):
        seg = np.searchsorted(r_old[1:], t)  # a breakpoint takes the step that ends there
        x = (t - r_old[seg]) / hs[seg]
        return _interp(F.take(seg, -1), x) + y_old.take(seg, -1)

    return np.append(r_old, r), sol, first_zero


def _dpsi_from_flux(w, g: float):
    return np.sign(w) * np.abs(w) ** (1.0 / (g - 1.0))


def _next_power_coefficient(a, b, alpha: float) -> float:
    """b_m of B = A^alpha (a_0 = 1) from a_1..a_m and b_0..b_{m-1}: J.C.P. Miller's
    recurrence m b_m = sum_{k=1}^m ((alpha+1) k - m) a_k b_{m-k} (Knuth, TAOCP 2, 4.7)."""
    m = len(b)
    return sum(((alpha + 1.0) * k - m) * a[k] * b[m - k] for k in range(1, m + 1)) / m if m else 1.0


@functools.lru_cache(maxsize=32)
def _axis_coefficients(g: float, d: float) -> tuple:
    """The _TERMS coefficients (a_j, s_j) of the axis series in x = (mu r)^sigma.

    With sigma = g/(g-1), psi = A(x) and W = -k lam (r/d) S(x)
    solve the shot's system iff (r^{d-1} W)' = -k lam r^{d-1} psi^{g-1} and
    psi' = -|W|^{1/(g-1)}, i.e. s_j = b_j d/(d + sigma j) for b = A^{g-1} and
    a_{j+1} = -d^{-1/(g-1)} c_j / (sigma (j+1)) for c = S^{1/(g-1)}: one
    triangular recurrence from a_0 = 1.  They depend on the law (g, d) only.
    """
    sigma, e = g / (g - 1.0), 1.0 / (g - 1.0)
    a, b, s, c = [1.0], [], [], []
    for j in range(_TERMS):
        b.append(_next_power_coefficient(a, b, g - 1.0))
        s.append(b[j] * d / (d + sigma * j))
        c.append(_next_power_coefficient(s, c, e))
        a.append(-d ** -e * c[j] / (sigma * (j + 1)))
    return tuple(a[:_TERMS]), tuple(s)


def _axis_series(g: float, d: float, klam: float, r):
    """(psi, W) of the axis series from psi(0) = 1 at r (a float or an array),
    for klam = k lam."""
    a, s = _axis_coefficients(g, d)
    x = (klam ** (1.0 / g) * r) ** (g / (g - 1.0))
    A = S = 0.0
    for aj, sj in zip(reversed(a), reversed(s)):  # Horner in x
        A, S = A * x + aj, S * x + sj
    return A, -klam * r / d * S


@dataclass(frozen=True)
class Shot:
    """One integration of the radial problem from psi(0) = 1 at rate lam."""

    p: Exponent
    n: int
    lam: float
    r_end: float
    first_zero: float | None
    handover: float  # where the axis series hands over to DOP853
    sol: Callable  # r -> (psi, W) on [0, r_end]

    def profile_on(self, grid: RadialGrid) -> tuple:
        """(psi, psi') resampled on a grid (clipped at r_end)."""
        psi, w = self.sol(np.clip(grid.r, 0.0, self.r_end))
        return psi, _dpsi_from_flux(w, self.p.g)

    def stretched(self, s: float, R: float) -> Shot:
        """r -> psi(s r) on [0, R]: the shot at rate lam s^g, with W scaled by s^{g-1}."""

        def sol(r):
            psi, w = self.sol(s * np.asarray(r, float))
            return np.stack([psi, s ** (self.p.g - 1.0) * w])

        return Shot(self.p, self.n, self.lam * s ** self.p.g, R, R, self.handover / s, sol)


def shoot_radial(p: Exponent, n: int, R: float, lam: float) -> Shot:
    """Integrate the radial eigen-equation from psi(0) = 1 out to r = R.

    Stops at R or at the first sign change of psi (location recorded in
    first_zero).  DOP853 starts from the axis series at the handover h, the
    largest r at which the series' last term is at most 1e-2 ATOL, capped at
    0.1 R.  At lam = 0 the series and the right-hand side vanish, so the shot
    is the constant profile 1.  The equation is (g-1)-homogeneous, so the
    shot from psi(0) = c is c times this one.
    """
    if n < 2:
        raise ValueError("dimension n must be >= 2")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    g, d = p.g, p.d(n)
    klam, R = p.k * float(lam), float(R)  # no numpy scalars in the loop
    e, q, c = 1.0 / (g - 1.0), g - 2.0, d - 1.0
    x_h = (1e-2 * ATOL / abs(_axis_coefficients(g, d)[0][-1])) ** (1.0 / (_TERMS - 1))
    h = 0.1 * R if klam == 0.0 else min(0.1 * R, x_h ** ((g - 1.0) / g) / klam ** (1.0 / g))

    # plain floats: the arithmetic of _dpsi_from_flux.  pow(x, 1.0) = x and
    # pow(x, 0.0) = 1 are exact, so at g = 2 and 3 this is the linear and the
    # quadratic right-hand side bit for bit
    def rhs(r, psi, w):
        return math.copysign(abs(w) ** e, w), -klam * abs(psi) ** q * psi - c * w / r

    ts, dense, first_zero = _dop853(rhs, h, _axis_series(g, d, klam, h), R, RTOL, ATOL)
    r_end = float(ts[-1])

    def sol(r):
        r = np.asarray(r, dtype=float)
        vals = dense(np.clip(r, h, r_end))
        small = r < h  # below the handover the series is the solution
        if np.any(small):
            vals[:, small] = _axis_series(g, d, klam, r[small])
        return vals

    return Shot(p, n, float(lam), r_end, first_zero, h, sol)


class _ProfileResult:
    """Shared by the two result types: the profile arrays named in `arrays`
    are stored as read-only views, and `to_csv` writes the rows (r, `column`)."""

    def __post_init__(self):
        for name in self.arrays:
            object.__setattr__(self, name, read_only(getattr(self, name)))

    def to_csv(self, path) -> None:
        """r,<column> rows as csv.writer writes them (%.17g, CRLF), one write."""
        cells = format_17g(np.column_stack([self.grid.r, getattr(self, self.column)]))
        with open(path, "wb") as fh:
            fh.write(b"r,%s\r\n" % self.column.encode())
            fh.write(b"%s,%s\r\n" * self.grid.count % tuple(cells))


@dataclass(frozen=True)
class EigenResult(_ProfileResult):
    lam: float
    grid: RadialGrid
    psi: np.ndarray
    dpsi: np.ndarray
    rate_bound: float  # certified barrier rate the eigenvalue was checked against
    residual_norm: float  # FD audit max over nodes 1..count-2; the axis node sets it for p != 2
    residual_norm_interior: float  # the same over r >= 0.05 R, where the profile is smooth
    p: Exponent
    n: int
    shot: Shot  # the eigenfunction shot, stretched to [0, R]

    column, arrays = "psi", ("psi", "dpsi")

    def to_dict(self) -> dict:
        return {"lambda": self.lam, "p": self.p.label, "n": self.n, "R": self.grid.R,
                "rate_bound": self.rate_bound, "residual_norm": self.residual_norm,
                "residual_norm_interior": self.residual_norm_interior}

    def profile(self) -> SpaceTimeFunction:
        """The shot as a radial profile: callbacks (r, t) that ignore t, dt None.

        The second derivative comes from differencing the dense first
        derivative (independent of the equation, so residual checks are not
        circular).
        """
        shot, R, g = self.shot, self.grid.R, self.p.g

        def dr(r, t):
            return _dpsi_from_flux(shot.sol(r)[1], g)

        def drr(r, t, eps=1e-6 * R):
            r = np.asarray(r, float)
            lo = np.maximum(r - eps, 1e-9 * R)
            hi = np.minimum(r + eps, shot.r_end)
            return (dr(hi, t) - dr(lo, t)) / (hi - lo)

        # psi = 1 + a_1 (mu r)^{g/(g-1)} + ... with mu^g = k lam
        a1 = _axis_coefficients(g, self.p.d(self.n))[0][1]
        C = a1 * (self.p.k * shot.lam) ** (1.0 / (g - 1.0))
        return SpaceTimeFunction(lambda r, t: shot.sol(r)[0], dr, drr, R=min(R, shot.r_end),
                                 origin_exponent=self.p.power_exponent,
                                 origin_coefficient=lambda t: C)


def bracket_rate(p: Exponent, n: int, R: float) -> float:
    """Certified upper bound for the first eigenvalue from the eigen barrier."""
    return make_eigen_barrier(p, n, R).derived["rate"]


def _eigen_shot(p: Exponent, n: int, R: float) -> Shot:
    """The profile shot on B_R at the barrier rate, which must vanish by R."""
    rate = bracket_rate(p, n, R)
    shot = shoot_radial(p, n, R, rate)
    if shot.first_zero is None:
        raise ShootingError(
            f"the barrier rate {rate:g} is not an upper bound for the first "
            f"eigenvalue: the profile shot at that rate stays positive on [0, {R:g}]")
    return shot


@functools.lru_cache(maxsize=32)
def _unit_eigen(p: Exponent, n: int) -> tuple:
    """(shot, psi, psi'): the one eigen shot of (p, n), on the unit ball and
    ending at its first zero, and the normalized eigenfunction on
    RadialGrid(1, GRID_COUNT).  The arrays are frozen at their base, so no
    view of them can be made writeable."""
    shot = _eigen_shot(p, n, 1.0)
    psi, dpsi = shot.stretched(shot.first_zero, 1.0).profile_on(RadialGrid(1.0, GRID_COUNT))
    psi = np.maximum(psi, 0.0)
    psi, dpsi = psi / psi[0], dpsi / psi[0]
    psi.flags.writeable = dpsi.flags.writeable = False
    return shot, psi, dpsi


def first_eigenvalue(p: Exponent, n: int, R: float) -> EigenResult:
    """First Dirichlet eigenvalue on B_R from the unit-ball shot and the scaling law.

    The eigen barrier certifies lam_1 <= rate_1, so the profile shot at
    lam = rate_1 vanishes first at some z <= 1.  The equation is invariant
    under r -> s r, lam -> lam s^g, hence lam_R = rate_1 (z / R)^g and the
    eigenfunction is that shot stretched by R / z: psi is the same array at
    every radius, and psi' is the unit one over R.  The shot is made once per
    (p, n) per process; every call checks lam_R against its own barrier rate
    rate_R (a failure, or a unit shot that stays positive on [0, 1], raises
    ShootingError) and audits the profile on its own grid by an independent
    finite-difference residual.
    """
    rate = bracket_rate(p, n, R)
    unit, psi, dpsi = _unit_eigen(p, n)
    shot = unit.stretched(unit.first_zero / R, R)
    if not shot.lam <= rate:
        raise ShootingError(
            f"the barrier rate {rate:g} is not an upper bound for the first "
            f"eigenvalue {shot.lam:g} of the ball of radius {R:g}")
    grid = RadialGrid(R, GRID_COUNT)
    audit = np.abs(elliptic_residual_grid(psi, grid, p, n, shot.lam))
    # audit[i] is node i + 1, and node (count - 1)/20 is r = 0.05 R
    interior = audit[(GRID_COUNT - 1) // 20 - 1:]
    return EigenResult(lam=shot.lam, grid=grid, psi=psi, dpsi=dpsi / R,
                       rate_bound=rate, residual_norm=float(audit.max()),
                       residual_norm_interior=float(interior.max()), p=p, n=n, shot=shot)


def elliptic_residual_grid(psi: np.ndarray, grid: RadialGrid, p: Exponent,
                           n: int, lam: float) -> np.ndarray:
    """FD audit of L psi + lam |psi|^{g-2} psi at nodes 1..count-2."""
    spatial = fd_laplacian_grid(psi[None, :], grid, p, n)[0]
    return spatial[1:] + lam * np.abs(psi[1:-1]) ** (p.g - 2.0) * psi[1:-1]


def scaling_check(p: Exponent, n: int, radii) -> float:
    """Max relative spread of lam_R * R^g across radii (0 for a single radius).

    Each lam_R comes from its own shot on B_R, never from the unit shot that
    `first_eigenvalue` stretches, so the spread checks the law it relies on."""
    radii = list(radii)
    if not radii:
        raise ValueError("need at least one radius")
    shots = [_eigen_shot(p, n, R) for R in radii]
    vals = np.array([s.lam * (s.first_zero / R) ** p.g * R ** p.g for s, R in zip(shots, radii)])
    med = float(np.median(vals))
    return float(np.max(np.abs(vals - med)) / med)


@dataclass(frozen=True)
class BvpResult(_ProfileResult):
    lam: float
    delta: float
    grid: RadialGrid
    u: np.ndarray
    du: np.ndarray
    M_lambda: float
    p: Exponent
    n: int

    column, arrays = "u", ("u", "du")

    def to_dict(self) -> dict:
        return {"lambda": self.lam, "delta": self.delta, "M_lambda": self.M_lambda,
                "p": self.p.label, "n": self.n, "R": self.grid.R}


def solve_delta_bvp(p: Exponent, n: int, R: float, lam: float, delta: float) -> BvpResult:
    """Positive radial solution of the delta-boundary problem on B_R, dilated
    from the unit eigen shot.

    The unit shot Psi (`_unit_eigen`, psi(0) = 1, made at lam_1* = rate_1 and
    ending at its first zero z_1) solves the equation at rate lam after the
    dilation r -> s r, s = (lam / lam_1*)^{1/g}: psi_1(r) = Psi(s r), with W
    scaled by s^{g-1} (`Shot.stretched`).  The equation is (g-1)-homogeneous
    in u, so the solution is u = M psi_1 with center value
    M_lambda = delta / psi_1(R).  Requires 0 < lam < lam_R, certified by
    z_1 / s > R and psi_1(R) > ATOL, below which the shot does not resolve
    its sign; at or above the eigenvalue the center value blows up and no
    bounded positive solution exists.
    """
    if not 0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    if not 0 < lam < math.inf:
        raise ValueError("lam must be positive and finite (lam -> 0 gives the constant delta)")

    unit = _unit_eigen(p, n)[0]
    s = (lam / unit.lam) ** (1.0 / p.g)
    zero = unit.first_zero / s  # where psi_1 first vanishes
    grid = RadialGrid(R, GRID_COUNT)
    if zero > R:
        psi, dpsi = unit.stretched(s, R).profile_on(grid)
    if not zero > R or psi[-1] <= ATOL:
        raise ShootingError(
            f"lam={lam:g} is at or above the first eigenvalue of the ball: the "
            f"normalized profile vanishes at r={min(zero, R):.6g} <= R, and the "
            "center value M_lambda blows up as lam approaches the eigenvalue; "
            "no bounded positive solution exists")
    M = delta / float(psi[-1])
    return BvpResult(lam=lam, delta=delta, grid=grid, u=M * psi, du=M * dpsi,
                     M_lambda=M, p=p, n=n)
