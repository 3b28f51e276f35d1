"""First eigenvalue of the p-Laplacian on balls by shooting, and the
delta-boundary problem.

The radial equation Delta_p psi + lam psi^{p-1} = 0 is integrated as a first
order system in (psi, w) with the flux variable w = |psi'|^{p-2} psi', which
keeps the right-hand side regular through the degenerate axis:

    psi' = sign(w) |w|^{1/(p-1)},     w' = -lam |psi|^{p-2} psi - (n-1) w / r.

Near r = 0 the solution is the series psi0 - C r^{p/(p-1)}, written once in
`_series`: the start value at the handover h0 = 1e-6 R, the solution below h0
and the eigenfunction's `PowerOrigin` coefficient.  Above h0 the 8th-order
Dormand-Prince pair DOP853 takes over, on plain floats with scipy's tables and
step control (`_dop853`); one integration is one frozen `Shot`
holding its 7th-order dense solution sol(r) -> (psi, w) on [0, r_end].  No
parameter is searched for: the equation is invariant under r -> s r,
lam -> lam s^p (the lam_R R^p law, `Shot.stretched`) and (p-1)-homogeneous in
psi, so a single shot yields the eigenvalue (from where its first zero falls)
or the center value (from its boundary trace).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import mul
from typing import Callable

import numpy as np
from scipy.integrate import DOP853
from scipy.optimize import brentq

from .barriers import make_eigen_barrier
from .exponent import Exponent
from .grids import RadialGrid
from .operators import PowerOrigin, RadialProfile, fd_laplacian_grid

GRID_COUNT = 2001  # nodes of the grid the shot profiles are sampled on


class ShootingError(RuntimeError):
    """Integration failure, or a shot that contradicts a certified bound."""


# DOP853 (Hairer-Norsett-Wanner, Solving ODEs I, II.10) as scipy ships it, as
# plain floats: (c_s, a_s) for the stages 1..11 of a step and for the three
# extra dense-output stages 13..15, then the weights.
_STAGES = [(c, a[:s]) for s, (c, a) in enumerate(zip(DOP853.C.tolist(), DOP853.A.tolist())) if s]
_EXTRA = [(c, a[:s]) for s, (c, a) in enumerate(
    zip(DOP853.C_EXTRA.tolist(), DOP853.A_EXTRA.tolist()), start=DOP853.n_stages + 1)]
_B, _E3, _E5 = DOP853.B.tolist(), DOP853.E3.tolist(), DOP853.E5.tolist()
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
    first_zero): the breakpoints, ending at the stop, and sol(r) -> (psi, w).
    """
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
            for c, a in _STAGES:
                k = rhs(r + c * h, psi + sum(map(mul, a, kp)) * h, w + sum(map(mul, a, kw)) * h)
                kp.append(k[0])
                kw.append(k[1])
            psi_new, w_new = psi + h * sum(map(mul, _B, kp)), w + h * sum(map(mul, _B, kw))
            f_new = rhs(r + h, psi_new, w_new)
            kp.append(f_new[0])
            kw.append(f_new[1])
            sp = atol + max(abs(psi), abs(psi_new)) * rtol
            sw = atol + max(abs(w), abs(w_new)) * rtol
            e5 = (sum(map(mul, _E5, kp)) / sp) ** 2 + (sum(map(mul, _E5, kw)) / sw) ** 2
            e3 = (sum(map(mul, _E3, kp)) / sp) ** 2 + (sum(map(mul, _E3, kw)) / sw) ** 2
            err = 0.0 if e5 == 0.0 and e3 == 0.0 else h * e5 / math.sqrt(2.0 * (e5 + 0.01 * e3))
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.125)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.125)
            rejected = True
        for c, a in _EXTRA:
            k = rhs(r + c * h, psi + sum(map(mul, a, kp)) * h, w + sum(map(mul, a, kw)) * h)
            kp.append(k[0])
            kw.append(k[1])
        steps.append((r, h, psi, w, psi_new, w_new, kp, kw))
        crossed = psi >= 0.0 and psi_new <= 0.0  # solve_ivp's direction = -1 event
        r, psi, w, f = r_new, psi_new, w_new, f_new

    # the dense coefficients of all steps at once, F[j, step, component]
    r_old, hs, psi_old, w_old, psi_new, w_new, kp, kw = map(np.array, zip(*steps))
    y_old, K = np.stack([psi_old, w_old], -1), np.stack([kp, kw], -1)
    dy, h = np.stack([psi_new, w_new], -1) - y_old, hs[:, None]
    F = np.concatenate([[dy, h * K[:, 0] - dy, 2.0 * dy - h * (K[:, 12] + K[:, 0])],
                        h * np.einsum("jk,mkc->jmc", DOP853.D, K)])
    if crossed:  # the zero of the last step's polynomial
        Fp, (r0, h, psi0) = F[:, -1, 0].tolist(), steps[-1][:3]
        r = first_zero = brentq(lambda t: _interp(Fp, (t - r0) / h) + psi0, r0, r,
                                xtol=_EPS4, rtol=_EPS4)

    def sol(t):
        seg = np.searchsorted(r_old[1:], t)  # a breakpoint takes the step that ends there
        x = ((t - r_old[seg]) / hs[seg])[..., None]
        return np.moveaxis(_interp(F[:, seg], x) + y_old[seg], -1, 0)

    return np.append(r_old, r), sol, first_zero


def _dpsi_from_flux(w, p: float):
    return np.sign(w) * np.abs(w) ** (1.0 / (p - 1.0))


def _series(p: float, n: int, lam: float, psi0: float, r):
    """Axis series (psi, w) = (psi0 - C r^{p/(p-1)}, -lam psi0^{p-1} r / n) and its C."""
    C = (lam * psi0 ** (p - 1.0) / n) ** (1.0 / (p - 1.0)) * (p - 1.0) / p
    return psi0 - C * r ** (p / (p - 1.0)), -lam * psi0 ** (p - 1.0) * r / n, C


@dataclass(frozen=True)
class Shot:
    """One integration of the radial problem from the axis (p is the finite exponent)."""

    p: float
    n: int
    lam: float
    psi0: float
    r_end: float
    first_zero: float | None
    sol: Callable  # r -> (psi, w) on [0, r_end]

    def profile_on(self, grid: RadialGrid) -> tuple:
        """(psi, psi') resampled on a grid (clipped at r_end)."""
        psi, w = self.sol(np.clip(grid.r, 0.0, self.r_end))
        return psi, _dpsi_from_flux(w, self.p)

    def stretched(self, s: float, R: float) -> Shot:
        """r -> psi(s r) on [0, R]: the shot at rate lam s^p, with w scaled by s^{p-1}."""

        def sol(r):
            psi, w = self.sol(s * np.asarray(r, float))
            return np.vstack([psi, s ** (self.p - 1.0) * w])

        return Shot(self.p, self.n, self.lam * s ** self.p, self.psi0, R, R, sol)


def shoot_radial(p: Exponent, n: int, R: float, lam: float, psi0: float = 1.0,
                 rtol: float = 1e-11, atol: float = 1e-13) -> Shot:
    """Integrate the radial eigen-equation from the axis out to r = R.

    Stops at R or at the first sign change of psi (location recorded in
    first_zero).  At lam = 0 the series and the right-hand side vanish, so
    the shot is the constant profile psi0.
    """
    if p.is_infinity:
        raise ValueError("shooting treats finite p only")
    if n < 2:
        raise ValueError("dimension n must be >= 2")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if psi0 <= 0:
        raise ValueError("psi0 must be positive")
    pf, lam, psi0, R = p.p, float(lam), float(psi0), float(R)  # no numpy scalars in the loop
    h0 = 1e-6 * R
    e, q, c = 1.0 / (pf - 1.0), pf - 2.0, n - 1.0

    def rhs(r, psi, w):  # plain floats: the arithmetic of _dpsi_from_flux
        return math.copysign(abs(w) ** e, w), -lam * abs(psi) ** q * psi - c * w / r

    ts, dense, first_zero = _dop853(rhs, h0, _series(pf, n, lam, psi0, h0)[:2], R, rtol, atol)
    r_end = float(ts[-1])

    def sol(r):
        r = np.asarray(r, dtype=float)
        vals = dense(np.clip(r, h0, r_end))
        small = r < h0  # below the handover the series is the solution
        if np.any(small):
            vals[:, small] = _series(pf, n, lam, psi0, r[small])[:2]
        return vals

    return Shot(pf, n, lam, psi0, r_end, first_zero, sol)


class _ProfileWriter:
    """JSON and CSV writers of the two result types; the CSV holds (r, `column`)."""

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kw)

    def to_csv(self, path) -> None:
        """r,<column> rows as csv.writer writes them (%.17g, CRLF), one write."""
        rows = np.column_stack([self.grid.r, getattr(self, self.column)])
        with open(path, "w", newline="") as fh:
            fh.write(f"r,{self.column}\r\n")
            fh.write("%.17g,%.17g\r\n" * self.grid.count % tuple(rows.ravel().tolist()))


@dataclass(frozen=True)
class EigenResult(_ProfileWriter):
    lam: float
    grid: RadialGrid
    psi: np.ndarray
    dpsi: np.ndarray
    rate_bound: float  # certified barrier rate the eigenvalue was checked against
    residual_norm: float
    p: Exponent
    n: int
    shot: Shot  # the eigenfunction shot, stretched to [0, R]

    column = "psi"

    def to_dict(self) -> dict:
        return {"lambda": self.lam, "p": self.p.label, "n": self.n, "R": self.grid.R,
                "rate_bound": self.rate_bound, "residual_norm": self.residual_norm}

    def profile(self) -> RadialProfile:
        """RadialProfile view of the shot.

        The second derivative comes from differencing the dense first
        derivative (independent of the equation, so residual checks are not
        circular).
        """
        shot, R = self.shot, self.grid.R

        def d1(r):
            return _dpsi_from_flux(shot.sol(r)[1], shot.p)

        def d2(r, eps=1e-6 * R):
            r = np.asarray(r, float)
            lo = np.maximum(r - eps, 1e-9 * R)
            hi = np.minimum(r + eps, shot.r_end)
            return (d1(hi) - d1(lo)) / (hi - lo)

        C = _series(shot.p, shot.n, shot.lam, shot.psi0, 0.0)[2]
        return RadialProfile(value=lambda r: shot.sol(r)[0], d1=d1, d2=d2,
                             R=min(R, shot.r_end),
                             origin=PowerOrigin(shot.p / (shot.p - 1.0), -C))


def bracket_rate(p: Exponent, n: int, R: float) -> float:
    """Certified upper bound for the first eigenvalue from the eigen barrier."""
    return make_eigen_barrier(p, n, R).derived["rate"]


def first_eigenvalue(p: Exponent, n: int, R: float) -> EigenResult:
    """First Dirichlet eigenvalue on B_R from one shot and the scaling law.

    The eigen barrier certifies lam_R <= rate, so the profile shot at
    lam = rate vanishes first at some r_z <= R.  The equation is invariant
    under r -> s r, lam -> lam s^p, hence lam_R = rate (r_z / R)^p and the
    eigenfunction is that shot stretched by R / r_z.  A shot that stays
    positive on [0, R] breaks the certificate and raises ShootingError.  The
    profile is audited by an independent finite-difference residual.
    """
    if p.is_infinity:
        raise ValueError("first_eigenvalue treats 2 <= p < infinity only; "
                         "the infinity eigenvalue is out of scope")
    rate = bracket_rate(p, n, R)
    shot = shoot_radial(p, n, R, rate)
    if shot.first_zero is None:
        raise ShootingError(
            f"the barrier rate {rate:g} is not an upper bound for the first "
            f"eigenvalue: the profile shot at that rate stays positive on [0, {R:g}]")
    shot = shot.stretched(shot.first_zero / R, R)
    grid = RadialGrid(R, GRID_COUNT)
    psi, dpsi = shot.profile_on(grid)
    psi = np.maximum(psi, 0.0)
    res_norm = float(np.abs(
        elliptic_residual_grid(psi, grid, p, n, shot.lam)).max())
    return EigenResult(lam=shot.lam, grid=grid, psi=psi / psi[0], dpsi=dpsi / psi[0],
                       rate_bound=rate, residual_norm=res_norm, p=p, n=n, shot=shot)


def elliptic_residual_grid(psi: np.ndarray, grid: RadialGrid, p: Exponent,
                           n: int, lam: float) -> np.ndarray:
    """FD audit of Delta_p psi + lam psi^{p-1} at nodes 1..count-2."""
    spatial = fd_laplacian_grid(psi[None, :], grid, p, n)[0]
    return spatial[1:] + lam * np.abs(psi[1:-1]) ** (p.p - 2.0) * psi[1:-1]


def scaling_check(p: Exponent, n: int, radii) -> float:
    """Max relative spread of lam_R * R^p across radii (0 for a single radius)."""
    radii = list(radii)
    if not radii:
        raise ValueError("need at least one radius")
    vals = np.array([first_eigenvalue(p, n, R).lam * R ** p.p
                     for R in radii])
    med = float(np.median(vals))
    return float(np.max(np.abs(vals - med)) / med)


@dataclass(frozen=True)
class BvpResult(_ProfileWriter):
    lam: float
    delta: float
    grid: RadialGrid
    u: np.ndarray
    du: np.ndarray
    M_lambda: float
    p: Exponent
    n: int

    column = "u"

    def to_dict(self) -> dict:
        return {"lambda": self.lam, "delta": self.delta, "M_lambda": self.M_lambda,
                "p": self.p.label, "n": self.n, "R": self.grid.R}


def solve_delta_bvp(p: Exponent, n: int, R: float, lam: float, delta: float) -> BvpResult:
    """Positive radial solution of the delta-boundary problem on B_R from one shot.

    The equation is (p-1)-homogeneous in u, so with psi_1 the profile shot
    from psi_1(0) = 1, the solution is u = M psi_1 with center value
    M_lambda = delta / psi_1(R).  Requires 0 < lam < lam_R, certified by
    psi_1 staying positive on [0, R]; at or above the eigenvalue the center
    value blows up and no bounded positive solution exists.  Finite p only
    (the shot raises ValueError at infinity).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if lam <= 0:
        raise ValueError("lam must be positive (lam -> 0 gives the constant delta)")

    probe = shoot_radial(p, n, R, lam, psi0=1.0)
    trace = float(probe.sol(R)[0])
    if probe.first_zero is not None or trace <= 0.0:
        raise ShootingError(
            f"lam={lam:g} is at or above the first eigenvalue of the ball: the "
            f"normalized profile vanishes at r={probe.r_end:.6g} <= R, and the "
            "center value M_lambda blows up as lam approaches the eigenvalue; "
            "no bounded positive solution exists")
    M = delta / trace
    grid = RadialGrid(R, GRID_COUNT)
    psi, dpsi = probe.profile_on(grid)
    return BvpResult(lam=lam, delta=delta, grid=grid, u=M * psi, du=M * dpsi,
                     M_lambda=M, p=p, n=n)


def epsilon_gain(bvp: BvpResult, t: float, slack: float = 1e-8) -> float:
    """Largest zero-order gain for the shifted profile u - t*delta.

    eps = lam [ (1/(1 - t m/M))^{p-1} - 1 ] with m the boundary value and M
    the center value; verifies on the grid that the shifted profile satisfies
    Delta_p(u - t m) + (lam + eps)(u - t m)^{p-1} <= 0.
    """
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie in (0, 1)")
    pf = bvp.p.p
    m, M = bvp.delta, bvp.M_lambda
    eps = bvp.lam * ((1.0 / (1.0 - t * m / M)) ** (pf - 1.0) - 1.0)
    # along the profile Delta_p u = -lam u^{p-1} exactly, and shifting by a
    # constant leaves Delta_p unchanged
    res = -bvp.lam * bvp.u ** (pf - 1.0) + (bvp.lam + eps) * (bvp.u - t * m) ** (pf - 1.0)
    worst = float(res.max())
    scale = bvp.lam * M ** (pf - 1.0)
    if worst > slack * scale:
        raise ShootingError(
            f"shifted-profile verification failed: worst residual {worst:.3e} "
            f"exceeds {slack:g} x scale {scale:.3e}")
    return float(eps)


def quotient_comparison_check(u: np.ndarray, v: np.ndarray, lam: float,
                              lam_bar: float, tol: float = 1e-8) -> dict:
    """Check that max(u/v) over the grid sits at the boundary node.

    u must be the profile with the smaller zero-order rate (lam < lam_bar)
    and v positive.  Diagnostic: returns the verdict plus interior and
    boundary maxima.
    """
    if not lam < lam_bar:
        raise ValueError("need lam < lam_bar")
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    if np.any(v <= 0):
        raise ValueError("v must be positive")
    ratio = u / v
    boundary = float(ratio[-1])
    interior = float(ratio[:-1].max())
    return {
        "ok": bool(interior <= boundary * (1.0 + tol) + tol),
        "interior_max": interior,
        "boundary_value": boundary,
    }
