"""First eigenvalue of the p-Laplacian on balls by shooting, and the
delta-boundary problem.

The radial equation Delta_p psi + lam psi^{p-1} = 0 is integrated as a first
order system in (psi, w) with the flux variable w = |psi'|^{p-2} psi', which
keeps the right-hand side regular through the degenerate axis:

    psi' = sign(w) |w|^{1/(p-1)},     w' = -lam |psi|^{p-2} psi - (n-1) w / r.

Near r = 0 the solution is the series psi0 - C r^{p/(p-1)}, written once in
`_series`: the start value at the handover h0 = 1e-6 R, the solution below h0
and the eigenfunction's `PowerOrigin` coefficient.  Above h0 the 8th-order
Dormand-Prince pair DOP853 takes over; one integration is one frozen `Shot`
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
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .barriers import make_eigen_barrier
from .exponent import Exponent
from .grids import RadialGrid
from .operators import PowerOrigin, RadialProfile, fd_laplacian_grid

GRID_COUNT = 2001  # nodes of the grid the shot profiles are sampled on


class ShootingError(RuntimeError):
    """Integration failure, or a shot that contradicts a certified bound."""


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
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if psi0 <= 0:
        raise ValueError("psi0 must be positive")
    pf = p.p
    h0 = 1e-6 * R
    e, q, c = 1.0 / (pf - 1.0), pf - 2.0, n - 1.0

    def rhs(r, y):  # plain floats: the arithmetic of _dpsi_from_flux, no numpy scalars
        psi, w = y.tolist()
        return (math.copysign(abs(w) ** e, w), -lam * abs(psi) ** q * psi - c * w / r)

    def crossing(r, y):
        return y[0]

    crossing.terminal = True
    crossing.direction = -1

    out = solve_ivp(rhs, (h0, R), _series(pf, n, lam, psi0, h0)[:2], method="DOP853",
                    rtol=rtol, atol=atol, dense_output=True, events=crossing)
    if not out.success and out.status != 1:
        raise ShootingError(
            f"integration failed at r={out.t[-1]:.6g}: {out.message}")
    r_end = out.t[-1]

    def sol(r):
        r = np.asarray(r, dtype=float)
        vals = out.sol(np.clip(r, h0, r_end))
        small = r < h0  # below the handover the series is the solution
        if np.any(small):
            vals[:, small] = _series(pf, n, lam, psi0, r[small])[:2]
        return vals

    first_zero = float(out.t_events[0][0]) if out.t_events[0].size else None
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
