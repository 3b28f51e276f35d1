"""First eigenvalue of the p-Laplacian on balls by shooting, and the
delta-boundary problem.

The radial equation Delta_p psi + lam psi^{p-1} = 0 is integrated as a first
order system in (psi, w) with the flux variable w = |psi'|^{p-2} psi', which
keeps the right-hand side regular through the degenerate axis:

    psi' = sign(w) |w|^{1/(p-1)},     w' = -lam |psi|^{p-2} psi - (n-1) w / r.

Near r = 0 the solution behaves like psi0 - C r^{p/(p-1)}; a two-term series
steps off the singular origin before handing over to an adaptive high-order
integrator.  No parameter is searched for: the equation is invariant under
r -> s r, lam -> lam s^p (the lam_R R^p law) and (p-1)-homogeneous in psi, so
a single shot yields the eigenvalue (from where its first zero falls) or the
center value (from its boundary trace).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .barriers import make_eigen_barrier
from .exponent import Exponent
from .grids import RadialGrid
from .operators import fd_laplacian_grid


class ShootingError(RuntimeError):
    """Integration or bracketing failure in the shooting method."""


@dataclass
class ShootResult:
    """One integration of the radial problem from the axis."""

    r: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray
    first_zero: float | None
    lam: float
    psi0: float
    sol: object = None  # dense output over the integrated range

    def profile_on(self, grid: RadialGrid) -> tuple:
        """(psi, psi') resampled on a grid (clipped at the first zero)."""
        rr = np.clip(grid.r, 0.0, self.r[-1])
        vals = self.sol(rr)
        return vals[0], _dpsi_from_flux(vals[1], self._p_exponent)

    _p_exponent: float = 2.0


def _dpsi_from_flux(w, p: float):
    return np.sign(w) * np.abs(w) ** (1.0 / (p - 1.0))


def _series_start(p: float, n: int, lam: float, psi0: float, h0: float):
    """Two-term start psi ~ psi0 - C r^{p/(p-1)} matched to the axis calculus."""
    beta = p / (p - 1.0)
    if lam == 0.0:
        return psi0, 0.0
    C = (lam * psi0 ** (p - 1.0) / n) ** (1.0 / (p - 1.0)) * (p - 1.0) / p
    psi_h = psi0 - C * h0 ** beta
    w_h = -lam * psi0 ** (p - 1.0) * h0 / n  # flux of the series term
    return psi_h, w_h


def shoot_radial(p: Exponent, n: int, R: float, lam: float, psi0: float = 1.0,
                 steps: int = 512, rtol: float = 1e-11, atol: float = 1e-13) -> ShootResult:
    """Integrate the radial eigen-equation from the axis out to r = R.

    Stops at R or at the first sign change of psi (location recorded in
    first_zero).  lam = 0 returns the constant profile.
    """
    if p.is_infinity:
        raise ValueError("shooting treats finite p only")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if psi0 <= 0:
        raise ValueError("psi0 must be positive")
    pf = p.p
    if lam == 0.0:
        r = np.linspace(0.0, R, steps + 1)
        res = ShootResult(r=r, psi=np.full_like(r, psi0), dpsi=np.zeros_like(r),
                          first_zero=None, lam=lam, psi0=psi0)
        res.sol = lambda rr: np.vstack([np.full_like(np.asarray(rr, float), psi0),
                                        np.zeros_like(np.asarray(rr, float))])
        res._p_exponent = pf
        return res

    h0 = 1e-6 * R
    y0 = _series_start(pf, n, lam, psi0, h0)

    def rhs(r, y):
        psi, w = y
        dpsi = _dpsi_from_flux(w, pf)
        dw = -lam * np.abs(psi) ** (pf - 2.0) * psi - (n - 1.0) * w / r
        return (dpsi, dw)

    def crossing(r, y):
        return y[0]

    crossing.terminal = True
    crossing.direction = -1

    sol = solve_ivp(rhs, (h0, R), y0, method="RK45", rtol=rtol, atol=atol,
                    dense_output=True, events=crossing)
    if not sol.success and sol.status != 1:
        raise ShootingError(
            f"integration failed at r={sol.t[-1]:.6g}: {sol.message}")

    first_zero = float(sol.t_events[0][0]) if sol.t_events[0].size else None
    r_end = sol.t[-1]
    r = np.linspace(0.0, r_end, steps + 1)
    dense = sol.sol

    def eval_dense(rr):
        rr = np.asarray(rr, dtype=float)
        rr_c = np.clip(rr, h0, r_end)
        vals = dense(rr_c)
        # below the series handover, use the series itself
        small = rr < h0
        if np.any(small):
            beta = pf / (pf - 1.0)
            C = (lam * psi0 ** (pf - 1.0) / n) ** (1.0 / (pf - 1.0)) * (pf - 1.0) / pf
            vals = vals.copy()
            vals[0, small] = psi0 - C * rr[small] ** beta
            vals[1, small] = -lam * psi0 ** (pf - 1.0) * rr[small] / n
        return vals

    vals = eval_dense(r)
    res = ShootResult(r=r, psi=vals[0], dpsi=_dpsi_from_flux(vals[1], pf),
                      first_zero=first_zero, lam=lam, psi0=psi0)
    res.sol = eval_dense
    res._p_exponent = pf
    return res


@dataclass
class EigenResult:
    lam: float
    grid: RadialGrid
    psi: np.ndarray
    dpsi: np.ndarray
    rate_bound: float  # certified barrier rate the eigenvalue was checked against
    residual_norm: float
    p: Exponent = None
    n: int = 0

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "p": self.p.label if self.p else None,
            "n": self.n,
            "R": self.grid.R,
            "rate_bound": self.rate_bound,
            "residual_norm": self.residual_norm,
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kw)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["r", "psi"])
            for r, v in zip(self.grid.r, self.psi):
                w.writerow([f"{r:.17g}", f"{v:.17g}"])

    def profile(self):
        """RadialProfile view with ODE-consistent second derivative."""
        return eigen_profile(self.p, self.n, self.grid.R, self.lam, self._shoot)

    _shoot: ShootResult = None


def eigen_profile(p: Exponent, n: int, R: float, lam: float, shoot: ShootResult):
    """Build a RadialProfile from dense shooting output.

    The second derivative comes from differencing the dense first derivative
    (independent of the equation, so residual checks are not circular).
    """
    from .operators import PowerOrigin, RadialProfile

    pf = p.p
    beta = pf / (pf - 1.0)
    C = (lam * shoot.psi0 ** (pf - 1.0) / n) ** (1.0 / (pf - 1.0)) * (pf - 1.0) / pf

    def value(r):
        return shoot.sol(r)[0]

    def d1(r):
        return _dpsi_from_flux(shoot.sol(r)[1], pf)

    def d2(r, eps=1e-6 * R):
        r = np.asarray(r, float)
        lo = np.maximum(r - eps, 1e-9 * R)
        hi = np.minimum(r + eps, shoot.r[-1])
        return (d1(hi) - d1(lo)) / (hi - lo)

    return RadialProfile(value=value, d1=d1, d2=d2, R=min(R, shoot.r[-1]),
                         origin=PowerOrigin(beta, -C))


def bracket_rate(p: Exponent, n: int, R: float) -> float:
    """Certified upper bound for the first eigenvalue from the eigen barrier."""
    return make_eigen_barrier(p, n, R).derived["rate"]


def _stretched(shot: ShootResult, s: float, R: float, lam: float) -> ShootResult:
    """The shot r -> psi(s r) on [0, R]; it solves the equation at rate lam = shot.lam s^p."""
    pf = shot._p_exponent

    def sol(rr):
        vals = shot.sol(s * np.asarray(rr, float))
        return np.vstack([vals[0], s ** (pf - 1.0) * vals[1]])  # w scales as s^{p-1}

    r = np.linspace(0.0, R, shot.r.size)
    vals = sol(r)
    return ShootResult(r=r, psi=vals[0], dpsi=_dpsi_from_flux(vals[1], pf), first_zero=R,
                       lam=lam, psi0=shot.psi0, sol=sol, _p_exponent=pf)


def first_eigenvalue(p: Exponent, n: int, R: float, grid_count: int = 2001) -> EigenResult:
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
    s = shot.first_zero / R
    lam = rate * s ** p.p
    shot = _stretched(shot, s, R, lam)
    grid = RadialGrid(R, grid_count)
    psi, dpsi = shot.profile_on(grid)
    psi = np.maximum(psi, 0.0)
    res_norm = float(np.abs(
        elliptic_residual_grid(psi, grid, p, n, lam)).max())
    out = EigenResult(lam=lam, grid=grid, psi=psi / psi[0], dpsi=dpsi / psi[0],
                      rate_bound=rate, residual_norm=res_norm, p=p, n=n)
    out._shoot = shot
    return out


def elliptic_residual_grid(psi: np.ndarray, grid: RadialGrid, p: Exponent,
                           n: int, lam: float) -> np.ndarray:
    """FD audit of Delta_p psi + lam psi^{p-1} at nodes 1..count-2."""
    spatial = fd_laplacian_grid(psi[None, :], grid, p, n)[0]
    res = spatial[1:] + lam * np.abs(psi[1:-1]) ** (p.p - 2.0) * psi[1:-1]
    return res


def scaling_check(p: Exponent, n: int, radii) -> float:
    """Max relative spread of lam_R * R^p across radii (0 for a single radius)."""
    radii = list(radii)
    if not radii:
        raise ValueError("need at least one radius")
    vals = np.array([first_eigenvalue(p, n, R).lam * R ** p.p
                     for R in radii])
    med = float(np.median(vals))
    return float(np.max(np.abs(vals - med)) / med)


@dataclass
class BvpResult:
    lam: float
    delta: float
    grid: RadialGrid
    u: np.ndarray
    du: np.ndarray
    M_lambda: float
    p: Exponent = None
    n: int = 0

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "delta": self.delta,
            "M_lambda": self.M_lambda,
            "p": self.p.label if self.p else None,
            "n": self.n,
            "R": self.grid.R,
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kw)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["r", "u"])
            for r, v in zip(self.grid.r, self.u):
                w.writerow([f"{r:.17g}", f"{v:.17g}"])


def solve_delta_bvp(p: Exponent, n: int, R: float, lam: float, delta: float,
                    grid_count: int = 2001) -> BvpResult:
    """Positive radial solution of the delta-boundary problem on B_R from one shot.

    The equation is (p-1)-homogeneous in u, so with psi_1 the profile shot
    from psi_1(0) = 1, the solution is u = M psi_1 with center value
    M_lambda = delta / psi_1(R).  Requires 0 < lam < lam_R, certified by
    psi_1 staying positive on [0, R]; at or above the eigenvalue the center
    value blows up and no bounded positive solution exists.
    """
    if p.is_infinity:
        raise ValueError("the delta-boundary problem treats finite p only")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if lam <= 0:
        raise ValueError("lam must be positive (lam -> 0 gives the constant delta)")

    probe = shoot_radial(p, n, R, lam, psi0=1.0)
    trace = float(probe.sol(R)[0])
    if probe.first_zero is not None or trace <= 0.0:
        raise ShootingError(
            f"lam={lam:g} is at or above the first eigenvalue of the ball: the "
            f"normalized profile vanishes at r={probe.r[-1]:.6g} <= R, and the "
            "center value M_lambda blows up as lam approaches the eigenvalue; "
            "no bounded positive solution exists")
    M = delta / trace
    grid = RadialGrid(R, grid_count)
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
