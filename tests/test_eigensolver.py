"""Shooting eigensolver and the delta-boundary problem.

Oracles: the linear case p = 2 has closed forms (sin(pi r)/(pi r) in three
dimensions; the first Bessel J0 zero in two), and the infinity branch, a 1-D
p = 4 problem, has the closed-form pi^4/(64 R^4) from the generalized pi_p, as
has the 1-D law (g, 1, 1) at every g, (g-1)(pi_g/(2R))^g; for 2.5 <= p <= 4 the
eigenvalue is also the Rayleigh quotient of its eigenfunction, integrated here
by quad.  All are built here independently of the solver before asserting
against it.  For every p the shot is also checked against scipy's
general-purpose `solve_ivp(method="DOP853")` run here on its own right-hand
side: the same accepted steps and right-hand-side calls.  The stepper is
checked against cos r, and the scipy DOP853 interface it reads is pinned.
The delta-boundary profile, which the solver dilates from the unit eigen
shot, is checked against a shot of its own at lam.  The zero-order gain of
shifted profiles and the quotient comparison, two lemmas of the paper, are
written here as helpers and checked on the solver's delta-boundary profiles.
"""

import csv
import itertools
import math
from dataclasses import FrozenInstanceError, dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.special import j0, j1, spherical_jn

from trudlab import eigensolver
from trudlab.barriers import ConstraintError, make_eigen_barrier
from trudlab.eigensolver import (
    BvpResult,
    ShootingError,
    elliptic_residual_grid,
    first_eigenvalue,
    scaling_check,
    shoot_radial,
    solve_delta_bvp,
)
from trudlab.exponent import INFINITY, Exponent
from trudlab.grids import RadialGrid
from trudlab.operators import eval_radial_operator

PI2 = math.pi ** 2


def bessel_j0(x, terms=40):
    """Power series J0(x) = sum (-x^2/4)^k / (k!)^2; converges fast for x < 10."""
    total = 0.0
    term = 1.0
    for k in range(terms):
        total += term
        term *= -(x * x) / 4.0 / ((k + 1) ** 2)
    return total


def bessel_j0_first_zero():
    """Bisection on the series: independent of the shooting machinery."""
    lo, hi = 2.0, 3.0
    assert bessel_j0(lo) > 0 > bessel_j0(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if bessel_j0(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def interval_eigenvalue(p, L):
    """First Dirichlet eigenvalue of (|u'|^{p-2} u')' + mu |u|^{p-2} u = 0 on an
    interval of length L: (p-1)(pi_p/L)^p with pi_p = 2 pi/(p sin(pi/p))
    (Lindqvist, Ricerche Mat. 1995; Drabek-Manasevich, Diff. Int. Eq. 1999)."""
    pi_p = 2.0 * math.pi / (p * math.sin(math.pi / p))
    return (p - 1.0) * (pi_p / L) ** p


def infinity_eigenvalue(R):
    """lam of (psi'^3)'/3 + lam psi^3 = 0 on B_R, psi'(0) = 0: the symmetric p = 4
    eigenfunction on L = 2R, its eigenvalue divided by k = 3; pi^4/(64 R^4)."""
    return interval_eigenvalue(4.0, 2.0 * R) / 3.0


J01 = bessel_j0_first_zero()


@dataclass(frozen=True)
class IntervalLaw:
    """The exponent law (g, k = 1, d = 1) in every dimension n, for any g > 1:
    the shot's equation is then (|psi'|^{g-2} psi')' + lam |psi|^{g-2} psi = 0."""

    g: float
    k: float = 1.0

    def d(self, n):
        return 1.0


def eigen_at_radius(p, n, R):
    """The eigenpair on B_R from a shot on B_R itself, never through the unit
    shot: shoot at the barrier rate, stretch the shot to its first zero,
    resample.  Returns lam_R = rate (z_R / R)^g, psi, psi' and both audit norms."""
    rate = eigensolver.bracket_rate(p, n, R)
    shot = shoot_radial(p, n, R, rate)
    shot = shot.stretched(shot.first_zero / R, R)
    grid = RadialGrid(R, eigensolver.GRID_COUNT)
    psi, dpsi = shot.profile_on(grid)
    psi = np.maximum(psi, 0.0)
    audit = np.abs(elliptic_residual_grid(psi, grid, p, n, shot.lam))
    return shot.lam, psi / psi[0], dpsi / psi[0], audit.max(), audit[grid.r[1:-1] >= 0.05 * R].max()


def delta_bvp_at_radius(p, n, R, lam, delta):
    """(M_lambda, u, u') of the delta-BVP from a shot on B_R at lam itself,
    never through the unit eigen shot: psi_1 from the axis with psi_1(0) = 1,
    resampled, and M_lambda = delta / psi_1(R)."""
    shot = shoot_radial(p, n, R, lam)
    assert shot.first_zero is None
    psi, dpsi = shot.profile_on(RadialGrid(R, eigensolver.GRID_COUNT))
    M = delta / psi[-1]
    return M, M * psi, M * dpsi


def interval_law_eigenvalue(g, R):
    """lam of the law (g, 1, 1), the 1-D g-Laplacian symmetric on (-R, R), from
    the production shot: shot at 3x the closed form and stretched to its first
    zero (brentq on the float dense polynomial)."""
    shot = shoot_radial(IntervalLaw(g), 2, R, 3.0 * interval_eigenvalue(g, 2.0 * R))
    assert 0.0 < shot.first_zero < R
    return shot.stretched(shot.first_zero / R, R).lam


def rayleigh_quotient(p, n, R):
    """lam from k lam = int |psi'|^g r^{d-1} / int |psi|^g r^{d-1} over [0, R]
    for the eigenfunction: quad of a shot on B_R itself, never the unit shot,
    stretched to its first zero and split at the handover."""
    g, d = p.g, p.d(n)
    shot = shoot_radial(p, n, R, eigensolver.bracket_rate(p, n, R))
    shot = shot.stretched(shot.first_zero / R, R)

    def integral(of_psi_and_dpsi):
        def integrand(r):
            psi, w = (float(a) for a in shot.sol(r))
            dpsi = math.copysign(abs(w) ** (1.0 / (g - 1.0)), w)
            return of_psi_and_dpsi(psi, dpsi) * r ** (d - 1.0)

        return quad(integrand, 0.0, R, epsrel=1e-13, epsabs=0.0, limit=500,
                    points=[shot.handover])[0]

    energy = integral(lambda psi, dpsi: abs(dpsi) ** g)
    return energy / integral(lambda psi, dpsi: abs(psi) ** g) / p.k


@pytest.fixture
def shot_radii(monkeypatch):
    """The radius of every shoot_radial call the eigensolver makes from here on."""
    radii, real = [], eigensolver.shoot_radial

    def counting(p, n, R, *args, **kw):
        radii.append(R)
        return real(p, n, R, *args, **kw)

    monkeypatch.setattr(eigensolver, "shoot_radial", counting)
    return radii


def epsilon_gain(result: BvpResult, t: float, slack: float = 1e-8) -> float:
    """Largest zero-order gain for the shifted profile u - t*delta.

    eps = lam [ (1/(1 - t m/M))^{g-1} - 1 ] with m the boundary value and M
    the center value; verifies on the grid that the shifted profile satisfies
    L(u - t m) + (lam + eps)(u - t m)^{g-1} <= 0.
    """
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie in (0, 1)")
    lam, m, M, u = result.lam, result.delta, result.M_lambda, result.u
    w = result.p.time_weight
    eps = lam * ((1.0 / (1.0 - t * m / M)) ** w - 1.0)
    # along the profile L u = -lam u^{g-1} exactly, and shifting by a
    # constant leaves L unchanged
    res = -lam * u ** w + (lam + eps) * (u - t * m) ** w
    worst = float(res.max())
    scale = lam * M ** w
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


class TestShootRadial:
    def test_linear_case_matches_sinc(self):
        sh = shoot_radial(Exponent.finite(2), 3, 1.2, PI2)
        assert sh.first_zero == pytest.approx(1.0, abs=1e-6)
        rr = np.linspace(0.05, 0.95, 19)
        exact = np.sin(np.pi * rr) / (np.pi * rr)
        assert np.abs(sh.sol(rr)[0] - exact).max() < 1e-8

    def test_zero_rate_constant(self):
        sh = shoot_radial(Exponent.finite(3), 2, 1.0, 0.0)
        assert sh.first_zero is None
        assert np.all(sh.sol(np.linspace(0.0, 1.0, 513))[0] == 1.0)

    def test_bessel_zero_oracle(self):
        lam = J01 ** 2
        sh = shoot_radial(Exponent.finite(2), 2, 1.2, lam)
        assert sh.first_zero == pytest.approx(1.0, abs=1e-4)

    def test_infinity_zero_at_oracle_rate(self):
        # d = 1 at infinity: the shot is the same in every dimension n
        shots = [shoot_radial(INFINITY, n, 1.2, infinity_eigenvalue(1.0)) for n in (2, 3)]
        assert shots[0].first_zero == pytest.approx(1.0, rel=1e-9)
        assert shots[1].first_zero == shots[0].first_zero

    @pytest.mark.parametrize("R", [0.5, 1.0, 1.7])
    @pytest.mark.parametrize("g", [1.5, 2.0, 2.5, 3.0, 4.0, 6.0])
    def test_interval_law_matches_pi_p(self, g, R):
        # the law (g, 1, 1) is the 1-D g-Laplacian: its shot lands on (g-1)(pi_g/(2R))^g
        lam = interval_eigenvalue(g, 2.0 * R)
        assert abs(interval_law_eigenvalue(g, R) - lam) <= 1e-10 * lam

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_dimension_below_two_rejected(self, n):
        with pytest.raises(ValueError, match="dimension"):
            shoot_radial(Exponent.finite(3), n, 1.0, 1.0)

    @pytest.mark.parametrize("pv", ["2.5", "3", "inf"])
    @pytest.mark.parametrize("stretched", [False, True])
    def test_sol_shape_and_points(self, eigen_cache, pv, stretched):
        # sol(r) has shape (2, *r.shape), and each entry is the sorted grid's
        # entry bit for bit: whatever the order and shape of the points
        if stretched:
            shot = eigen_cache(pv, 2, 1.3).shot
        else:
            shot = shoot_radial(Exponent.parse(pv), 2, 1.0, 8.0)
        grid = np.linspace(0.0, shot.r_end, 2001)  # the axis series, every step, r_end
        full = shot.sol(grid)
        assert full.shape == (2, 2001)
        idx = np.random.default_rng(7).permutation(2001)[:600]
        assert np.any(np.diff(idx) < 0)
        for sel in (idx, idx.reshape(20, 30)):
            out = shot.sol(grid[sel])
            assert out.shape == (2, *sel.shape)
            assert np.array_equal(out, full[:, sel])
        for k in (0, 1000, 2000):
            out = shot.sol(grid[k])
            assert out.shape == (2,)
            assert np.array_equal(out, full[:, k])
        # sorted points split into a series prefix and a dense rest; a 2-D
        # row takes the mask path, which must give the same bits at the edges
        h = shot.handover
        for pts in (grid[grid < h], grid[grid >= h], np.array([h]),
                    np.array([0.0, h, h, shot.r_end]), np.empty(0)):
            out = shot.sol(pts)
            assert out.shape == (2, pts.size)
            assert np.array_equal(out, shot.sol(pts[None, :])[:, 0])
        assert grid[0] < h < grid[-1]

    def test_dense_polynomial_float_and_array_agree(self):
        # brentq evaluates the polynomial on floats, sol on arrays: one Horner
        F = np.random.default_rng(3).standard_normal(7)
        for x in (0.0, 0.3, 0.71, 1.0):
            on_floats = eigensolver._interp(F.tolist(), x)
            on_arrays = eigensolver._interp(F, np.array(x))
            assert isinstance(on_floats, float) and on_arrays.shape == ()
            assert on_floats.hex() == float(on_arrays).hex()


RTOL, ATOL = 1e-11, 1e-13  # shoot_radial's tolerances


def law_rhs(p, n, lam):
    """The shot's system in (psi, W) for the law (g, k, d), numpy right-hand side."""
    g, klam, d = p.g, p.k * lam, p.d(n)

    def rhs(r, y):
        psi, w = y
        return [np.sign(w) * np.abs(w) ** (1.0 / (g - 1.0)),
                -klam * np.abs(psi) ** (g - 2.0) * psi - (d - 1.0) * w / r]

    return rhs


def reference_ivp(shot, R, events=None):
    """solve_ivp's DOP853 from the shot's own start values at its handover."""
    h = shot.handover
    return solve_ivp(law_rhs(shot.p, shot.n, shot.lam), (h, R), shot.sol(h), method="DOP853",
                     rtol=RTOL, atol=ATOL, dense_output=True, events=events)


def two_term_ivp(p, n, R, lam, events=None):
    """solve_ivp's DOP853 from the two-term axis series psi0 - C r^{g/(g-1)},
    W = -k lam r/d at 1e-6 R: a start independent of the shot's handover."""
    g, klam, d, h0 = p.g, p.k * lam, p.d(n), 1e-6 * R
    C = (klam / d) ** (1.0 / (g - 1.0)) * (g - 1.0) / g
    y0 = [1.0 - C * h0 ** (g / (g - 1.0)), -klam * h0 / d]
    return solve_ivp(law_rhs(p, n, lam), (h0, R), y0, method="DOP853", rtol=RTOL, atol=ATOL,
                     dense_output=True, events=events)


def downward_zero(r, y):
    return y[0]


downward_zero.terminal = True
downward_zero.direction = -1


class TestAgainstSolveIvp:
    """The stepper against solve_ivp at the same tolerances."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("pv", [2.0, 2.5, 3.0, 4.0])
    def test_first_zero_at_barrier_rate(self, pv, n):
        R = 1.0
        rate = eigensolver.bracket_rate(Exponent.finite(pv), n, R)
        shot = shoot_radial(Exponent.finite(pv), n, R, rate)
        ref = reference_ivp(shot, R, events=downward_zero)
        assert ref.t_events[0].size == 1
        assert shot.first_zero == pytest.approx(ref.t_events[0][0], rel=1e-12, abs=0)
        assert shot.r_end == shot.first_zero

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("pv", [2.0, 2.5, 3.0, 4.0])
    def test_trace_and_dense_solution_below_eigenvalue(self, eigen_cache, pv, n):
        R = 1.0
        lam = 0.7 * eigen_cache(pv, n, R).lam
        shot = shoot_radial(Exponent.finite(pv), n, R, lam)
        ref = reference_ivp(shot, R)
        assert shot.first_zero is None and shot.r_end == R
        assert float(shot.sol(R)[0]) == pytest.approx(ref.y[0, -1], rel=1e-10, abs=0)
        r = np.linspace(shot.handover, R, 513)
        got, want = shot.sol(r), ref.sol(r)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("pv", [2.0, 2.5, 3.0, 4.0])
    def test_same_accepted_steps(self, eigen_cache, monkeypatch, pv, n):
        # the step control is solve_ivp's: the same accepted steps for the
        # eigenvalue shot (stopped at its zero) and a delta-BVP shot
        R = 1.0
        steps = []
        real = eigensolver._dop853

        def counting(*args):
            out = real(*args)
            steps.append(len(out[0]) - 1)
            return out

        monkeypatch.setattr(eigensolver, "_dop853", counting)
        rate = eigensolver.bracket_rate(Exponent.finite(pv), n, R)
        lam = 0.7 * eigen_cache(pv, n, R).lam
        for rate_, events in ((rate, downward_zero), (lam, None)):
            shot = shoot_radial(Exponent.finite(pv), n, R, rate_)
            assert steps[-1] == len(reference_ivp(shot, R, events).t) - 1


class TestHandover:
    """The axis series against closed forms, and the handover against a shot
    started by solve_ivp from the two-term series at 1e-6 R."""

    @pytest.mark.parametrize("R", [0.5, 1.0, 1.7])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("pv", ["2", "2.5", "3", "4", "inf"])
    def test_matches_the_two_term_start(self, eigen_cache, pv, n, R):
        p = Exponent.parse(pv)
        rate = eigensolver.bracket_rate(p, n, R)
        zero = two_term_ivp(p, n, R, rate, events=downward_zero).t_events[0][0]
        lam = eigen_cache(pv, n, R).lam
        assert lam == pytest.approx(rate * (zero / R) ** p.g, rel=1e-10, abs=0)
        shot = shoot_radial(p, n, R, 0.7 * lam)
        r = np.linspace(shot.handover, R, 257)
        got, want = shot.sol(r), two_term_ivp(p, n, R, 0.7 * lam).sol(r)
        # between breakpoints W carries the dense interpolant's own error, up
        # to 1.6e-10 of max |W| in either run against a 1e-14 solve_ivp
        err = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
        assert err[0] <= 1e-10 and err[1] <= 3e-10, err

    @pytest.mark.parametrize("R", [0.5, 1.0, 1.7])
    @pytest.mark.parametrize("n", [2, 3])
    def test_linear_series_is_the_closed_form(self, n, R):
        # p = 2: psi = J0(sqrt(lam) r) (n = 2) and sin(sqrt(lam) r)/(sqrt(lam) r)
        # (n = 3), below and at the handover
        lam = (J01 / R) ** 2 if n == 2 else PI2 / R ** 2
        shot = shoot_radial(Exponent.finite(2), n, R, lam)
        r = np.linspace(0.0, shot.handover, 65)
        exact = j0(math.sqrt(lam) * r) if n == 2 else np.sinc(math.sqrt(lam) * r / math.pi)
        assert shot.handover > 1e-6 * R
        assert np.abs(shot.sol(r)[0] - exact).max() <= 1e-14

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("pv", ["2", "2.5", "3", "4", "inf"])
    def test_accepted_steps_pinned(self, eigen_cache, monkeypatch, pv, n):
        # started from the series away from the axis, no shot spends its
        # steps climbing out of the r^{g/(g-1)} singularity
        p, lam = Exponent.parse(pv), 0.7 * eigen_cache(pv, n, 1.0).lam
        steps = []
        real = eigensolver._dop853

        def counting(*args):
            out = real(*args)
            steps.append(len(out[0]) - 1)
            return out

        monkeypatch.setattr(eigensolver, "_dop853", counting)
        shoot_radial(p, n, 1.0, eigensolver.bracket_rate(p, n, 1.0))
        shoot_radial(p, n, 1.0, lam)
        assert len(steps) == 2 and max(steps) <= 25, steps

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("pv", ["2", "2.5", "3", "4", "inf"])
    def test_second_derivative_across_the_seam(self, eigen_cache, pv, n):
        # drr differences dr over +-1e-6 R, so within 1e-6 R of the handover h
        # it takes one value from the series and one from the dense solution;
        # there, and on either side, it matches the FD second derivative of psi
        res = eigen_cache(pv, n, 1.0)
        prof, h = res.profile(), res.shot.handover
        e = 5e-4 * h
        for r in h + np.array([-2.0 * e, -5e-7, 0.0, 5e-7, 2.0 * e]):
            fd = (prof.value(r + e, 0.0) - 2.0 * prof.value(r, 0.0)
                  + prof.value(r - e, 0.0)) / e ** 2
            assert abs(prof.drr(r, 0.0) - fd) <= 1e-6 * abs(fd)


class TestStepper:
    """The DOP853 stepper on its own."""

    def test_cosine_first_zero(self):
        # psi'' = -psi as (psi, w) = (psi, psi'): psi = cos r, first zero pi/2
        ts, sol, zero = eigensolver._dop853(lambda r, psi, w: (w, -psi), 0.0, (1.0, 0.0),
                                            3.0, RTOL, ATOL)
        assert zero == pytest.approx(math.pi / 2, rel=1e-12, abs=0)
        assert ts[0] == 0.0 and ts[-1] == zero and np.all(np.diff(ts) > 0)
        r = np.linspace(0.0, zero, 257)
        assert np.abs(sol(r) - [np.cos(r), -np.sin(r)]).max() < 1e-10
        assert np.allclose(sol(0.3), [math.cos(0.3), -math.sin(0.3)], rtol=0, atol=1e-10)

    def test_no_zero_runs_to_the_end(self):
        ts, sol, zero = eigensolver._dop853(lambda r, psi, w: (w, -psi), 0.0, (1.0, 0.0),
                                            1.5, RTOL, ATOL)
        assert zero is None and ts[-1] == 1.5
        assert float(sol(1.5)[0]) == pytest.approx(math.cos(1.5), rel=1e-10)

    @pytest.mark.parametrize("k", [30.0, 3000.0])
    def test_calls_match_solve_ivp(self, k):
        # psi'' = -(1 + k r^2) psi rejects steps; the steps and the
        # right-hand-side calls (initial-step rule, rejected tries, dense-output
        # stages) are solve_ivp's
        calls = []

        def rhs(r, psi, w):
            calls.append(r)
            return w, -(1.0 + k * r * r) * psi

        ts, _, zero = eigensolver._dop853(rhs, 0.0, (1.0, 0.0), 3.0, RTOL, ATOL)
        ref = solve_ivp(lambda r, y: [y[1], -(1.0 + k * r * r) * y[0]], (0.0, 3.0),
                        [1.0, 0.0], method="DOP853", rtol=RTOL, atol=ATOL,
                        dense_output=True, events=downward_zero)
        assert len(calls) > 2 + 15 * (len(ts) - 1)  # some steps were rejected
        assert len(ts) == len(ref.t) and len(calls) == ref.nfev
        assert zero == pytest.approx(ref.t_events[0][0], rel=1e-12, abs=0)

    @pytest.mark.parametrize("bad_from", [0.0, 0.5])
    def test_nan_right_hand_side_raises(self, bad_from):
        def rhs(r, psi, w):
            return (math.nan, math.nan) if r >= bad_from else (w, -psi)

        with pytest.raises(ShootingError, match="step size too small"):
            eigensolver._dop853(rhs, 0.0, (1.0, 0.0), 3.0, RTOL, ATOL)

    def test_scipy_dop853_interface(self):
        # what the stepper reads of scipy: the constructor, step(), status,
        # h_abs and each step's dense_output() (t_old, h, F, y_old), whose
        # polynomial _interp evaluates bit for bit as the dense output does
        from scipy.integrate import DOP853

        solver = DOP853(lambda r, y: (y[1], -y[0]), 0.0, (1.0, 0.0), 3.0, rtol=RTOL, atol=ATOL)
        assert solver.status == "running" and 0.0 < solver.h_abs < 3.0
        t_old, y_old, steps = 0.0, solver.y, 0
        while solver.status == "running":
            assert solver.step() is None and solver.status in ("running", "finished")
            dense, steps = solver.dense_output(), steps + 1
            assert (dense.t_old, dense.h) == (t_old, solver.t - t_old)
            assert dense.F.shape == (7, 2) and dense.F.dtype == np.float64
            assert dense.y_old.shape == (2,) and np.array_equal(dense.y_old, y_old)
            for x in (0.0, 0.3, 0.71, 1.0):
                r = t_old + x * dense.h
                ours = eigensolver._interp(dense.F, (r - dense.t_old) / dense.h) + dense.y_old
                assert ours.tobytes() == dense(r).tobytes()
            t_old, y_old = solver.t, solver.y
        assert solver.status == "finished" and solver.t == 3.0 and steps > 3


class TestFirstEigenvalue:
    def test_three_dimensional_linear_case(self, eigen_cache):
        res = eigen_cache(2.0, 3, 1.0)
        assert res.lam == pytest.approx(PI2, abs=1e-4)

    def test_two_dimensional_bessel_case(self, eigen_cache):
        res = eigen_cache(2.0, 2, 1.0)
        assert res.lam == pytest.approx(J01 ** 2, abs=1e-3)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("R", [0.5, 1.0, 1.7])
    def test_linear_closed_forms(self, n, R):
        # p = 2: lam = j01^2/R^2 with psi = J0(j01 r/R) (n = 2), lam = pi^2/R^2
        # with psi = sin(pi r/R)/(pi r/R) (n = 3)
        res = first_eigenvalue(Exponent.finite(2), n, R)
        r = res.grid.r
        if n == 2:
            lam, psi = (J01 / R) ** 2, bessel_j0(J01 * r / R)
        else:
            lam, psi = PI2 / R ** 2, np.sinc(r / R)
        assert abs(res.lam - lam) <= 1e-10 * lam
        assert np.abs(res.psi - psi).max() <= 1e-9

    def test_domain_monotonicity(self, eigen_cache):
        for pv in (2.0, 3.0):
            lam1 = eigen_cache(pv, 2, 1.0).lam
            lam2 = eigen_cache(pv, 2, 2.0).lam
            assert lam1 > lam2

    def test_one_shot_per_call(self, shot_radii):
        # the scaling law and the homogeneity replace any search: one
        # integration per (p, n) per process serves every radius and every
        # delta-BVP, whichever of the two asks first
        for pv, n in ((2.0, 3), (3.0, 2), (4.0, 3)):
            p = Exponent.finite(pv)
            eigensolver._unit_eigen.cache_clear()
            shot_radii.clear()
            res = first_eigenvalue(p, n, 1.0)
            assert shot_radii == [1.0]
            assert res.lam <= res.rate_bound
            shot_radii.clear()
            for R in (0.5, 1.0, 1.7):
                res = first_eigenvalue(p, n, R)
                assert res.lam <= res.rate_bound
                solve_delta_bvp(p, n, R, 0.5 * res.lam, 1.0)
            assert not shot_radii
            eigensolver._unit_eigen.cache_clear()
            solve_delta_bvp(p, n, 1.7, 0.5 * res.lam, 1.0)
            assert shot_radii == [1.0]
            shot_radii.clear()
            for R in (0.5, 1.7):
                first_eigenvalue(p, n, R)
            assert not shot_radii

    def test_broken_certificate_raises(self, monkeypatch):
        # a planted "bound" at half the true eigenvalue (pi^2/R^2 for p = 2,
        # n = 3): with the unit shot memoized, the check against each
        # radius' own rate fails; without it the shot stays positive on
        # [0, 1].  No silent fallback either way
        p = Exponent.finite(2)
        first_eigenvalue(p, 3, 1.0)
        monkeypatch.setattr(eigensolver, "bracket_rate", lambda p, n, R: 0.5 * PI2 / R ** 2)
        for R in (1.0, 1.7):
            with pytest.raises(ShootingError, match="not an upper bound"):
                first_eigenvalue(p, 3, R)
        eigensolver._unit_eigen.cache_clear()
        with pytest.raises(ShootingError, match="not an upper bound"):
            first_eigenvalue(p, 3, 1.0)
        assert eigensolver._unit_eigen.cache_info().currsize == 0

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("pv", ["2", "2.5", "3", "4", "inf"])
    def test_bracket_rate_is_the_barrier_rate(self, pv, n):
        # one formula: the rate shot at is the one the eigen barrier stores
        p = Exponent.parse(pv)
        for R in (0.5, 1.0, 1.7):
            rate = eigensolver.bracket_rate(p, n, R)
            assert rate.hex() == make_eigen_barrier(p, n, R).derived["rate"].hex()
        for R in (0.0, -1.0, math.nan, math.inf, 1e300):
            with pytest.raises(ConstraintError):
                eigensolver.bracket_rate(p, n, R)
            with pytest.raises(ConstraintError):
                make_eigen_barrier(p, n, R)

    def test_profile_normalized_decreasing(self, eigen_cache):
        res = eigen_cache(3.0, 2, 1.0)
        assert res.psi[0] == pytest.approx(1.0)
        assert np.all(np.diff(res.psi) < 1e-12)
        assert abs(res.psi[-1]) < 1e-4

    @pytest.mark.parametrize("pv", [2.0, 3.0, "inf"])
    def test_profile_elementwise_on_a_matrix(self, eigen_cache, pv):
        # the stretched shot's profile keeps the shape of its radii, as the
        # broadcast (r[:, None], t[None, :]) grid of verify_sign needs
        prof = eigen_cache(pv, 2, 1.0).profile()
        r = np.linspace(0.0, 0.98, 12).reshape(3, 4)
        for f in (prof.value, prof.dr, prof.drr):
            assert np.array_equal(f(r, 0.0), f(r.ravel(), 0.0).reshape(r.shape))

    def test_residual_audit_refines(self, eigen_cache):
        # away from the axis the profile is smooth and the audit is O(h^2);
        # at r = 0 the r^{p/(p-1)} behaviour caps every FD stencil at O(1),
        # so there we only ask for boundedness
        res = eigen_cache(3.0, 2, 1.0)
        shot = res.shot
        norms, full = [], []
        for count in (501, 1001, 2001):
            grid = RadialGrid(1.0, count)
            psi, _ = shot.profile_on(grid)
            audit = elliptic_residual_grid(psi, grid, res.p, res.n, res.lam)
            window = grid.r[1:-1] >= 0.05
            norms.append(np.abs(audit[window]).max())
            full.append(np.abs(audit).max())
        slope = np.polyfit(np.log([1.0 / 500, 1.0 / 1000, 1.0 / 2000]),
                           np.log(norms), 1)[0]
        assert 1.7 <= slope <= 2.3, (norms, slope)
        assert max(full) < 10.0 * res.lam

    @pytest.mark.parametrize("pv, n", [(2.0, 2), (2.5, 3), (3.0, 2), (4.0, 3), ("inf", 2)])
    def test_interior_audit_is_the_window_max(self, eigen_cache, pv, n):
        # residual_norm_interior is the audit over test_residual_audit_refines'
        # window r >= 0.05 R; off p = 2 the axis node sets residual_norm alone
        res = eigen_cache(pv, n, 1.0)
        psi, _ = res.shot.profile_on(res.grid)
        audit = np.abs(elliptic_residual_grid(np.maximum(psi, 0.0), res.grid, res.p, n, res.lam))
        window = res.grid.r[1:-1] >= 0.05
        assert res.residual_norm == audit.max()
        assert res.residual_norm_interior == audit[window].max()
        assert res.to_dict()["residual_norm_interior"] == res.residual_norm_interior
        if pv == 2.0:
            assert res.residual_norm_interior == pytest.approx(res.residual_norm, rel=0.1)
        else:
            assert res.residual_norm_interior < 1e-3 * res.residual_norm

    @pytest.mark.parametrize("R", [0.5, 1.0, 1.7, 3.0])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("pv", [2.0, 2.5, 3.0, 4.0, "inf"])
    def test_unit_shot_stretched_is_the_shot_at_R(self, pv, n, R):
        # the memoized unit eigenpair, stretched, against a shot on B_R
        p = Exponent.parse(pv)
        res = first_eigenvalue(p, n, R)
        lam, psi, dpsi, norm, norm_interior = eigen_at_radius(p, n, R)
        if R == 1.0:  # the same shot, stretched by the same factor
            assert res.lam == lam
            assert res.psi.tobytes() == psi.tobytes() and res.dpsi.tobytes() == dpsi.tobytes()
            assert (res.residual_norm, res.residual_norm_interior) == (norm, norm_interior)
        assert abs(res.lam - lam) <= 1e-9 * lam
        assert np.abs(res.psi - psi).max() <= 1e-9
        assert np.abs(res.dpsi - dpsi).max() <= 1e-9 * np.abs(dpsi).max()

    @pytest.mark.parametrize("R", [0.5, 1.7])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("pv", [2.5, 3.0, 3.5, 4.0])
    def test_rayleigh_quotient_is_the_eigenvalue(self, pv, n, R):
        p = Exponent.finite(pv)
        lam = first_eigenvalue(p, n, R).lam
        assert abs(rayleigh_quotient(p, n, R) - lam) <= 1e-10 * lam

    def test_shared_profile_stays_intact(self):
        p = Exponent.finite(3)
        a, b, c = (first_eigenvalue(p, 2, R) for R in (0.5, 1.0, 1.7))
        for res in (a, b, c):
            assert np.shares_memory(res.psi, a.psi)
            with pytest.raises(ValueError):
                res.psi[0] = res.psi[0]
            with pytest.raises(ValueError):  # frozen at its base, not only in the view
                res.psi.flags.writeable = True
        before = c.dpsi.copy()
        a.dpsi.flags.writeable = True  # a view of a's own array may be thawed
        a.dpsi[:] = 1.0
        assert np.array_equal(c.dpsi, before)
        assert np.array_equal(first_eigenvalue(p, 2, 0.5).dpsi, b.dpsi / 0.5)

    def test_result_frozen(self, eigen_cache):
        res = eigen_cache(2.0, 3, 1.0)
        with pytest.raises(FrozenInstanceError):
            res.lam = 0.0

    def test_profile_arrays_read_only(self, eigen_cache):
        res = eigen_cache(2.0, 3, 1.0)
        for values in (res.psi, res.dpsi):
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = values[0]  # the same value: the shared result stays intact

    def test_serialization(self, eigen_cache, tmp_path):
        res = eigen_cache(2.0, 3, 1.0)
        data = res.to_dict()
        assert data["lambda"] == pytest.approx(PI2, abs=1e-4)
        path = tmp_path / "eig.csv"
        res.to_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "r,psi"
        assert len(rows) == res.grid.count + 1


class TestProfileCsv:
    @staticmethod
    def reference(path, r, values, column):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["r", column])
            for x, v in zip(r, values):
                writer.writerow([f"{x:.17g}", f"{v:.17g}"])

    def test_eigen_bytes_match_csv_writer(self, eigen_cache, tmp_path):
        res = eigen_cache(3.0, 2, 1.0)
        res.to_csv(tmp_path / "eig.csv")
        self.reference(tmp_path / "ref.csv", res.grid.r, res.psi, "psi")
        assert (tmp_path / "eig.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_bvp_bytes_match_csv_writer(self, tmp_path):
        u = np.array([-0.0, 1e-300, 1.0 / 3.0, 1.7976931348623157e308, -2.5e17])
        res = BvpResult(lam=1.0, delta=1.0, grid=RadialGrid(2.0, 5), u=u, du=0.0 * u,
                        M_lambda=1.0, p=Exponent.finite(2), n=2)
        res.to_csv(tmp_path / "bvp.csv")
        self.reference(tmp_path / "ref.csv", res.grid.r, u, "u")
        got = (tmp_path / "bvp.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        assert got.count(b"\r\n") == 6 and b",-0\r\n" in got


class TestScalingLaw:
    @pytest.mark.parametrize("pv,n", [(2.0, 3), (3.0, 2)])
    def test_spread_small(self, pv, n):
        spread = scaling_check(Exponent.finite(pv), n, [0.5, 1.0, 2.0])
        assert spread < 1e-5

    def test_single_radius_zero(self):
        assert scaling_check(Exponent.finite(2), 2, [1.0]) == 0.0

    @settings(max_examples=12, deadline=None)
    @given(pv=st.sampled_from([2.0, 2.5, 3.0, 4.0]), n=st.sampled_from([2, 3]),
           R=st.floats(0.5, 2.0))
    def test_scaling_law_property(self, pv, n, R):
        # both sides from their own shots: the unit shot stretched would only
        # compare the law with itself
        p = Exponent.finite(pv)
        assert eigen_at_radius(p, n, R)[0] * R ** pv == pytest.approx(
            eigen_at_radius(p, n, 1.0)[0], rel=1e-9)

    def test_check_shoots_once_per_radius(self, shot_radii):
        p, radii = Exponent.finite(3), [0.5, 1.0, 2.0]
        for R in radii:
            first_eigenvalue(p, 2, R)
        shot_radii.clear()
        assert scaling_check(p, 2, radii) < 1e-5
        assert shot_radii == radii

    def test_linear_case_constant_is_pi2(self, eigen_cache):
        for R in (0.5, 2.0):
            lam = first_eigenvalue(Exponent.finite(2), 3, R).lam
            assert lam * R ** 2 == pytest.approx(PI2, rel=1e-6)


class TestDeltaBvp:
    def test_small_rate_stays_near_delta(self):
        b = solve_delta_bvp(Exponent.finite(2), 3, 1.0, 1e-4, 1.0)
        assert b.M_lambda == pytest.approx(1.0, abs=1e-3)
        assert np.all(b.u >= 1.0 - 1e-9)

    def test_linear_closed_form(self):
        # p = 2: u = c J0(s r), u' = -c s J1(s r) (n = 2) and u = c j0(s r),
        # u' = -c s j1(s r) with the spherical Bessel functions (n = 3),
        # s = sqrt(lam) and c = M_lambda fitted to u(R) = delta, at every node:
        # the series prefix and the dense rest of the resampled shot
        for n, R, frac in itertools.product((2, 3), (0.5, 1.7), (0.1, 0.5, 0.99)):
            lam = frac * ((J01 / R) ** 2 if n == 2 else PI2 / R ** 2)
            b = solve_delta_bvp(Exponent.finite(2), n, R, lam, 2.0)
            s, r = math.sqrt(lam), b.grid.r
            if n == 2:
                psi, dpsi = j0(s * r), -s * j1(s * r)
            else:
                psi, dpsi = spherical_jn(0, s * r), -s * spherical_jn(1, s * r)
            c = 2.0 / psi[-1]
            assert abs(b.M_lambda - c) <= 1e-9 * c, (n, R, frac)
            for got, want in ((b.u, c * psi), (b.du, c * dpsi)):
                assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max(), (n, R, frac)

    @pytest.mark.parametrize("pv", [2.0, 3.0])
    def test_blow_up_bound(self, pv):
        # lam_R from a shot of its own: M_lambda comes from the memoized unit
        # eigen shot, so the eigen_cache value would share it
        lam_R = eigen_at_radius(Exponent.finite(pv), 2, 1.0)[0]
        delta = 1.0
        expo = 1.0 / (pv - 1.0)
        prev_M = 0.0
        for frac in (0.5, 0.9, 0.99):
            b = solve_delta_bvp(Exponent.finite(pv), 2, 1.0, frac * lam_R, delta)
            bound = delta * lam_R ** expo / (lam_R ** expo - (frac * lam_R) ** expo)
            assert b.M_lambda >= bound - 1e-8
            assert b.M_lambda > prev_M  # blow-up trend
            prev_M = b.M_lambda

    def test_above_eigenvalue_rejected(self, eigen_cache):
        lam_R = eigen_cache(2.0, 3, 1.0).lam
        with pytest.raises(ShootingError) as err:
            solve_delta_bvp(Exponent.finite(2), 3, 1.0, 1.05 * lam_R, 1.0)
        assert "blows up" in str(err.value)

    def test_below_eigenvalue_solvable(self, eigen_cache):
        lam_R = eigen_cache(2.0, 3, 1.0).lam
        b = solve_delta_bvp(Exponent.finite(2), 3, 1.0, 0.95 * lam_R, 1.0)
        assert b.u[-1] == pytest.approx(1.0, abs=1e-8)
        assert np.all(np.diff(b.u) <= 1e-12)

    @settings(max_examples=12, deadline=None)
    @given(pv=st.sampled_from([2.0, 2.5, 3.0, 4.0]), frac=st.floats(0.05, 0.95),
           delta=st.floats(0.1, 10.0), c=st.floats(0.1, 10.0))
    def test_homogeneity_property(self, eigen_cache, pv, frac, delta, c):
        lam = frac * eigen_cache(pv, 2, 1.0).lam
        base = solve_delta_bvp(Exponent.finite(pv), 2, 1.0, lam, delta)
        scaled = solve_delta_bvp(Exponent.finite(pv), 2, 1.0, lam, c * delta)
        assert scaled.M_lambda == pytest.approx(c * base.M_lambda, rel=1e-9)
        for b in (base, scaled):
            assert b.u[-1] == pytest.approx(b.delta, rel=1e-10)

    @pytest.mark.parametrize("R", [0.5, 1.0, 1.7, 3.0])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("pv", [2.0, 2.5, 3.0, 4.0, "inf"])
    def test_dilated_unit_shot_is_the_shot_at_lam(self, pv, n, R):
        # the unit eigen shot dilated to rate lam against a shot at lam on B_R.
        # M = delta / psi_1(R) magnifies a shot's error by 1/(1 - frac) as lam
        # nears lam_R; u and u' are compared over M, the profile's maximum
        p = Exponent.parse(pv)
        lam_R = eigen_at_radius(p, n, R)[0]
        for frac in (1e-4, 0.1, 0.5, 0.9, 0.99):
            b = solve_delta_bvp(p, n, R, frac * lam_R, 2.0)
            M, u, du = delta_bvp_at_radius(p, n, R, frac * lam_R, 2.0)
            tol = 5e-11 / (1.0 - frac)
            assert abs(b.M_lambda - M) <= tol * M
            assert np.abs(b.u - u).max() <= tol * M
            assert np.abs(b.du - du).max() <= tol * M
        # above lam_R by more than the 1e-9 its two shots agree to, with the
        # unit shot memoized and without it
        for cold in (False, True):
            for factor in (1.0 + 1e-8, 1.05):
                if cold:
                    eigensolver._unit_eigen.cache_clear()
                with pytest.raises(ShootingError, match="blows up"):
                    solve_delta_bvp(p, n, R, factor * lam_R, 1.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            solve_delta_bvp(Exponent.finite(2), 3, 1.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            solve_delta_bvp(Exponent.finite(2), 3, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("R, lam, delta", [
        (math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0), (1.0, math.nan, 1.0),
        (1.0, math.inf, 1.0), (1.0, 1.0, math.nan), (1.0, 1.0, math.inf)])
    def test_non_finite_inputs_rejected(self, R, lam, delta):
        # usage errors, not a "blows up" verdict or a nan / inf center value
        with pytest.raises(ValueError, match="finite"):
            solve_delta_bvp(Exponent.finite(3), 2, R, lam, delta)

    @pytest.mark.parametrize("R", [0.5, 1.0, 1.7, 3.0])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("pv", ["2", "2.5", "3", "4", "inf"])
    def test_no_solution_at_the_eigenvalue(self, eigen_cache, pv, n, R):
        # at lam_R the unit shot's trace psi_1(R) is within rounding of 0
        # (at most 2.7e-16, below ATOL), so its sign is not resolved and no
        # center value may come of it; 1e-10 below lam_R it is 2e-11 or more
        p, lam_R = Exponent.parse(pv), eigen_cache(pv, n, R).lam
        with pytest.raises(ShootingError, match="blows up"):
            solve_delta_bvp(p, n, R, lam_R, 1.0)
        assert math.isfinite(solve_delta_bvp(p, n, R, lam_R * (1.0 - 1e-10), 1.0).M_lambda)


class TestEpsilonGain:
    def test_vanishes_with_shift(self):
        b = solve_delta_bvp(Exponent.finite(2), 3, 1.0, 0.5 * PI2, 1.0)
        eps_small = epsilon_gain(b, 1e-6)
        assert eps_small == pytest.approx(0.0, abs=1e-4)

    def test_bounded_by_eigen_gap(self, eigen_cache):
        lam_R = eigen_cache(2.0, 3, 1.0).lam
        lam = 0.5 * lam_R
        b = solve_delta_bvp(Exponent.finite(2), 3, 1.0, lam, 1.0)
        for t in (0.25, 0.5, 0.9):
            eps = epsilon_gain(b, t)
            assert 0.0 < eps <= lam_R - lam + 1e-9

    def test_closed_form_profile_verifies(self):
        # linear case: the residual check runs against the exact relation
        b = solve_delta_bvp(Exponent.finite(2), 3, 1.0, 0.6 * PI2, 2.0)
        eps = epsilon_gain(b, 0.7, slack=1e-8)
        assert eps > 0.0

    def test_shift_range_enforced(self):
        b = solve_delta_bvp(Exponent.finite(2), 3, 1.0, 0.5 * PI2, 1.0)
        with pytest.raises(ValueError):
            epsilon_gain(b, 1.5)


class TestQuotientComparison:
    def test_equal_profiles_trivial(self):
        u = np.linspace(2.0, 1.0, 11)
        out = quotient_comparison_check(u, u, 1.0, 2.0)
        assert out["ok"]
        assert out["interior_max"] == pytest.approx(out["boundary_value"])

    def test_two_bvp_profiles(self, eigen_cache):
        lam_R = eigen_cache(2.0, 3, 1.0).lam
        small = solve_delta_bvp(Exponent.finite(2), 3, 1.0, 0.3 * lam_R, 1.0)
        large = solve_delta_bvp(Exponent.finite(2), 3, 1.0, 0.8 * lam_R, 1.0)
        out = quotient_comparison_check(small.u, large.u, 0.3 * lam_R, 0.8 * lam_R)
        assert out["ok"]
        assert out["interior_max"] <= out["boundary_value"] + 1e-8

    def test_near_eigen_denominator_strict_interior(self, eigen_cache):
        lam_R = eigen_cache(2.0, 3, 1.0).lam
        small = solve_delta_bvp(Exponent.finite(2), 3, 1.0, 0.2 * lam_R, 1.0)
        near = solve_delta_bvp(Exponent.finite(2), 3, 1.0, 0.97 * lam_R, 1.0)
        out = quotient_comparison_check(small.u, near.u, 0.2 * lam_R, 0.97 * lam_R)
        assert out["ok"]
        assert out["interior_max"] < out["boundary_value"]  # strict inside

    def test_order_enforced(self):
        u = np.linspace(2.0, 1.0, 5)
        with pytest.raises(ValueError):
            quotient_comparison_check(u, u, 2.0, 1.0)


class TestBvpSerialization:
    def test_profile_arrays_read_only(self):
        b = solve_delta_bvp(Exponent.finite(2), 3, 1.0, 0.5 * PI2, 1.0)
        for values in (b.u, b.du):
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 0.0

    def test_json_and_csv(self, tmp_path):
        b = solve_delta_bvp(Exponent.finite(2), 3, 1.0, 0.5 * PI2, 1.0)
        data = b.to_dict()
        assert data["M_lambda"] == pytest.approx(b.M_lambda)
        path = tmp_path / "bvp.csv"
        b.to_csv(path)
        assert path.read_text().splitlines()[0] == "r,u"


class TestInfinity:
    """The infinity branch (g, k, d) = (4, 3, 1) through the same shot."""

    def test_oracle_is_the_closed_form(self):
        assert interval_eigenvalue(2.0, 1.0) == pytest.approx(PI2, rel=1e-15)
        for R in (0.5, 1.0, 1.7):
            assert infinity_eigenvalue(R) == pytest.approx(math.pi ** 4 / (64 * R ** 4),
                                                           rel=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("R", [0.5, 1.0, 1.7])
    def test_eigenvalue_matches_oracle(self, eigen_cache, n, R):
        res = eigen_cache("inf", n, R)
        assert abs(res.lam - infinity_eigenvalue(R)) <= 1e-8 * infinity_eigenvalue(R)
        assert res.lam <= res.rate_bound
        assert res.psi[0] == 1.0 and abs(res.psi[-1]) < 1e-6

    def test_profile_solves_the_law(self, eigen_cache):
        # the axis value comes from the series coefficient, which must be
        # taken at the shot's rate k lam: lam alone leaves 2 lam/3 there
        res = eigen_cache("inf", 2, 1.0)
        prof = res.profile()
        r = np.array([0.0, 0.05, 0.2, 0.5, 0.8, 0.95])
        resid = eval_radial_operator(prof, INFINITY, 2, r) + res.lam * prof.value(r, 0.0) ** 3
        assert np.abs(resid).max() < 1e-8 * res.lam

    def test_delta_bvp_and_gain(self, eigen_cache):
        lam_R = eigen_cache("inf", 2, 1.0).lam
        base = solve_delta_bvp(INFINITY, 2, 1.0, 0.5 * lam_R, 1.0)
        scaled = solve_delta_bvp(INFINITY, 2, 1.0, 0.5 * lam_R, 2.0)
        assert base.u[-1] == pytest.approx(1.0, rel=1e-10)
        assert scaled.M_lambda == pytest.approx(2.0 * base.M_lambda, rel=1e-9)
        assert 0.0 < epsilon_gain(base, 0.5) < lam_R
        with pytest.raises(ShootingError):
            solve_delta_bvp(INFINITY, 2, 1.0, 1.01 * lam_R, 1.0)
