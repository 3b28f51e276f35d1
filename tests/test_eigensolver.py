"""Shooting eigensolver and the delta-boundary problem.

Oracles: the linear case p = 2 has closed forms (sin(pi r)/(pi r) in three
dimensions; the first Bessel J0 zero in two), built here independently of the
solver before asserting against it.  For every p the shot is also checked
against scipy's general-purpose `solve_ivp(method="DOP853")` run here on its
own right-hand side, and the stepper against cos r.
"""

import csv
import json
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from trudlab import eigensolver
from trudlab.eigensolver import (
    BvpResult,
    ShootingError,
    elliptic_residual_grid,
    epsilon_gain,
    first_eigenvalue,
    quotient_comparison_check,
    scaling_check,
    shoot_radial,
    solve_delta_bvp,
)
from trudlab.exponent import INFINITY, Exponent
from trudlab.grids import RadialGrid

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


J01 = bessel_j0_first_zero()


class TestShootRadial:
    def test_linear_case_matches_sinc(self):
        sh = shoot_radial(Exponent.finite(2), 3, 1.2, PI2)
        assert sh.first_zero == pytest.approx(1.0, abs=1e-6)
        rr = np.linspace(0.05, 0.95, 19)
        exact = np.sin(np.pi * rr) / (np.pi * rr)
        assert np.abs(sh.sol(rr)[0] - exact).max() < 1e-8

    def test_zero_rate_constant(self):
        sh = shoot_radial(Exponent.finite(3), 2, 1.0, 0.0, psi0=0.7)
        assert sh.first_zero is None
        assert np.all(sh.sol(np.linspace(0.0, 1.0, 513))[0] == 0.7)

    def test_bessel_zero_oracle(self):
        lam = J01 ** 2
        sh = shoot_radial(Exponent.finite(2), 2, 1.2, lam)
        assert sh.first_zero == pytest.approx(1.0, abs=1e-4)

    def test_infinity_rejected(self):
        with pytest.raises(ValueError):
            shoot_radial(INFINITY, 2, 1.0, 1.0)

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_dimension_below_two_rejected(self, n):
        with pytest.raises(ValueError, match="dimension"):
            shoot_radial(Exponent.finite(3), n, 1.0, 1.0)


RTOL, ATOL = 1e-11, 1e-13  # shoot_radial's tolerances


def reference_ivp(pv, n, R, lam, events=None):
    """solve_ivp's DOP853 from the axis series at h0 = 1e-6 R, numpy right-hand side."""
    h0 = 1e-6 * R
    C = (lam / n) ** (1.0 / (pv - 1.0)) * (pv - 1.0) / pv
    y0 = [1.0 - C * h0 ** (pv / (pv - 1.0)), -lam * h0 / n]

    def rhs(r, y):
        psi, w = y
        return [np.sign(w) * np.abs(w) ** (1.0 / (pv - 1.0)),
                -lam * np.abs(psi) ** (pv - 2.0) * psi - (n - 1.0) * w / r]

    return solve_ivp(rhs, (h0, R), y0, method="DOP853", rtol=RTOL, atol=ATOL,
                     dense_output=True, events=events)


def downward_zero(r, y):
    return y[0]


downward_zero.terminal = True
downward_zero.direction = -1


class TestAgainstSolveIvp:
    """The plain-float stepper against solve_ivp at the same tolerances."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("pv", [2.0, 2.5, 3.0, 4.0])
    def test_first_zero_at_barrier_rate(self, pv, n):
        R = 1.0
        rate = eigensolver.bracket_rate(Exponent.finite(pv), n, R)
        ref = reference_ivp(pv, n, R, rate, events=downward_zero)
        shot = shoot_radial(Exponent.finite(pv), n, R, rate)
        assert ref.t_events[0].size == 1
        assert shot.first_zero == pytest.approx(ref.t_events[0][0], rel=1e-12, abs=0)
        assert shot.r_end == shot.first_zero

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("pv", [2.0, 2.5, 3.0, 4.0])
    def test_trace_and_dense_solution_below_eigenvalue(self, eigen_cache, pv, n):
        R = 1.0
        lam = 0.7 * eigen_cache(pv, n, R).lam
        ref = reference_ivp(pv, n, R, lam)
        shot = shoot_radial(Exponent.finite(pv), n, R, lam)
        assert shot.first_zero is None and shot.r_end == R
        assert float(shot.sol(R)[0]) == pytest.approx(ref.y[0, -1], rel=1e-10, abs=0)
        r = np.linspace(1e-6 * R, R, 513)
        got, want = shot.sol(r), ref.sol(r)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("pv", [2.0, 2.5, 3.0, 4.0])
    def test_same_accepted_steps(self, eigen_cache, monkeypatch, pv, n):
        # the step control is solve_ivp's: the same accepted steps, up to one,
        # for the eigenvalue shot (stopped at its zero) and a delta-BVP shot
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
            shoot_radial(Exponent.finite(pv), n, R, rate_)
            assert abs(steps[-1] - (len(reference_ivp(pv, n, R, rate_, events).t) - 1)) <= 1


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
        # psi'' = -(1 + k r^2) psi rejects steps; the right-hand-side calls
        # (initial-step rule, rejected tries, dense-output stages) match nfev
        calls = []

        def rhs(r, psi, w):
            calls.append(r)
            return w, -(1.0 + k * r * r) * psi

        ts, _, zero = eigensolver._dop853(rhs, 0.0, (1.0, 0.0), 3.0, RTOL, ATOL)
        ref = solve_ivp(lambda r, y: [y[1], -(1.0 + k * r * r) * y[0]], (0.0, 3.0),
                        [1.0, 0.0], method="DOP853", rtol=RTOL, atol=ATOL,
                        dense_output=True, events=downward_zero)
        assert len(calls) > 2 + 15 * (len(ts) - 1)  # some steps were rejected
        assert abs(len(ts) - len(ref.t)) <= 1 and abs(len(calls) - ref.nfev) <= 27
        assert zero == pytest.approx(ref.t_events[0][0], rel=1e-12, abs=0)

    @pytest.mark.parametrize("bad_from", [0.0, 0.5])
    def test_nan_right_hand_side_raises(self, bad_from):
        def rhs(r, psi, w):
            return (math.nan, math.nan) if r >= bad_from else (w, -psi)

        with pytest.raises(ShootingError, match="step size too small"):
            eigensolver._dop853(rhs, 0.0, (1.0, 0.0), 3.0, RTOL, ATOL)


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

    def test_one_shot_per_call(self, monkeypatch):
        # the scaling law and the homogeneity replace any search: at most two
        # integrations per eigenvalue and exactly one per delta-BVP
        calls = []
        real = eigensolver.shoot_radial

        def counting(*args, **kw):
            calls.append(args)
            return real(*args, **kw)

        monkeypatch.setattr(eigensolver, "shoot_radial", counting)
        for pv, n in ((2.0, 3), (3.0, 2), (4.0, 3)):
            calls.clear()
            res = first_eigenvalue(Exponent.finite(pv), n, 1.0)
            assert 1 <= len(calls) <= 2
            assert res.lam <= res.rate_bound
            calls.clear()
            solve_delta_bvp(Exponent.finite(pv), n, 1.0, 0.5 * res.lam, 1.0)
            assert len(calls) == 1

    def test_broken_certificate_raises(self, monkeypatch):
        # a planted "bound" at half the true eigenvalue (pi^2 for p = 2,
        # n = 3) leaves the shot positive on [0, R]: no silent fallback
        monkeypatch.setattr(eigensolver, "bracket_rate", lambda p, n, R: 0.5 * PI2)
        with pytest.raises(ShootingError, match="not an upper bound"):
            first_eigenvalue(Exponent.finite(2), 3, 1.0)

    def test_profile_normalized_decreasing(self, eigen_cache):
        res = eigen_cache(3.0, 2, 1.0)
        assert res.psi[0] == pytest.approx(1.0)
        assert np.all(np.diff(res.psi) < 1e-12)
        assert abs(res.psi[-1]) < 1e-4

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

    def test_infinity_out_of_scope(self):
        with pytest.raises(ValueError):
            first_eigenvalue(INFINITY, 2, 1.0)

    def test_result_frozen(self, eigen_cache):
        res = eigen_cache(2.0, 3, 1.0)
        with pytest.raises(FrozenInstanceError):
            res.lam = 0.0

    def test_serialization(self, eigen_cache, tmp_path):
        res = eigen_cache(2.0, 3, 1.0)
        data = json.loads(res.to_json())
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
    def test_scaling_law_property(self, eigen_cache, pv, n, R):
        unit = eigen_cache(pv, n, 1.0).lam
        lam = first_eigenvalue(Exponent.finite(pv), n, R).lam
        assert lam * R ** pv == pytest.approx(unit, rel=1e-9)

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
        # u = c sin(sqrt(lam) r)/(sqrt(lam) r) fitted to u(1) = delta
        lam = 0.5 * PI2
        b = solve_delta_bvp(Exponent.finite(2), 3, 1.0, lam, 1.0)
        s = math.sqrt(lam)
        c = 1.0 / (math.sin(s) / s)
        rr = np.linspace(0.01, 1.0, 41)
        exact = c * np.sin(s * rr) / (s * rr)
        approx = np.interp(rr, b.grid.r, b.u)
        assert np.abs(approx - exact).max() < 1e-6

    @pytest.mark.parametrize("pv", [2.0, 3.0])
    def test_blow_up_bound(self, pv, eigen_cache):
        lam_R = eigen_cache(pv, 2, 1.0).lam
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

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            solve_delta_bvp(Exponent.finite(2), 3, 1.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            solve_delta_bvp(Exponent.finite(2), 3, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            solve_delta_bvp(INFINITY, 3, 1.0, 1.0, 1.0)


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
    def test_json_and_csv(self, tmp_path):
        b = solve_delta_bvp(Exponent.finite(2), 3, 1.0, 0.5 * PI2, 1.0)
        data = json.loads(b.to_json())
        assert data["M_lambda"] == pytest.approx(b.M_lambda)
        path = tmp_path / "bvp.csv"
        b.to_csv(path)
        assert path.read_text().splitlines()[0] == "r,u"
