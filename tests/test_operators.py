"""Operator evaluation on closed-form profiles and grid fields.

Frozen values come from hand differentiation of the radial forms:
Delta_p u = |u'|^{p-2}((p-1)u'' + (n-1)u'/r), Delta_inf u = (u')^2 u''.
Both are one `eval_radial_operator` of the exponent law; the hand-written
infinity formulas below check the law at (g, k, d) = (4, 3, 1).
"""

import numpy as np
import pytest

from trudlab.barriers import make_family
from trudlab.exponent import INFINITY, Exponent
from trudlab.grids import RadialGrid, SpaceTimeField
from trudlab.operators import (
    DomainError,
    EvaluationError,
    PowerOrigin,
    RadialProfile,
    SpaceTimeFunction,
    eval_radial_operator,
    fd_residual_on_field,
    log_form_residual_grid,
    log_transform_consistency,
    trudinger_residual_grid,
)
from trudlab.operators import AUDIT_BLOCK_BYTES, _spatial_terms


def power_profile(gamma, R=10.0, coeff=1.0):
    return RadialProfile(
        value=lambda r: coeff * r ** gamma,
        d1=lambda r: coeff * gamma * r ** (gamma - 1.0),
        d2=lambda r: coeff * gamma * (gamma - 1.0) * r ** (gamma - 2.0),
        R=R,
        origin=PowerOrigin(gamma, coeff),
    )


def heat_kernel(n):
    K = lambda r, t: t ** (-n / 2) * np.exp(-(r ** 2) / (4 * t))
    return SpaceTimeFunction(
        value=K,
        dr=lambda r, t: K(r, t) * (-r / (2 * t)),
        drr=lambda r, t: K(r, t) * ((r / (2 * t)) ** 2 - 1 / (2 * t)),
        dt=lambda r, t: K(r, t) * (-n / (2 * t) + r ** 2 / (4 * t ** 2)),
    )


class TestPLaplacianRadial:
    def test_distinguished_power_is_constant(self):
        # Delta_p r^{p/(p-1)} = n (p/(p-1))^{p-1}, at the axis included
        p = Exponent.finite(3)
        prof = power_profile(p.power_exponent)
        for r in [0.0, 0.3, 1.0, 5.0]:
            assert eval_radial_operator(prof, p, 2, r) == pytest.approx(4.5, abs=1e-12)

    @pytest.mark.parametrize("pv", [2.0, 2.5, 3.0, 4.0])
    @pytest.mark.parametrize("n", [2, 3])
    def test_power_constant_sweep(self, pv, n):
        p = Exponent.finite(pv)
        beta = p.power_exponent
        expected = n * beta ** (pv - 1.0)
        prof = power_profile(beta)
        r = np.linspace(0.0, 2.0, 13)
        vals = eval_radial_operator(prof, p, n, r)
        assert np.allclose(vals, expected, rtol=1e-12)

    def test_quadratic_gives_2n(self):
        prof = RadialProfile(lambda r: r ** 2, lambda r: 2.0 * r,
                             lambda r: 2.0 + 0.0 * np.asarray(r), R=5.0)
        for n in (2, 3, 5):
            assert eval_radial_operator(prof, Exponent.finite(2), n, 0.7) == pytest.approx(2 * n)
            assert eval_radial_operator(prof, Exponent.finite(2), n, 0.0) == pytest.approx(2 * n)

    def test_radial_p_harmonic_profiles(self):
        # r^{(p-n)/(p-1)} is p-harmonic away from the origin (p != n)
        for pv, n in [(4.0, 2), (3.0, 2), (2.5, 3), (4.0, 3)]:
            g = (pv - n) / (pv - 1.0)
            prof = power_profile(g, R=2.0)
            r = np.linspace(0.1, 1.0, 50)
            vals = eval_radial_operator(prof, Exponent.finite(pv), n, r)
            assert np.abs(vals).max() < 1e-9

    def test_log_profile_n_harmonic(self):
        # Delta_p log r = 0 when p = n
        prof = RadialProfile(lambda r: np.log(r), lambda r: 1.0 / r,
                             lambda r: -1.0 / r ** 2, R=2.0)
        for n in (2, 3):
            r = np.linspace(0.1, 1.0, 50)
            vals = eval_radial_operator(prof, Exponent.finite(n), n, r)
            assert np.abs(vals).max() < 1e-9

    def test_constant_profile_zero(self):
        prof = RadialProfile(lambda r: 3.0 + 0 * np.asarray(r),
                             lambda r: 0.0 * np.asarray(r),
                             lambda r: 0.0 * np.asarray(r), R=1.0)
        assert eval_radial_operator(prof, Exponent.finite(2.5), 3, 0.4) == 0.0

    def test_domain_and_exponent_errors(self):
        prof = power_profile(1.5, R=1.0)
        with pytest.raises(DomainError):
            eval_radial_operator(prof, Exponent.finite(3), 2, 1.5)
        with pytest.raises(DomainError):
            eval_radial_operator(prof, Exponent.finite(3), 2, -0.1)
        with pytest.raises(ValueError):
            Exponent.finite(1.5)

    def test_subcritical_power_unbounded_at_axis(self):
        prof = power_profile(1.1)
        with pytest.raises(EvaluationError):
            eval_radial_operator(prof, Exponent.finite(4), 2, 0.0)


class TestInfLaplacianRadial:
    def test_four_thirds_power(self):
        prof = power_profile(4.0 / 3.0)
        for r in [0.0, 0.5, 2.0]:
            for n in (2, 3):
                assert eval_radial_operator(prof, INFINITY, n, r) == pytest.approx(
                    64.0 / 81.0, rel=1e-12)

    def test_linear_profile_zero(self):
        prof = RadialProfile(lambda r: np.asarray(r, float),
                             lambda r: 1.0 + 0 * np.asarray(r),
                             lambda r: 0.0 * np.asarray(r), R=3.0)
        assert eval_radial_operator(prof, INFINITY, 2, 1.3) == 0.0

    def test_quadratic_at_one(self):
        prof = RadialProfile(lambda r: r ** 2, lambda r: 2.0 * r,
                             lambda r: 2.0 + 0 * np.asarray(r), R=3.0)
        assert eval_radial_operator(prof, INFINITY, 3, 1.0) == pytest.approx(8.0)


class TestParabolicResiduals:
    def test_positive_constant_is_stationary(self):
        u = SpaceTimeFunction(lambda r, t: 4.0 + 0 * np.asarray(r) + 0 * np.asarray(t),
                              lambda r, t: 0.0 * np.asarray(r),
                              lambda r, t: 0.0 * np.asarray(r),
                              lambda r, t: 0.0 * np.asarray(r))
        for p in (Exponent.finite(2), Exponent.finite(3.5), INFINITY):
            assert trudinger_residual_grid(u, p, 3, 0.4, 1.0)[0][0] == 0.0
            assert log_form_residual_grid(u, p, 3, 0.4, 1.0)[0][0] == 0.0

    def test_heat_kernel_annihilated(self):
        K = heat_kernel(2)
        assert abs(trudinger_residual_grid(K, Exponent.finite(2), 2, 1.0, 1.0)[0][0]) < 1e-12

    def test_linear_in_time_log_form(self):
        a = 0.7
        v = SpaceTimeFunction(lambda r, t: a * np.asarray(t) + 0 * np.asarray(r),
                              lambda r, t: 0.0 * np.asarray(r),
                              lambda r, t: 0.0 * np.asarray(r),
                              lambda r, t: a + 0 * np.asarray(r))
        res = log_form_residual_grid(v, Exponent.finite(3), 2, 0.3, 0.5)[0][0]
        assert res == pytest.approx(-2 * a)

    def test_infinity_matches_hand_formula(self):
        # u = exp(r^2 + t): Delta_inf u - 3u^2 u_t and, for v = r^2 + t,
        # Delta_inf v + |Dv|^4 - 3v_t, written out by hand; no dimension enters
        e = lambda r, t: np.exp(r ** 2 + t)
        u = SpaceTimeFunction(e, lambda r, t: 2 * r * e(r, t),
                              lambda r, t: (2 + 4 * r ** 2) * e(r, t), e)
        v = SpaceTimeFunction(lambda r, t: r ** 2 + t, lambda r, t: 2 * r,
                              lambda r, t: 2.0 + 0 * r, lambda r, t: 1.0 + 0 * r)
        for r, t in [(0.3, 0.2), (1.1, 0.7)]:
            ur, urr, uu = 2 * r * e(r, t), (2 + 4 * r ** 2) * e(r, t), e(r, t)
            want_u = ur ** 2 * urr - 3 * uu ** 2 * uu
            want_v = (2 * r) ** 2 * 2 + (2 * r) ** 4 - 3
            for n in (2, 3):
                assert trudinger_residual_grid(u, INFINITY, n, r, t)[0][0] == pytest.approx(
                    want_u, rel=1e-12)
                assert log_form_residual_grid(v, INFINITY, n, r, t)[0][0] == pytest.approx(
                    want_v, rel=1e-12)


def profile_at(u, t):
    """The radial profile u(., t) with its scalar-time axis coefficient."""
    origin = None
    if u.origin_exponent is not None:
        origin = PowerOrigin(u.origin_exponent, float(u.origin_coefficient(t)))
    return RadialProfile(value=lambda r: u.value(r, t), d1=lambda r: u.dr(r, t),
                         d2=lambda r: u.drr(r, t), R=u.R, origin=origin)


class TestAxisColumn:
    """The r = 0 samples of a residual grid are evaluated in one pass over t."""

    @pytest.mark.parametrize("p", [Exponent.finite(2), Exponent.finite(3), INFINITY],
                             ids=["p2", "p3", "inf"])
    @pytest.mark.parametrize("family", ["kernel", "eigen", "power"])
    def test_column_matches_per_point(self, family, p):
        spec = make_family(family, p, 2, {})
        t = np.linspace(spec.t_start + 0.05, 2.0, 40)
        column, *_ = _spatial_terms(spec.phi, p, 2, 0.0, t)
        per_point = [eval_radial_operator(profile_at(spec.phi, float(s)), p, 2, 0.0) for s in t]
        # callbacks evaluated on an array of times may round in the last
        # place differently from the same callbacks on one scalar time
        np.testing.assert_allclose(column, per_point, rtol=1e-14, atol=0.0)

    def test_subcritical_power_still_raises(self):
        # c(t) r^1.2 at p = 3: 1.2 < p/(p-1), the operator blows up on the axis
        u = SpaceTimeFunction(
            value=lambda r, t: (1.0 + t) * r ** 1.2,
            dr=lambda r, t: 1.2 * (1.0 + t) * r ** 0.2,
            drr=lambda r, t: 0.24 * (1.0 + t) * r ** -0.8,
            dt=lambda r, t: r ** 1.2 + 0.0 * t,
            origin_exponent=1.2, origin_coefficient=lambda t: 1.0 + t)
        with pytest.raises(EvaluationError):
            trudinger_residual_grid(u, Exponent.finite(3), 2,
                                    np.array([0.5, 0.0]), np.array([1.0, 2.0]))


class TestLogTransformConsistency:
    def setup_method(self):
        e = lambda r, t: np.exp(np.asarray(r) ** 2 + np.asarray(t))
        self.u = SpaceTimeFunction(
            value=e,
            dr=lambda r, t: 2 * np.asarray(r) * e(r, t),
            drr=lambda r, t: (2 + 4 * np.asarray(r) ** 2) * e(r, t),
            dt=e,
        )
        rng = np.random.default_rng(7)
        self.pts = (rng.uniform(0.05, 1.5, 100), rng.uniform(0.1, 1.5, 100))

    def test_exponential_all_branches(self):
        for p in (Exponent.finite(2), Exponent.finite(3), INFINITY):
            dev = log_transform_consistency(self.u, p, 2, self.pts)
            assert dev < 1e-8

    def test_constant_exact(self):
        one = SpaceTimeFunction(lambda r, t: 1.0 + 0 * np.asarray(r) + 0 * np.asarray(t),
                                lambda r, t: 0.0 * np.asarray(r),
                                lambda r, t: 0.0 * np.asarray(r),
                                lambda r, t: 0.0 * np.asarray(r))
        assert log_transform_consistency(one, Exponent.finite(3), 2, self.pts) == 0.0

    def test_heat_kernel(self):
        dev = log_transform_consistency(heat_kernel(2), Exponent.finite(2), 2, self.pts)
        assert dev < 1e-8

    def test_positivity_enforced(self):
        w = SpaceTimeFunction(lambda r, t: np.asarray(r) - 1.0 + 0 * np.asarray(t),
                              lambda r, t: 1.0 + 0 * np.asarray(r),
                              lambda r, t: 0.0 * np.asarray(r),
                              lambda r, t: 0.0 * np.asarray(r))
        with pytest.raises(EvaluationError):
            log_transform_consistency(w, Exponent.finite(2), 2, self.pts)


class TestFieldResidual:
    def test_constant_field_zero(self):
        grid = RadialGrid(1.0, 11)
        field = SpaceTimeField(np.ones((5, 11)), grid, np.linspace(0, 1, 5))
        res = fd_residual_on_field(field, Exponent.finite(3), 2)
        assert np.abs(res).max() == 0.0

    def test_too_small_grid_rejected(self):
        grid = RadialGrid(1.0, 3)
        field = SpaceTimeField(np.ones((1, 3)), grid, np.array([0.0]))
        with pytest.raises(DomainError):
            fd_residual_on_field(field, Exponent.finite(2), 2)

    def test_heat_kernel_richardson(self):
        # dt proportional to h^2: the residual shrinks ~4x per halving of h
        n = 2
        K = lambda r, t: t ** (-n / 2) * np.exp(-(r ** 2) / (4 * t))
        maxima = []
        for h in (4e-3, 2e-3, 1e-3):
            grid = RadialGrid(1.0, int(round(1.0 / h)) + 1)
            dt = 100 * h ** 2
            times = 0.5 + np.arange(4) * dt
            field = SpaceTimeField(K(grid.r[None, :], times[:, None]), grid, times)
            res = fd_residual_on_field(field, Exponent.finite(2), n)
            maxima.append(np.abs(res).max())
        ratios = [maxima[i] / maxima[i + 1] for i in range(2)]
        assert all(3.3 < r < 4.8 for r in ratios), ratios

    def test_spatial_consistency_order_away_from_axis(self):
        # time-constant field: the residual reduces to the discrete Delta_p
        p = Exponent.finite(3)
        n = 2
        prof = RadialProfile(lambda r: np.cos(r) + 2.0, lambda r: -np.sin(r),
                             lambda r: -np.cos(r), R=1.0)
        errs, hs = [], []
        for count in (51, 101, 201, 401):
            grid = RadialGrid(1.0, count)
            vals = np.tile(prof.value(grid.r), (2, 1))
            field = SpaceTimeField(vals, grid, np.array([0.0, 1.0]))
            res = fd_residual_on_field(field, p, n)[0]
            exact = eval_radial_operator(prof, p, n, grid.r[:-1])
            window = (grid.r[:-1] >= 0.2)
            errs.append(np.abs(res - exact)[window].max())
            hs.append(grid.h)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.8 <= slope <= 2.2, slope


def whole_field_audit(values, times, R, p, n):
    """The FD audit of a whole (levels, nodes) field in one pass, written out
    here in the audit's operation order: the reference of the level blocks."""
    count = values.shape[1]
    h, r = R / (count - 1), np.linspace(0.0, R, count)
    v = values[1:]
    spatial = np.empty((v.shape[0], count - 1))
    q0 = (v[:, 1] - v[:, 0]) / h
    ur = (v[:, 2:] - v[:, :-2]) / (2.0 * h)
    urr = (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / h ** 2
    ut = (values[1:, :-1] - values[:-1, :-1]) / np.diff(times)[:, None]
    uval = values[1:, :-1]
    if p == np.inf:
        spatial[:, 0] = (2.0 / h) * (q0 ** 3 / 3.0)
        spatial[:, 1:] = ur ** 2 * urr
        return spatial - 3.0 * uval ** 2 * ut
    if p == 2.0:
        spatial[:, 0] = (2.0 * n / h) * q0
        spatial[:, 1:] = np.ones_like(ur) * ((p - 1.0) * urr + (n - 1.0) * ur / r[1:-1])
        return spatial - (p - 1.0) * np.ones_like(uval) * ut
    spatial[:, 0] = (2.0 * n / h) * (np.abs(q0) ** (p - 2.0) * q0)
    spatial[:, 1:] = np.abs(ur) ** (p - 2.0) * ((p - 1.0) * urr + (n - 1.0) * ur / r[1:-1])
    return spatial - (p - 1.0) * np.abs(uval) ** (p - 2.0) * ut


class TestFieldResidualBlocks:
    """`fd_residual_on_field` runs in level blocks; every entry equals the
    whole-field evaluation bit for bit, at every cut between blocks."""

    COUNT = 41
    BLOCK = AUDIT_BLOCK_BYTES // (8 * COUNT)  # audited levels per block

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("pv", [2.0, 2.5, 3.0, 4.0, np.inf])
    @pytest.mark.parametrize("shape", [(2, COUNT), (BLOCK - 1, COUNT), (BLOCK, COUNT),
                                       (BLOCK + 1, COUNT), (BLOCK + 2, COUNT), (201, 401)],
                             ids=["2", "block-1", "block", "block+1", "block+2", "201x401"])
    def test_blocks_match_whole_field(self, pv, n, shape):
        levels, count = shape
        rng = np.random.default_rng([levels, count])
        grid = RadialGrid(1.3, count)
        # uneven steps and rough positive data, so no entry is zero by symmetry
        times = np.cumsum(rng.uniform(1e-3, 4e-3, levels))
        values = (1.0 + 0.5 * np.cos(2.0 * grid.r))[None, :] * np.exp(-times)[:, None]
        values = values + 0.01 * rng.uniform(-1.0, 1.0, shape)
        p = INFINITY if pv == np.inf else Exponent.finite(pv)
        res = fd_residual_on_field(SpaceTimeField(values, grid, times), p, n)
        assert np.array_equal(res, whole_field_audit(values, times, 1.3, pv, n))
