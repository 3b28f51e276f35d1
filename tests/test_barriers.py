"""Barrier catalog: derived constants, traces, sign verdicts, consistency.

Frozen constants were computed by hand from the closed forms (and double
checked with an independent arithmetic script where noted in comments).
"""


import dataclasses

import numpy as np
import pytest

from trudlab.barriers import (
    CATALOG_FAMILIES,
    DEFAULT_SEED,
    ConstraintError,
    Family,
    Verdict,
    default_catalog,
    growth_barrier_max_b,
    make_boundary_barrier,
    make_eigen_barrier,
    make_flattening_lower,
    make_family,
    make_flattening_upper,
    make_growth_barrier,
    make_kernel,
    make_paraboloid,
    make_power_solution,
    separated_solution,
    verify_sign,
)
from trudlab.exponent import INFINITY, Exponent
from trudlab.grids import RadialGrid
from trudlab.operators import (
    SpaceTimeFunction,
    fd_laplacian_grid,
    fd_residual_on_field,
    log_form_residual_grid,
    log_transform_consistency,
    trudinger_residual_grid,
)

P_SWEEP = [Exponent.finite(2), Exponent.finite(2.5), Exponent.finite(3),
           Exponent.finite(4), INFINITY]


def verdict_matches(report, expected):
    if report.verdict == expected:
        return True
    # an exact solution also certifies either one-sided claim
    return report.verdict == Verdict.SOLUTION and expected in (
        Verdict.SUBSOLUTION, Verdict.SUPERSOLUTION)


class TestEigenBarrier:
    def test_derived_constants_p2_n2(self):
        # k=2, alpha=5/2, theta^2=2/3, rate = 2*(5/(1/3)) = 30
        s = make_eigen_barrier(Exponent.finite(2), 2, 1.0)
        assert s.derived["k"] == 2.0
        assert s.derived["alpha"] == pytest.approx(2.5)
        assert s.derived["theta2"] == pytest.approx(2.0 / 3.0)
        assert s.derived["rate"] == pytest.approx(30.0)

    def test_infinity_rate(self):
        s = make_eigen_barrier(INFINITY, 2, 2.0)
        assert s.derived["rate"] == pytest.approx(2.0 ** 8 / 2.0 ** 4)  # 16

    def test_unit_value_at_origin(self):
        for p in P_SWEEP:
            s = make_eigen_barrier(p, 2, 1.0)
            assert s.value(0.0, 0.0) == pytest.approx(1.0)
            assert s.value(1.0, 0.7) == pytest.approx(0.0, abs=1e-30)

    def test_invalid_radius(self):
        with pytest.raises(ConstraintError):
            make_eigen_barrier(Exponent.finite(2), 2, -1.0)


class TestGrowthBarrier:
    def test_admissible_bound_and_amplitude(self):
        # p=2, n=2, alpha=1, T=1: constraint 16 b < 1, a = 4b/2
        assert growth_barrier_max_b(Exponent.finite(2), 1.0, 1.0) == pytest.approx(1.0 / 16.0)
        s = make_growth_barrier(Exponent.finite(2), 2, T=1.0, alpha=1.0, b=1.0 / 17.0)
        assert s.derived["a"] == pytest.approx(2.0 / 17.0)

    def test_unit_value_at_origin(self):
        s = make_growth_barrier(Exponent.finite(3), 2, T=1.0, alpha=1.0, b=0.1)
        assert s.value(0.0, 0.0) == pytest.approx(1.0)
        si = make_growth_barrier(INFINITY, 2, T=1.0, alpha=0.5, b=0.2)
        assert si.value(0.0, 0.0) == pytest.approx(1.0)

    def test_boundary_b_rejected(self):
        b_max = growth_barrier_max_b(Exponent.finite(2), 1.0, 1.0)
        with pytest.raises(ConstraintError) as err:
            make_growth_barrier(Exponent.finite(2), 2, T=1.0, alpha=1.0, b=b_max)
        assert f"{b_max:.12g}" in str(err.value)

    def test_tiny_b_rounds_a_to_zero_and_builds(self):
        # a ~ 1e-600 is below the floats; 0 only drops a negligible zero-order term
        s = make_growth_barrier(Exponent.finite(3), 2, b=1e-300)
        assert s.derived["a"] == 0.0
        assert verify_sign(s).verdict == Verdict.SUPERSOLUTION

    def test_supersolution_on_wide_box(self):
        # the claim covers all of space: sample far beyond the unit ball
        p = Exponent.finite(3)
        s = make_growth_barrier(p, 2, T=1.0, alpha=1.0,
                                b=0.5 * growth_barrier_max_b(p, 1.0, 1.0))
        rep = verify_sign(s, region=(0.0, 10.0, 0.0, 1.0))
        assert rep.verdict == Verdict.SUPERSOLUTION


class TestKernel:
    def test_heat_kernel_form(self):
        k = make_kernel(Exponent.finite(2), 2)
        r, t = 0.7, 1.3
        assert k.value(r, t) == pytest.approx(t ** -1 * np.exp(-r ** 2 / (4 * t)))

    def test_unit_at_origin_time_one(self):
        k = make_kernel(Exponent.finite(3), 2)
        assert k.value(0.0, 1.0) == pytest.approx(1.0)

    def test_decays_along_rays(self):
        for p in (Exponent.finite(2), Exponent.finite(3), INFINITY):
            k = make_kernel(p, 2)
            s = np.array([1.0, 2.0, 5.0, 10.0, 30.0])
            vals = k.value(s, 1.0 + s)
            assert np.all(np.diff(vals) < 0)
            assert vals[-1] < 1e-3

    def test_rejects_nonpositive_time(self):
        k = make_kernel(Exponent.finite(2), 2)
        with pytest.raises(Exception):
            k.value(0.5, 0.0)


class TestPowerSolution:
    def test_closed_form_finite(self):
        # f = 1, p=3, n=2, r=1: A + (p-1) B = 4.5 + 2*3.375 = 11.25
        s = make_power_solution(Exponent.finite(3), 2, +1,
                                f=lambda t: 1.0, fprime=lambda t: 0.0)
        assert s.residual(1.0, 0.3) == pytest.approx(11.25)

    def test_closed_form_infinity(self):
        # Delta_inf r^{4/3} = 64/81, |D r^{4/3}|^4 at r=1 is (4/3)^4 = 256/81;
        # hand differentiation and the FD cross-check below pin 320/81
        s = make_power_solution(INFINITY, 2, +1, f=lambda t: 1.0, fprime=lambda t: 0.0)
        assert s.residual(1.0, 0.0) == pytest.approx(320.0 / 81.0)

    def test_infinity_closed_form_fd_crosscheck(self):
        s = make_power_solution(INFINITY, 2, +1, f=lambda t: 1.0, fprime=lambda t: 0.0)
        vals = []
        for h in (1e-4, 5e-5):
            r0 = 1.0
            u = lambda r: r ** (4.0 / 3.0)
            ur = (u(r0 + h) - u(r0 - h)) / (2 * h)
            urr = (u(r0 + h) - 2 * u(r0) + u(r0 - h)) / h ** 2
            vals.append(ur ** 2 * urr + ur ** 4)
        assert vals[-1] == pytest.approx(s.residual(1.0, 0.0), rel=1e-6)

    def test_zero_time_factor(self):
        s = make_power_solution(Exponent.finite(2.5), 3, +1,
                                f=lambda t: 0.0, fprime=lambda t: 0.0)
        r = np.linspace(0, 2, 9)
        assert np.abs(s.residual(r, 0.5 + 0 * r)).max() == 0.0

    def test_negative_time_factor_rejected(self):
        with pytest.raises(ConstraintError):
            make_power_solution(Exponent.finite(3), 2, +1,
                                f=lambda t: -1.0, fprime=lambda t: 0.0)

    def test_minus_branch_small_radii_supersolution(self):
        # -r^{p/(p-1)}: the gradient term keeps its sign, so the verdict only
        # holds below the crossover radius (A/((p-1)B))^{(p-1)/p}
        p = Exponent.finite(3)
        s = make_power_solution(p, 2, -1, f=lambda t: 1.0, fprime=lambda t: 0.0)
        crossover = (4.5 / (2 * 3.375)) ** (2.0 / 3.0)
        rep = verify_sign(s, region=(0.0, 0.7 * crossover, 0.0, 1.0))
        assert rep.verdict == Verdict.SUPERSOLUTION
        # and fails on a box crossing it
        rep2 = verify_sign(s, region=(0.0, 3.0, 0.0, 1.0))
        assert rep2.verdict == Verdict.INDETERMINATE


class TestFlatteningEnvelopes:
    def test_upper_traces(self):
        for p in (Exponent.finite(2), Exponent.finite(3), INFINITY):
            alpha = 1.0 if (p.is_finite and p.p <= 3) else 0.5
            s = make_flattening_upper(p, 2, 1.0, M=2.0, alpha=alpha)
            T0 = s.derived["T0"]
            # boundary trace >= 1 for all t, initial trace >= M at T0
            t = np.linspace(max(T0, 0.0) + 1e-9, T0 + 50.0, 64)
            assert np.all(s.value(1.0 + 0 * t, t) >= 1.0 - 1e-12)
            r = np.linspace(0.0, 1.0, 33)
            assert np.all(s.value(r, T0 + 0 * r) >= 2.0 - 1e-9)

    def test_upper_tends_to_one(self):
        s = make_flattening_upper(Exponent.finite(3), 2, 1.0, M=2.0, alpha=1.0)
        r = np.linspace(0.0, 1.0, 10)
        prev = None
        for t in (1e3, 1e4, 1e5, 1e6):
            gap = np.abs(s.value(r, t + 0 * r) - 1.0).max()
            if prev is not None:
                assert gap < prev
            prev = gap
        assert prev < 1e-2

    def test_lower_traces(self):
        for p in (Exponent.finite(2), Exponent.finite(3), INFINITY):
            alpha = 1.0 if (p.is_finite and p.p <= 3) else 0.5
            s = make_flattening_lower(p, 2, 1.0, m=0.5, alpha=alpha)
            T1 = s.t_start
            r = np.linspace(0.0, 1.0, 33)
            assert np.all(s.value(r, T1 + 0 * r) <= 0.5 + 1e-12)
            t = np.linspace(T1, T1 + 50, 64)
            assert np.all(s.value(1.0 + 0 * t, t) <= 1.0 + 1e-12)

    def test_lower_m_one_limit(self):
        # log m = 0: the barrier reduces to exp(-(1+T1)^a (R^b - r^b)/(1+t)^a)
        p = Exponent.finite(2)
        s = make_flattening_lower(p, 2, 1.0, m=1.0, alpha=1.0)
        amp = s.derived["amp"]
        r, t = 0.3, 2.0
        expected = np.exp(-amp * (1.0 - r ** 2) / (1.0 + t))
        assert s.value(r, t) == pytest.approx(expected, rel=1e-12)
        assert s.value(1.0, 5.0) == pytest.approx(1.0)

    def test_alpha_range_enforced(self):
        with pytest.raises(ConstraintError):
            make_flattening_upper(Exponent.finite(4), 2, 1.0, M=2.0, alpha=0.6)
        with pytest.raises(ConstraintError):
            make_flattening_lower(INFINITY, 2, 1.0, m=0.5, alpha=0.7)
        with pytest.raises(ConstraintError):
            make_flattening_lower(Exponent.finite(2), 2, 1.0, m=1.5, alpha=1.0)

    def test_sandwich_consistency(self):
        # lower <= 1 <= upper on the common validity window, both monotone in t
        for p in (Exponent.finite(2), Exponent.finite(3), INFINITY):
            alpha = 1.0 if (p.is_finite and p.p <= 3) else 0.5
            up = make_flattening_upper(p, 2, 1.0, M=2.0, alpha=alpha)
            lo = make_flattening_lower(p, 2, 1.0, m=0.5, alpha=alpha)
            t_star = max(up.t_start, lo.t_start)
            r = np.linspace(0.0, 1.0, 21)
            ts = t_star + np.linspace(0.0, 30.0, 40)
            up_vals = up.value(r[None, :], ts[:, None])
            lo_vals = lo.value(r[None, :], ts[:, None])
            assert np.all(lo_vals <= 1.0 + 1e-12)
            assert np.all(up_vals >= 1.0 - 1e-12)
            assert np.all(np.diff(up_vals, axis=0) <= 1e-12)
            assert np.all(np.diff(lo_vals, axis=0) >= -1e-12)


@dataclasses.dataclass(frozen=True)
class TimeFactor:
    """Time damping factor F(t; S, T) interpolating 1 -> 1/2 over [S, T].

    F = (1/2)[1 + (beta(t) - 1)/(beta_S - 1)] with beta(t) = exp(lam (T-t)/w),
    w = g - 1 the time weight, beta_S = beta(S) >= 2.
    """

    lam: float
    S: float
    T: float
    w: float
    beta_S: float

    def _beta(self, t):
        return np.exp(self.lam * (self.T - np.asarray(t, float)) / self.w)

    def F(self, t):
        return 0.5 * (1.0 + (self._beta(t) - 1.0) / (self.beta_S - 1.0))

    def F_t(self, t):
        return -self.lam * self._beta(t) / (2.0 * self.w * (self.beta_S - 1.0))


def make_time_factor(lam: float, p: Exponent, S: float, T: float) -> TimeFactor:
    """The time factor of one block [S, T]; requires beta(S) >= 2 so that
    multiplying a positive separable profile by F stays a supersolution.
    It carries no sign claim of its own: combine it with an elliptic profile.
    """
    if lam <= 0:
        raise ConstraintError("lam must be positive")
    if not S < T:
        raise ConstraintError("need S < T")
    w = p.time_weight
    beta_S = float(np.exp(lam * (T - S) / w))
    if beta_S < 2.0 - 1e-12:
        raise ConstraintError(
            f"beta(S,T)={beta_S:.6g} < 2; stretch the block so exp(lam (T-S)/{w:g}) >= 2")
    return TimeFactor(float(lam), float(S), float(T), w, beta_S)


class TestTimeFactor:
    def test_endpoint_values(self):
        s = make_time_factor(2.0, Exponent.finite(3), S=0.5, T=2.5)
        assert s.F(0.5) == pytest.approx(1.0)
        assert s.F(2.5) == pytest.approx(0.5)

    def test_bounds_and_monotonicity(self):
        s = make_time_factor(4.0, Exponent.finite(2), S=0.0, T=1.0)
        t = np.linspace(0.0, 1.0, 101)
        F = s.F(t)
        assert np.all((0.5 - 1e-12 <= F) & (F <= 1.0 + 1e-12))
        assert np.all(np.diff(F) < 0)

    def test_boundary_block_accepted(self):
        # exactly log 2 across the block: the halving requirement is tight
        lam, w = 3.0, 2.0  # p = 3
        T = np.log(2.0) * w / lam
        s = make_time_factor(lam, Exponent.finite(3), S=0.0, T=T)
        assert s.beta_S == pytest.approx(2.0)

    def test_short_block_rejected(self):
        with pytest.raises(ConstraintError):
            make_time_factor(1.0, Exponent.finite(3), S=0.0, T=0.1)

    def test_product_with_exact_elliptic_profile(self):
        # p=2, n=3: psi = sin(sr)/(sr) solves the elliptic problem exactly, so
        # Gamma(psi F) has the closed product form
        lam = 0.5 * np.pi ** 2
        s_ = np.sqrt(lam)
        S, T = 0.0, 2.0 * np.log(2.0) / lam * 1.0  # beta(S,T)=2 at w=1
        tf = make_time_factor(lam, Exponent.finite(2), S=S, T=T)
        beta_S = tf.beta_S

        def psi(r):
            r = np.maximum(np.asarray(r, float), 1e-300)
            return np.sin(s_ * r) / (s_ * r)

        def psi_d1(r):
            r = np.maximum(np.asarray(r, float), 1e-300)
            return (s_ * r * np.cos(s_ * r) - np.sin(s_ * r)) / (s_ * r ** 2)

        def psi_d2(r):
            r = np.maximum(np.asarray(r, float), 1e-300)
            return (-(s_ ** 2) * np.sin(s_ * r) / (s_ * r)
                    - 2.0 * (s_ * r * np.cos(s_ * r) - np.sin(s_ * r)) / (s_ * r ** 3))

        from trudlab.operators import SpaceTimeFunction

        u = SpaceTimeFunction(
            value=lambda r, t: psi(r) * tf.F(t),
            dr=lambda r, t: psi_d1(r) * tf.F(t),
            drr=lambda r, t: psi_d2(r) * tf.F(t),
            dt=lambda r, t: psi(r) * tf.F_t(t),
        )
        rng = np.random.default_rng(3)
        rs = rng.uniform(0.05, 0.9, 200)
        ts = rng.uniform(S, T, 200)
        direct = np.array([trudinger_residual_grid(u, Exponent.finite(2), 3, r, t)[0][0]
                           for r, t in zip(rs, ts)])
        closed = (-lam * psi(rs) * tf.F(ts) ** 0 / 2.0
                  * (beta_S - 2.0) / (beta_S - 1.0))
        scale = np.abs(lam * psi(rs)).max()
        assert np.abs(direct - closed).max() <= 1e-9 * scale

    def test_product_with_computed_profile(self, eigen_cache):
        # same algebra against a shooting-built profile (p = 3): agreement is
        # limited by the finite-difference second derivative, not the formula
        eig = eigen_cache(3.0, 2, 1.0)
        lam = eig.lam
        w = 2.0  # p - 1
        T = 1.2 * np.log(2.0) * w / lam
        tf = make_time_factor(lam, Exponent.finite(3), S=0.0, T=T)
        beta_S = tf.beta_S
        prof = eig.profile()
        u = SpaceTimeFunction(
            value=lambda r, t: prof.value(r, t) * tf.F(t),
            dr=lambda r, t: prof.dr(r, t) * tf.F(t),
            drr=lambda r, t: prof.drr(r, t) * tf.F(t),
            dt=lambda r, t: prof.value(r, t) * tf.F_t(t),
        )
        rng = np.random.default_rng(5)
        rs = rng.uniform(0.1, 0.9, 100)
        ts = rng.uniform(0.0, T, 100)
        direct = np.array([trudinger_residual_grid(u, Exponent.finite(3), 2, r, t)[0][0]
                           for r, t in zip(rs, ts)])
        psi_vals = prof.value(rs, 0.0)
        closed = (-lam * psi_vals ** 2 * tf.F(ts) / 2.0
                  * (beta_S - 2.0) / (beta_S - 1.0))
        scale = np.abs(lam * psi_vals ** 2).max()
        assert np.abs(direct - closed).max() <= 1e-5 * scale


class TestBoundaryBarriers:
    def test_cone_constants(self):
        # p=4, n=2, theta=1/2, R=1: alpha = 1/3, admissible rate < 1/27
        assert make_boundary_barrier(Exponent.finite(4), 2, theta=0.5, R=1.0).derived[
            "lam_max"] == pytest.approx(1.0 / 27.0)
        s = make_boundary_barrier(Exponent.finite(4), 2, delta=1.0, lam=1.0 / 54.0,
                                  R=1.0, theta=0.5)
        assert s.derived["alpha"] == pytest.approx(1.0 / 3.0)
        assert s.value(0.0, 0.0) == pytest.approx(1.0)  # contact value delta

    def test_rate_above_bound_rejected(self):
        with pytest.raises(ConstraintError) as err:
            make_boundary_barrier(Exponent.finite(4), 2, delta=1.0, lam=0.05,
                                  R=1.0, theta=0.5)
        assert "0.037037" in str(err.value)

    def test_cone_residual_sampled(self):
        s = make_boundary_barrier(Exponent.finite(4), 2, delta=1.0, lam=1.0 / 54.0,
                                  R=1.0, theta=0.5)
        r = np.linspace(1e-3, 1.0, 1000)
        res = s.residual(r, 0.0 * r)
        assert np.all(res <= 1e-12)

    def test_outer_ball_residual_sampled(self):
        p = Exponent.finite(2)
        lam = 0.5 * make_boundary_barrier(p, 3, alpha=1.5, rho=0.5, R=1.0).derived["lam_max"]
        s = make_boundary_barrier(p, 3, delta=1.0, lam=lam, R=1.0, alpha=1.5, rho=0.5)
        r = np.linspace(0.5, 1.5, 1000)
        res = s.residual(r, 0.0 * r)
        assert np.all(res <= 1e-12)
        assert s.value(0.5, 0.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_infinity_cone_constants(self, n):
        # (g, k, d) = (4, 3, 1), theta = 1/2: e = theta, K = theta^3 (1 - theta)
        # = 1/16, and lam_max = K R^{3(e-1)-1} / R^{3e} = 1/16 at R = 1
        s = make_boundary_barrier(INFINITY, n)
        assert s.family is Family.BOUNDARY_CONE
        assert s.derived["alpha"] == pytest.approx(0.5, rel=1e-15)
        assert s.derived["lam_max"] == pytest.approx(1.0 / 16.0, rel=1e-15)
        assert s.params["lam"] == pytest.approx(1.0 / 32.0, rel=1e-15)
        assert s.value(0.0, 0.0) == pytest.approx(1.0)  # contact value delta
        assert verify_sign(s).verdict == Verdict.SUPERSOLUTION

    def test_infinity_cone_matches_fd_laplacian(self):
        """residual - lam w^3 against the infinity branch of the FD Laplacian,
        (u')^2 u'' by central differences, written without the law."""
        s = make_boundary_barrier(INFINITY, 2)
        lam = s.params["lam"]
        errs, hs = [], []
        for count in (501, 2001, 8001):
            grid = RadialGrid(1.0, count)
            window = grid.r[:-1] >= 0.1  # fd_laplacian_grid drops the r = R column
            r = grid.r[:-1][window]
            fd = fd_laplacian_grid(s.value(grid.r, 0.0), grid, INFINITY, 2)[window]
            closed = s.residual(r, 0.0 * r) - lam * s.value(r, 0.0) ** 3
            errs.append(np.abs(fd - closed).max() / np.abs(closed).max())
            hs.append(grid.h)
        order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.8 <= order <= 2.2, (order, errs)


class TestSeparatedSolution:
    @staticmethod
    def sinc_profile():
        def val(r, t):
            r = np.maximum(np.asarray(r, float), 1e-300)
            return np.sin(np.pi * r) / (np.pi * r)

        def dr(r, t):
            r = np.maximum(np.asarray(r, float), 1e-300)
            return (np.pi * r * np.cos(np.pi * r) - np.sin(np.pi * r)) / (np.pi * r ** 2)

        def drr(r, t):
            r = np.maximum(np.asarray(r, float), 1e-300)
            return (-(np.pi ** 2) * np.sin(np.pi * r) / (np.pi * r)
                    - 2.0 * (np.pi * r * np.cos(np.pi * r) - np.sin(np.pi * r)) / (np.pi * r ** 3))

        return SpaceTimeFunction(val, dr, drr, R=0.999)

    def test_constant_profile_solution(self):
        one = SpaceTimeFunction(lambda r, t: 1.0 + 0 * np.asarray(r),
                                lambda r, t: 0.0 * np.asarray(r),
                                lambda r, t: 0.0 * np.asarray(r), R=1.0)
        s = separated_solution(one, lam=0.0, mu=0.0, p=Exponent.finite(3), n=2)
        rep = verify_sign(s, region=(0.0, 1.0, 0.0, 1.0))
        assert rep.verdict == Verdict.SOLUTION
        assert rep.max_residual == 0.0

    def test_exact_eigen_pair_linear_case(self):
        # p=2, n=3: sinc is the exact eigenfunction at lam = pi^2
        s = separated_solution(self.sinc_profile(), lam=np.pi ** 2, mu=np.pi ** 2,
                               p=Exponent.finite(2), n=3)
        rep = verify_sign(s, region=(0.05, 0.95, 0.0, 1.0), tolerance=1e-6)
        assert rep.verdict == Verdict.SOLUTION

    def test_mu_above_lam_gives_subsolution(self):
        s = separated_solution(self.sinc_profile(), lam=np.pi ** 2, mu=1.5 * np.pi ** 2,
                               p=Exponent.finite(2), n=3)
        rep = verify_sign(s, region=(0.05, 0.95, 0.0, 1.0), tolerance=1e-6)
        assert verdict_matches(rep, Verdict.SUBSOLUTION)

    def test_computed_eigenfunction_solution(self, eigen_cache):
        eig = eigen_cache(3.0, 2, 1.0)
        prof = eig.profile()
        s = separated_solution(prof, lam=eig.lam, mu=eig.lam, p=Exponent.finite(3), n=2)
        rep = verify_sign(s, region=(0.0, 0.98, 0.0, 0.5), tolerance=1e-5,
                          samples=2500, random_samples=200)
        assert rep.verdict == Verdict.SOLUTION

    @pytest.mark.parametrize("pv", [2.0, 3.0, 4.0])
    @pytest.mark.parametrize("n", [2, 3])
    def test_computed_profile_rounding_below_zero_at_R_accepted(self, eigen_cache, pv, n):
        # the profile's zero at r = R rounds to a few ulps either side of 0
        eig = eigen_cache(pv, n, 1.0)
        s = separated_solution(eig.profile(), lam=eig.lam, mu=eig.lam,
                               p=Exponent.finite(pv), n=n)
        assert s.expected == Verdict.SOLUTION

    def test_negative_profile_rejected(self):
        dip = SpaceTimeFunction(lambda r, t: np.cos(np.pi * np.asarray(r, float)),
                                lambda r, t: -np.pi * np.sin(np.pi * np.asarray(r, float)),
                                lambda r, t: -np.pi ** 2 * np.cos(np.pi * np.asarray(r, float)),
                                R=1.0)
        with pytest.raises(ConstraintError, match="nonnegative"):
            separated_solution(dip, lam=1.0, mu=1.0, p=Exponent.finite(3), n=2)


class TestVerifySign:
    @pytest.mark.parametrize("p", P_SWEEP, ids=lambda p: p.label)
    @pytest.mark.parametrize("n", [2, 3])
    def test_catalog_verdicts(self, p, n):
        for spec in default_catalog(p, n):
            rep = verify_sign(spec, samples=2500, random_samples=300)
            assert verdict_matches(rep, spec.expected), (
                spec.family, rep.verdict, rep.min_residual, rep.max_residual)

    def test_report_fields_and_json(self):
        spec = make_paraboloid(Exponent.finite(3), 2, 1.0)
        rep = verify_sign(spec)
        data = rep.to_dict()
        assert data["verdict"] == "Supersolution"
        assert data["family"] == "paraboloid"
        assert set(data) >= {"params", "derived", "min_residual", "max_residual",
                             "argmin", "argmax", "samples", "tolerance", "scale", "seed"}
        assert data["samples"] == rep.samples

    def test_determinism(self):
        a = verify_sign(make_eigen_barrier(Exponent.finite(2.5), 2, 1.0))
        b = verify_sign(make_eigen_barrier(Exponent.finite(2.5), 2, 1.0))
        assert a.to_dict() == b.to_dict()

    def test_region_validation(self):
        spec = make_flattening_upper(Exponent.finite(3), 2, 1.0, M=2.0, alpha=1.0)
        from trudlab.operators import DomainError

        with pytest.raises(DomainError):
            verify_sign(spec, region=(0.0, 1.0, 0.0, 1.0))  # starts before T0

    def test_parameter_draws_per_family(self):
        # three draws per family at a representative (p, n)
        rng = np.random.default_rng(11)
        p, n = Exponent.finite(3), 2
        for _ in range(3):
            R = float(rng.uniform(0.5, 2.0))
            alpha = float(rng.uniform(0.3, 1.0))
            T = float(rng.uniform(0.5, 2.0))
            b = float(rng.uniform(0.2, 0.8)) * growth_barrier_max_b(p, T, alpha)
            M = float(rng.uniform(1.5, 4.0))
            m = float(rng.uniform(0.2, 0.8))
            theta = float(rng.uniform(0.2, 0.8))
            lam = float(rng.uniform(0.2, 0.8)) * make_boundary_barrier(
                p, n, theta=theta, R=R).derived["lam_max"]
            decay = float(rng.uniform(0.2, 2.0))
            specs = [
                make_eigen_barrier(p, n, R),
                make_growth_barrier(p, n, T, alpha, b),
                make_flattening_upper(p, n, R, M, alpha),
                make_flattening_lower(p, n, R, m, alpha),
                make_paraboloid(p, n, R),
                make_boundary_barrier(p, n, delta=1.0, lam=lam, R=R, theta=theta),
                make_power_solution(p, n, +1, f=lambda t, d=decay: np.exp(-d * t),
                                    fprime=lambda t, d=decay: -d * np.exp(-d * t),
                                    f_label="exp decay"),
            ]
            for spec in specs:
                rep = verify_sign(spec, samples=900, random_samples=100)
                assert verdict_matches(rep, spec.expected), (spec.family, spec.params)


def flat_sample_report(spec, samples=10_000, random_samples=1_000, seed=DEFAULT_SEED):
    """verify_sign's sampling at its default region and tolerance, written out
    flat: the meshgrid raveled in r-major order, then the seeded random
    points, in one residual_fn call."""
    r_lo, r_hi, t_lo, t_hi = spec.default_region()
    k = max(2, int(np.sqrt(samples)))
    rg, tg = np.meshgrid(np.linspace(r_lo, r_hi, k), np.linspace(t_lo, t_hi, k),
                         indexing="ij")
    rng = np.random.default_rng(seed)
    rr = rng.uniform(r_lo, r_hi, random_samples)
    tr = rng.uniform(t_lo, t_hi, random_samples)
    r_all, t_all = np.concatenate([rg.ravel(), rr]), np.concatenate([tg.ravel(), tr])
    res, scale = (np.broadcast_to(x, r_all.shape) for x in spec.residual_fn(r_all, t_all))
    i_min, i_max = int(np.argmin(res)), int(np.argmax(res))
    scale = float(np.max(scale))
    is_sub, is_super = res[i_min] >= -1e-9 * scale, res[i_max] <= 1e-9 * scale
    verdict = (Verdict.SOLUTION if is_sub and is_super else Verdict.SUBSOLUTION if is_sub
               else Verdict.SUPERSOLUTION if is_super else Verdict.INDETERMINATE)
    return {"min_residual": float(res[i_min]), "max_residual": float(res[i_max]),
            "argmin": {"r": float(r_all[i_min]), "t": float(t_all[i_min])},
            "argmax": {"r": float(r_all[i_max]), "t": float(t_all[i_max])},
            "scale": scale, "verdict": verdict.value, "samples": int(res.size)}


def planted(residual):
    """A spec on 0 <= r <= 1 whose residual is the given elementwise function."""
    return dataclasses.replace(make_paraboloid(Exponent.finite(3), 2, 1.0),
                               residual_fn=lambda r, t: (residual(r, t), np.abs(residual(r, t))))


class TestSampling:
    """verify_sign against its flat-sample reference, and its broadcast contract."""

    @pytest.mark.parametrize("p", P_SWEEP, ids=lambda p: p.label)
    @pytest.mark.parametrize("n", [2, 3])
    def test_residual_broadcasts(self, p, n):
        for spec in default_catalog(p, n):
            self.assert_broadcasts(spec)

    def test_separated_solution_broadcasts(self, eigen_cache):
        eig = eigen_cache(3.0, 2, 1.0)
        spec = separated_solution(eig.profile(), lam=eig.lam, mu=eig.lam,
                                  p=Exponent.finite(3), n=2)
        self.assert_broadcasts(spec, region=(0.0, 0.98, 0.0, 0.5))

    @staticmethod
    def assert_broadcasts(spec, region=None):
        # unequal axis lengths, so a transposed layout cannot match
        r_lo, r_hi, t_lo, t_hi = region or spec.default_region()
        r, t = np.linspace(r_lo, r_hi, 9), np.linspace(t_lo, t_hi, 7)
        rg, tg = np.meshgrid(r, t, indexing="ij")
        grid = spec.residual_fn(r[:, None], t[None, :])
        flat = spec.residual_fn(rg.ravel(), tg.ravel())
        for on_axes, on_points in zip(grid, flat):
            on_points = np.broadcast_to(on_points, rg.size).reshape(rg.shape)
            assert np.array_equal(np.broadcast_to(on_axes, rg.shape), on_points), spec.family

    @pytest.mark.parametrize("p", P_SWEEP, ids=lambda p: p.label)
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", [DEFAULT_SEED, 7])
    def test_matches_flat_reference(self, p, n, seed):
        for spec in default_catalog(p, n):
            got = verify_sign(spec, seed=seed).to_dict()
            want = flat_sample_report(spec, seed=seed)
            assert {key: got[key] for key in want} == want, spec.family

    def test_no_random_points(self):
        for spec in default_catalog(Exponent.finite(3), 2):
            rep = verify_sign(spec, samples=400, random_samples=0)
            want = flat_sample_report(spec, samples=400, random_samples=0)
            assert rep.samples == 400
            assert {key: rep.to_dict()[key] for key in want} == want, spec.family

    def test_non_finite_grid_point_named(self):
        r_i, t_j = np.linspace(0.0, 1.0, 10)[3], np.linspace(0.0, 2.0, 10)[6]
        spec = planted(lambda r, t: np.where((r == r_i) & (t == t_j), np.nan, r + t))
        with pytest.raises(ConstraintError, match=f"r={r_i:g}, t={t_j:g}"):
            verify_sign(spec, region=(0.0, 1.0, 0.0, 2.0), samples=100, random_samples=50)

    def test_non_finite_random_point_named(self):
        rng = np.random.default_rng(DEFAULT_SEED)
        r_x, t_x = rng.uniform(0.0, 1.0, 50)[17], rng.uniform(0.0, 2.0, 50)[17]
        spec = planted(lambda r, t: np.where((r == r_x) & (t == t_x), np.inf, r + t))
        with pytest.raises(ConstraintError, match=f"r={r_x:g}, t={t_x:g}"):
            verify_sign(spec, region=(0.0, 1.0, 0.0, 2.0), samples=100, random_samples=50)

    def test_planted_minimum_located(self):
        # r_i = 1/3 and t_j = 14/9 cannot swap roles: the report is r-major
        r_i, t_j = np.linspace(0.0, 1.0, 10)[3], np.linspace(0.0, 2.0, 10)[7]
        spec = planted(lambda r, t: np.where((r == r_i) & (t == t_j), -1.0, 0.0 * r * t))
        rep = verify_sign(spec, region=(0.0, 1.0, 0.0, 2.0), samples=100, random_samples=50)
        assert (rep.argmin.r, rep.argmin.t, rep.min_residual) == (r_i, t_j, -1.0)
        assert rep.verdict == Verdict.SUPERSOLUTION


class TestClosedFormVsFiniteDifference:
    @pytest.mark.parametrize("maker,pval", [
        ("eigen", 2.0), ("eigen", 3.0),
        ("growth", 3.0),
        ("upper", 3.0), ("lower", 3.0),
        ("kernel", 3.0),
        *[(maker, pval) for pval in (2.5, "inf")
          for maker in ("growth", "upper", "lower", "kernel", "power")],
    ])
    def test_refinement_agreement(self, maker, pval):
        """The stored residual matches the FD audit of the sampled field at O(h^2).

        The FD residual is written out here per branch, without the exponent
        law: Delta_p u - (p-1)|u|^{p-2} u_t, and ur^2 urr - 3 u^2 ut at infinity.
        """
        p = Exponent.parse(pval)
        n = 2
        alpha = 1.0 if p.is_finite else 0.5  # 1/2 is the largest at infinity
        if maker == "eigen":
            spec = make_eigen_barrier(p, n, 1.0)
            # start at t = 0: the decay rate can be huge and drown the signal
            box_r, box_t = (0.1, 0.85), (0.0, 0.0)
        elif maker == "growth":
            spec = make_growth_barrier(p, n, T=1.0, alpha=alpha,
                                       b=0.5 * growth_barrier_max_b(p, 1.0, alpha))
            box_r, box_t = (0.2, 1.2), (0.2, 0.2001)
        elif maker == "upper":
            spec = make_flattening_upper(p, n, 1.0, M=2.0, alpha=alpha)
            t0 = spec.t_start
            box_r, box_t = (0.2, 0.9), (t0 + 0.1, t0 + 0.1001)
        elif maker == "lower":
            spec = make_flattening_lower(p, n, 1.0, m=0.5, alpha=alpha)
            box_r, box_t = (0.2, 0.9), (0.5, 0.5001)
        elif maker == "power":
            spec = make_power_solution(p, n, +1, f=lambda t: 1.0 / (1.0 + t),
                                       fprime=lambda t: -1.0 / (1.0 + t) ** 2)
            box_r, box_t = (0.3, 1.2), (0.4, 0.4001)
        else:
            spec = make_kernel(p, n)
            box_r, box_t = (0.3, 1.2), (0.8, 0.8001)
        # eigen rates grow fast with p: keep rate*dt small so the backward
        # difference sits in its asymptotic regime
        dt_factor = 10.0 if maker != "eigen" else 2.0 / (1.0 + spec.derived["rate"])
        errs, hs = [], []
        for count in (81, 161, 321):
            r0, r1 = box_r
            grid_r = np.linspace(r0, r1, count)
            h = grid_r[1] - grid_r[0]
            dt = dt_factor * h ** 2
            times = np.array([box_t[0], box_t[0] + dt])
            u = spec.value(grid_r[None, :], times[:, None])
            # interior central differences on the offset window
            ur = (u[:, 2:] - u[:, :-2]) / (2 * h)
            urr = (u[:, 2:] - 2 * u[:, 1:-1] + u[:, :-2]) / h ** 2
            ut = (u[1:, 1:-1] - u[:-1, 1:-1]) / dt
            mid = grid_r[1:-1]
            uu = u[1:, 1:-1]
            if p.is_finite:
                pf = p.p
                dpl = np.abs(ur) ** (pf - 2.0) * ((pf - 1.0) * urr + (n - 1.0) * ur / mid)
                w, grad = pf - 1.0, (pf - 1.0) * np.abs(ur[1:]) ** pf
                time_factor = (pf - 1.0) * np.abs(uu) ** (pf - 2.0)
            else:
                dpl = ur ** 2 * urr
                w, grad = 3.0, ur[1:] ** 4
                time_factor = 3.0 * uu ** 2
            if maker == "power":
                # phi = v itself: the FD log form Delta v + grad - w v_t
                fd_res = dpl[1:] + grad - w * ut
            else:
                fd_res = dpl[1:] - time_factor * ut
            # closed-form residual of the family (converted to the direct form
            # for log-form envelopes: Gamma = phi^w * stored residual)
            closed = spec.residual(mid[None, :], np.full((1, mid.size), times[1]))
            if spec.is_log_form:
                closed = closed * uu ** w
            errs.append(np.abs(fd_res - closed).max())
            hs.append(h)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.7 <= slope <= 2.4, (maker, slope, errs)


class TestTransformIdentityAcrossCatalog:
    @pytest.mark.parametrize("p", P_SWEEP, ids=lambda p: p.label)
    def test_catalog_deviation(self, p):
        n = 2
        rng = np.random.default_rng(23)
        for spec in default_catalog(p, n):
            if spec.family in (Family.POWER_PROFILE,):
                r_lo, r_hi = 0.3, 2.0  # value vanishes at the axis: log needs r > 0
            else:
                r_lo = max(0.05, spec.r_range[0])
                r_hi = min(spec.r_range[1], 2.0) * 0.9
            t_lo = max(spec.t_start, 0.05)
            t_span = 1.0
            if spec.family is Family.EIGEN_SEPARABLE:
                # keep e^{-rate t} representable: a couple of e-folds only
                t_lo = 0.0
                t_span = 2.0 * p.time_weight / spec.derived["rate"]
            rs = rng.uniform(r_lo, r_hi, 200)
            ts = rng.uniform(t_lo, t_lo + t_span, 200)
            dev = log_transform_consistency(spec.phi, p, n, (rs, ts))
            assert dev < 1e-8, (spec.family, dev)


class TestBarrierEval:
    def test_log_form_exponential_consistency(self):
        s = make_growth_barrier(Exponent.finite(3), 2, T=1.0, alpha=1.0, b=0.1)
        assert s.is_log_form
        assert np.exp(s.log_value(0.7, 0.4)) == pytest.approx(s.value(0.7, 0.4), rel=1e-12)

    def test_direct_form_flag(self):
        s = make_paraboloid(Exponent.finite(2), 2, 1.0)
        assert not s.is_log_form
        with pytest.raises(ValueError):
            s.log_value(0.5, 1.0)

    def test_spec_and_report_mappings_read_only(self):
        spec = make_boundary_barrier(Exponent.finite(2), 3)
        rep = verify_sign(spec, samples=400, random_samples=40)
        for mapping in (spec.params, spec.derived, rep.params, rep.derived):
            key = next(iter(mapping))
            with pytest.raises(TypeError):
                mapping[key] = 0.0
            with pytest.raises(TypeError):
                mapping["added"] = 0.0
        given = {"R": 2.0}  # a spec copies the caller's dict instead of sharing it
        copied = dataclasses.replace(spec, params=given)
        given["R"] = 3.0
        assert copied.params == {"R": 2.0}
        data = rep.to_dict()
        assert type(data["params"]) is dict and type(data["derived"]) is dict
        assert data["params"] == {**spec.params, "p": "2", "n": 3}
        assert data["derived"] == spec.derived


class TestPowerLogClosedForm:
    """The `_power_log` residual against the operator path on the same phi."""

    @pytest.mark.parametrize("p", P_SWEEP, ids=lambda p: p.label)
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("family",
                             ["growth", "kernel", "power", "flatten-upper", "flatten-lower"])
    def test_matches_operator_path(self, family, n, p):
        spec = make_family(family, p, n, {})
        r_lo, r_hi, t_lo, t_hi = spec.default_region()
        rng = np.random.default_rng(31)
        r = rng.uniform(max(r_lo, 0.05), r_hi, 200)
        t = rng.uniform(t_lo, t_hi, 200)
        closed = spec.residual(r, t)
        if spec.is_log_form:
            # Gamma(phi) = phi^(g-1) times the log-form residual of log phi
            closed = closed * spec.value(r, t) ** (p.g - 1.0)
            ref, scale = trudinger_residual_grid(spec.phi, p, n, r, t)
        else:
            ref, scale = log_form_residual_grid(spec.phi, p, n, r, t)
        assert np.all(np.abs(closed - ref) <= 1e-12 * scale)  # scale: per-point term sizes


class TestCatalogDefaults:
    """Each default of `make_family`'s makers, written out by hand."""

    FLATTEN_ALPHA = {"2": 1.0, "2.5": 1.0, "3": 1.0, "4": 0.5, "inf": 0.5}  # min(1, 1/(g-2))

    @pytest.mark.parametrize("p", P_SWEEP, ids=lambda p: p.label)
    @pytest.mark.parametrize("n", [2, 3])
    def test_defaults_pinned(self, p, n):
        built = {name: make_family(name, p, n, {}).params for name in CATALOG_FAMILIES}
        alpha = 1.0 if p.is_finite else 0.5
        assert built["growth"] == {
            "T": 1.0, "alpha": alpha, "b": 0.5 * growth_barrier_max_b(p, 1.0, alpha)}
        a = self.FLATTEN_ALPHA[p.label]
        assert built["flatten-upper"] == {"R": 1.0, "M": 2.0, "alpha": a, "safety": 1.05}
        assert built["flatten-lower"] == {"R": 1.0, "m": 0.5, "alpha": a, "safety": 1.05}
        assert built["eigen"] == built["paraboloid"] == {"R": 1.0}
        assert built["kernel"] == {}
        assert built["power"] == {"sign": 1, "f": "1/(1+t)"}
        g, d = p.g, p.d(n)
        if g > d:
            case = {"theta": 0.5, "R": 1.0}
        else:
            case = {"alpha": 1.0 + max(0.0, (d - g) / (g - 1.0)), "rho": 0.5, "R": 1.0}
        lam = 0.5 * make_boundary_barrier(p, n, **case).derived["lam_max"]
        assert built["boundary"] == {"delta": 1.0, "lam": lam, **case, "safety": 1.05}
