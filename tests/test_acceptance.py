"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from trudlab.barriers import default_catalog, verify_sign
from trudlab.eigensolver import solve_delta_bvp
from trudlab.experiments import (
    decay_experiment,
    flatten_experiment,
    phragmen_lindelof_study,
)
from trudlab.exponent import INFINITY, Exponent
from trudlab.grids import RadialGrid, SpaceTimeField
from trudlab.operators import (
    fd_residual_on_field,
    log_transform_consistency,
    trudinger_residual_grid,
)
from trudlab.pde import (
    LOG_IMPLICIT,
    SolverConfig,
    comparison_check,
    max_principle_check,
    solve_trudinger_radial,
)

from test_barriers import verdict_matches
from test_eigensolver import (
    bessel_j0_first_zero,
    eigen_at_radius,
    infinity_eigenvalue,
    interval_eigenvalue,
    interval_law_eigenvalue,
    rayleigh_quotient,
)

P_SWEEP = [Exponent.finite(2), Exponent.finite(2.5), Exponent.finite(3),
           Exponent.finite(4), INFINITY]
PI2 = math.pi ** 2


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


class TestAcceptance:
    def test_01_barrier_sign_suite(self):
        """Every catalog family carries its claimed verdict across the sweep."""
        t0 = time.perf_counter()
        failures = []
        count = 0
        for p in P_SWEEP:
            for n in (2, 3):
                for spec in default_catalog(p, n):
                    rep = verify_sign(spec, samples=10_000, random_samples=1_000,
                                      tolerance=1e-9)
                    count += 1
                    if not verdict_matches(rep, spec.expected):
                        failures.append((p.label, n, spec.family.value,
                                         rep.verdict.value))
        elapsed = time.perf_counter() - t0
        ok = not failures and elapsed < 60.0
        report("1 barrier-sign-suite", ok,
               f"{count} family checks, {elapsed:.1f}s, failures={failures}")

    def test_02_kernel_exactness(self):
        """Heat kernel residual at rounding scale; degenerate kernels O(h^2)."""
        from trudlab.barriers import make_kernel

        k2 = make_kernel(Exponent.finite(2), 2)
        r = np.linspace(0.0, 3.0, 100)
        t = np.linspace(0.2, 3.0, 100)
        rg, tg = np.meshgrid(r, t, indexing="ij")
        res, _ = trudinger_residual_grid(k2.phi, Exponent.finite(2), 2,
                                         rg.ravel(), tg.ravel())
        heat_ok = np.abs(res).max() < 1e-8

        slopes = {}
        for p in (Exponent.finite(3), INFINITY):
            spec = make_kernel(p, 2)
            maxima, hs = [], []
            for split in (128, 256, 512):
                h = 1.5 / split
                grid = RadialGrid(1.5, split + 1)
                dt = 20 * h ** 2
                times = 0.7 + np.arange(3) * dt
                vals = spec.value(grid.r[None, :], times[:, None])
                field = SpaceTimeField(vals, grid, times)
                resid = fd_residual_on_field(field, p, 2)
                window = grid.r[:-1] >= 0.3
                maxima.append(np.abs(resid[:, window]).max())
                hs.append(h)
            slopes[p.label] = float(np.polyfit(np.log(hs), np.log(maxima), 1)[0])
        slopes_ok = all(1.8 <= s <= 2.2 for s in slopes.values())
        report("2 kernel-exactness", heat_ok and slopes_ok,
               f"heat residual {np.abs(res).max():.2e}, slopes {slopes}")

    def test_03_eigenvalue_oracles(self, eigen_cache):
        """Independent closed-form, series and quadrature oracles pin the eigenvalues."""
        t0 = time.perf_counter()
        lam_3d = eigen_cache(2.0, 3, 1.0).lam
        t_3d = time.perf_counter() - t0
        t0 = time.perf_counter()
        lam_2d = eigen_cache(2.0, 2, 1.0).lam
        t_2d = time.perf_counter() - t0
        j01 = bessel_j0_first_zero()
        # infinity: the 1-D p = 4 eigenvalue pi^4/(64 R^4), pinned relative tolerance
        inf_err = max(abs(eigen_cache("inf", 2, R).lam / infinity_eigenvalue(R) - 1.0)
                      for R in (0.5, 1.0, 1.7))
        # p = 3 and 4: the 1-D law (p, 1, 1) against (p-1)(pi_p/(2R))^p, and the
        # Rayleigh quotient of a shot on B_R against the memoized eigenvalue
        pi_p_err = max(abs(interval_law_eigenvalue(g, R) / interval_eigenvalue(g, 2.0 * R) - 1.0)
                       for g in (3.0, 4.0) for R in (0.5, 1.0, 1.7))
        rq_err = max(abs(rayleigh_quotient(Exponent.finite(pv), n, 1.0)
                         / eigen_cache(pv, n, 1.0).lam - 1.0)
                     for pv in (3.0, 4.0) for n in (2, 3))
        ok = (abs(lam_3d - PI2) < 1e-4 and abs(lam_2d - j01 ** 2) < 1e-3
              and inf_err < 1e-8 and pi_p_err < 1e-10 and rq_err < 1e-10
              and t_3d < 5.0 and t_2d < 5.0)
        report("3 eigenvalue-oracles", ok,
               f"lam(2,3)={lam_3d:.8f} vs pi^2, lam(2,2)={lam_2d:.8f} vs "
               f"{j01 ** 2:.8f}, lam(inf) vs pi^4/(64R^4) rel {inf_err:.1e}, "
               f"p=3,4: pi_p rel {pi_p_err:.1e}, Rayleigh quotient rel {rq_err:.1e}, "
               f"{t_3d:.1f}s/{t_2d:.1f}s")

    def test_04_scaling_law(self):
        """lam_R R^g constant over radii for each (p, n), each lam_R from its own shot."""
        spreads = {}
        for pv in (2.0, 3.0, "inf"):
            for n in (2, 3):
                g = Exponent.parse(pv).g
                vals = np.array([eigen_at_radius(Exponent.parse(pv), n, R)[0] * R ** g
                                 for R in (0.5, 1.0, 2.0)])
                med = np.median(vals)
                spreads[(pv, n)] = float(np.max(np.abs(vals - med)) / med)
        ok = all(s < 1e-4 for s in spreads.values())
        report("4 scaling-law", ok, f"spreads {spreads}")

    def test_05_blow_up_bound(self):
        """Center values dominate the closed-form blow-up bound, with lam_R from
        a shot of its own rather than the unit shot that M_lambda comes from."""
        checks = []
        for pv in (2.0, 3.0):
            lam_R = eigen_at_radius(Exponent.finite(pv), 2, 1.0)[0]
            expo = 1.0 / (pv - 1.0)
            for frac in (0.5, 0.9, 0.99):
                b = solve_delta_bvp(Exponent.finite(pv), 2, 1.0, frac * lam_R, 1.0)
                bound = lam_R ** expo / (lam_R ** expo - (frac * lam_R) ** expo)
                checks.append(b.M_lambda >= bound - 1e-8)
        report("5 blow-up-bound", all(checks), f"{len(checks)} checks")

    def test_06_decay_rates(self, eigen_cache):
        """Sup-norm decay: attained for eigen-data, upper rate for generic."""
        t0 = time.perf_counter()
        heat = decay_experiment(Exponent.finite(2), 3, 1.0, nodes=401)
        t_heat = time.perf_counter() - t0
        t0 = time.perf_counter()
        p3 = decay_experiment(Exponent.finite(3), 2, 1.0, nodes=401)
        t_p3 = time.perf_counter() - t0
        t0 = time.perf_counter()
        inf = decay_experiment(INFINITY, 2, 1.0, nodes=401)
        t_inf = time.perf_counter() - t0
        lam3 = p3.measured["lambda"]
        inf_rate = -math.pi ** 4 / 192  # -lam/3 with the pi_p oracle's lam = pi^4/64
        heat_ok = abs(heat.measured["eigen_slope"] + PI2) <= 0.02 * PI2
        p3_ok = abs(p3.measured["eigen_slope"] + lam3 / 2) <= 0.02 * lam3 / 2
        inf_ok = abs(inf.measured["eigen_slope"] - inf_rate) <= 0.02 * abs(inf_rate)
        gen_ok = (p3.measured["generic_slope"] <= -lam3 / 2 * 0.98
                  and heat.measured["generic_slope"] <= -PI2 * 0.98
                  and inf.measured["generic_slope"] <= inf_rate * 0.98)
        time_ok = t_heat < 60.0 and t_p3 < 60.0 and t_inf < 60.0
        report("6 decay-rates", heat_ok and p3_ok and inf_ok and gen_ok and time_ok,
               f"heat {heat.measured['eigen_slope']:.4f} vs {-PI2:.4f}, "
               f"p3 {p3.measured['eigen_slope']:.4f} vs {-lam3 / 2:.4f}, "
               f"inf {inf.measured['eigen_slope']:.4f} vs {inf_rate:.4f}, "
               f"{t_heat:.0f}s/{t_p3:.0f}s/{t_inf:.0f}s")

    def test_07_flattening(self):
        """Solution pinned at boundary 1 stays in the envelope sandwich."""
        rep = flatten_experiment(Exponent.finite(2), 2, 1.0, m=0.5, M=2.0,
                                 alpha=2.0, nodes=201)
        ok = (rep.passes["sandwich"]
              and rep.measured["final_center_gap_to_1"] < 0.01)
        report("7 flattening", ok,
               f"over {rep.measured['sandwich_over']:.2e}, "
               f"under {rep.measured['sandwich_under']:.2e}, "
               f"|u(0,t_end)-1| {rep.measured['final_center_gap_to_1']:.2e}")

    def test_08_comparison_and_max_principle(self):
        """Ordered data stays ordered; extrema sit on the parabolic boundary."""
        rng = np.random.default_rng(20250808)
        worst_cmp = -np.inf
        worst_mp = -np.inf
        for pv in (2.0, 3.0):
            for _ in range(20):
                base = rng.uniform(0.7, 1.3)
                amp_lo = rng.uniform(0.05, 0.35)
                amp_hi = amp_lo + rng.uniform(0.05, 0.35)
                shape = rng.choice([1.0, 2.0])

                def make(amp):
                    return SolverConfig(
                        p=Exponent.finite(pv), n=2, R=1.0, nodes=41, t_end=0.08,
                        scheme=LOG_IMPLICIT, boundary=lambda t: base,
                        initial=lambda r: base + amp * (1.0 - (np.asarray(r, float)) ** 2)
                        ** shape, dt=4e-3)

                a = solve_trudinger_radial(make(amp_lo))
                b = solve_trudinger_radial(make(amp_hi))
                bound = max(a.metadata["consistency_bound_u"],
                            b.metadata["consistency_bound_u"])
                worst_cmp = max(worst_cmp, comparison_check(a, b) - 5.0 * bound)
                for fld in (a, b):
                    sup_v, inf_v = max_principle_check(fld)
                    mp_bound = 5.0 * fld.metadata["consistency_bound_u"]
                    worst_mp = max(worst_mp, sup_v - mp_bound, inf_v - mp_bound)
        ok = worst_cmp <= 0.0 and worst_mp <= 0.0
        report("8 comparison-max-principle", ok,
               f"worst comparison excess {worst_cmp:.2e}, "
               f"worst principle excess {worst_mp:.2e}")

    def test_09_phragmen_lindelof(self):
        """Whole-space bound arithmetic: exact scalings of both gaps."""
        t0 = time.perf_counter()
        results = {}
        for p in (Exponent.finite(2), Exponent.finite(2.5), Exponent.finite(3),
                  Exponent.finite(4)):
            rep = phragmen_lindelof_study(p, 2, m=0.5, M=2.0,
                                          eps_list=[0.0005, 0.001, 0.002],
                                          R_list=[1.0, 2.0, 4.0], t_probe=1.0)
            ratio_ok = all(abs(rt - 2.0 ** -p.p) <= 1e-6
                           for rt in rep.measured["lower_gap_ratios"])
            slope_ok = abs(rep.measured["upper_loglog_slope"] - (p.p - 1.0)) <= 0.05
            results[p.label] = ratio_ok and slope_ok
        rep_inf = phragmen_lindelof_study(INFINITY, 2, m=0.5, M=2.0,
                                          eps_list=[0.0005, 0.001, 0.002],
                                          R_list=[1.0, 2.0], t_probe=1.0)
        results["inf"] = abs(rep_inf.measured["upper_loglog_slope"] - 3.0) <= 0.05
        elapsed = time.perf_counter() - t0
        ok = all(results.values()) and elapsed < 1.0
        report("9 phragmen-lindelof", ok, f"{results}, {elapsed:.2f}s")

    def test_10_transform_identity(self):
        """Gamma(u) = u^w G(log u) across the catalog with analytic derivatives."""
        from trudlab.barriers import Family

        rng = np.random.default_rng(99)
        worst = 0.0
        for p in P_SWEEP:
            for spec in default_catalog(p, 2):
                if spec.family is Family.POWER_PROFILE:
                    lo, hi = 0.3, 2.0
                else:
                    lo = max(0.05, spec.r_range[0])
                    hi = min(spec.r_range[1], 2.0) * 0.9
                t_lo = max(spec.t_start, 0.05)
                t_span = 1.0
                if spec.family is Family.EIGEN_SEPARABLE:
                    t_lo, t_span = 0.0, 2.0 * p.time_weight / spec.derived["rate"]
                rs = rng.uniform(lo, hi, 150)
                ts = rng.uniform(t_lo, t_lo + t_span, 150)
                dev = log_transform_consistency(spec.phi, p, 2, (rs, ts))
                worst = max(worst, dev)
        report("10 transform-identity", worst < 1e-8, f"worst deviation {worst:.2e}")
