"""Radial time stepping: oracles, convergence orders, order properties.

The p = 2 case is the heat equation; 1 + c e^{-pi^2 t} sin(pi r)/(pi r) is an
exact positive solution on the unit ball in three dimensions and serves as
the separation-of-variables oracle throughout.
"""

import csv
import dataclasses

import numpy as np
import pytest

from trudlab import pde
from trudlab.exponent import INFINITY, Exponent
from trudlab.grids import RadialGrid, SpaceTimeField
from trudlab.operators import fd_residual_on_field
from trudlab.pde import (
    DIRECT_IMPLICIT,
    LOG_IMPLICIT,
    ConfigError,
    SolverConfig,
    SolverError,
    comparison_check,
    max_principle_check,
    measure_decay_rate,
    solve_trudinger_radial,
)

from conftest import sinc_profile


def heat_oracle(r, t, amplitude=0.5):
    return 1.0 + amplitude * np.exp(-np.pi ** 2 * np.asarray(t)) * sinc_profile(r)


def heat_config(nodes=101, t_end=0.05, dt=1e-4, scheme=LOG_IMPLICIT):
    return SolverConfig(
        p=Exponent.finite(2), n=3, R=1.0, nodes=nodes, t_end=t_end,
        scheme=scheme, boundary=lambda t: 1.0,
        initial=lambda r: heat_oracle(r, 0.0), dt=dt)


class TestConfigValidation:
    def test_incompatible_corner_rejected(self):
        cfg = SolverConfig(p=Exponent.finite(2), n=2, R=1.0, nodes=21, t_end=0.1,
                           scheme=LOG_IMPLICIT, boundary=lambda t: 2.0,
                           initial=lambda r: 1.0 + 0 * np.asarray(r))
        with pytest.raises(ConfigError):
            solve_trudinger_radial(cfg)

    def test_log_scheme_needs_positive_data(self):
        cfg = SolverConfig(p=Exponent.finite(2), n=2, R=1.0, nodes=21, t_end=0.1,
                           scheme=LOG_IMPLICIT, boundary=lambda t: 0.0,
                           initial=lambda r: 1.0 - np.asarray(r, float) ** 2)
        with pytest.raises(ConfigError):
            solve_trudinger_radial(cfg)

    def test_direct_allows_zero_boundary(self):
        cfg = SolverConfig(p=Exponent.finite(2), n=3, R=1.0, nodes=41, t_end=1e-3,
                           scheme=DIRECT_IMPLICIT, boundary=lambda t: 0.0,
                           initial=sinc_profile)
        field = solve_trudinger_radial(cfg)
        assert field.values.min() > -1e-12

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            SolverConfig(p=Exponent.finite(2), n=2, R=1.0, nodes=21, t_end=0.1,
                         scheme="magic", boundary=lambda t: 1.0,
                         initial=lambda r: 1.0 + 0 * np.asarray(r))

    def test_config_is_frozen(self):
        cfg = heat_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.nodes = 11


class TestExactCases:
    @pytest.mark.parametrize("scheme", [LOG_IMPLICIT, DIRECT_IMPLICIT])
    def test_constants_are_solutions(self, scheme):
        cfg = SolverConfig(p=Exponent.finite(3), n=2, R=1.0, nodes=31, t_end=0.2,
                           scheme=scheme, boundary=lambda t: 2.5,
                           initial=lambda r: 2.5 + 0 * np.asarray(r, float),
                           dt=0.02 if scheme == LOG_IMPLICIT else None)
        field = solve_trudinger_radial(cfg)
        assert np.all(field.values == 2.5)
        sup_v, inf_v = max_principle_check(field)
        assert sup_v == 0.0 and inf_v == 0.0

    def test_heat_oracle_log_implicit(self):
        cfg = heat_config(nodes=201, t_end=0.1, dt=2e-4)
        field = solve_trudinger_radial(cfg)
        err = np.abs(field.values[-1] - heat_oracle(field.grid.r, 0.1)).max()
        assert err < 1e-3

    def test_heat_oracle_direct_implicit_zero_boundary(self):
        cfg = SolverConfig(p=Exponent.finite(2), n=3, R=1.0, nodes=151, t_end=0.05,
                           scheme=DIRECT_IMPLICIT, boundary=lambda t: 0.0,
                           initial=sinc_profile)
        field = solve_trudinger_radial(cfg)
        exact = np.exp(-np.pi ** 2 * field.times[-1]) * sinc_profile(field.grid.r)
        rel = np.abs(field.values[-1] - exact).max() / exact.max()
        assert rel < 1e-3

    def test_infinity_branch_constant_and_positive(self):
        cfg = SolverConfig(p=INFINITY, n=2, R=1.0, nodes=41, t_end=0.1,
                           scheme=LOG_IMPLICIT, boundary=lambda t: 1.0,
                           initial=lambda r: 1.0 + 0.3 * (1.0 - np.asarray(r, float) ** 2),
                           dt=5e-3)
        field = solve_trudinger_radial(cfg)
        assert field.values.min() > 0
        sup_v, inf_v = max_principle_check(field)
        bound = field.metadata["consistency_bound_u"]
        assert sup_v <= 5 * bound and inf_v <= 5 * bound


class TestConvergenceOrders:
    def test_first_order_in_dt_log_implicit(self):
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            cfg = heat_config(nodes=401, t_end=0.1, dt=dt)
            field = solve_trudinger_radial(cfg)
            errs.append(np.abs(field.values[-1] - heat_oracle(field.grid.r, 0.1)).max())
        slope = np.polyfit(np.log([4e-3, 2e-3, 1e-3]), np.log(errs), 1)[0]
        assert 0.85 <= slope <= 1.15, (errs, slope)

    def test_second_order_in_h_log_implicit(self):
        errs, hs = [], []
        for nodes in (26, 51, 101):
            cfg = heat_config(nodes=nodes, t_end=0.02, dt=2e-6)
            field = solve_trudinger_radial(cfg)
            errs.append(np.abs(field.values[-1] - heat_oracle(field.grid.r, 0.02)).max())
            hs.append(1.0 / (nodes - 1))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.8 <= slope <= 2.2, (errs, slope)

    def test_second_order_in_h_direct_implicit(self):
        errs, hs = [], []
        for nodes in (26, 51, 101):
            cfg = SolverConfig(p=Exponent.finite(2), n=3, R=1.0, nodes=nodes,
                               t_end=0.02, scheme=DIRECT_IMPLICIT,
                               boundary=lambda t: 0.0, initial=sinc_profile)
            field = solve_trudinger_radial(cfg)
            exact = np.exp(-np.pi ** 2 * field.times[-1]) * sinc_profile(field.grid.r)
            errs.append(np.abs(field.values[-1] - exact).max())
            hs.append(1.0 / (nodes - 1))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.8 <= slope <= 2.2, (errs, slope)

    def test_scheme_cross_check(self):
        cfg_a = heat_config(nodes=101, t_end=0.02, dt=2e-5, scheme=LOG_IMPLICIT)
        a = solve_trudinger_radial(cfg_a)
        cfg_b = heat_config(nodes=101, t_end=0.02, scheme=DIRECT_IMPLICIT, dt=None)
        b = solve_trudinger_radial(cfg_b)
        diff = np.abs(a.values[-1] - b.values[-1]).max()
        bound = max(a.metadata["consistency_bound_u"], b.metadata["consistency_bound_u"])
        assert diff <= 3.0 * bound, (diff, bound)


class TestFieldProperties:
    def test_audit_below_reported_bound(self):
        cfg = heat_config(nodes=101, t_end=0.05, dt=1e-4)
        field = solve_trudinger_radial(cfg)
        res = fd_residual_on_field(field, cfg.p, cfg.n)
        assert np.abs(res).max() <= field.metadata["consistency_bound_residual"] + 1e-12

    def test_positivity_log_implicit(self):
        cfg = heat_config(nodes=61, t_end=0.05, dt=5e-4)
        field = solve_trudinger_radial(cfg)
        assert field.values.min() > 0.0

    def test_boundedness_between_data(self):
        cfg = heat_config(nodes=61, t_end=0.2, dt=1e-3)
        field = solve_trudinger_radial(cfg)
        bound = field.metadata["consistency_bound_u"]
        data = field.parabolic_boundary_values()
        assert field.values.max() <= data.max() + bound
        assert field.values.min() >= data.min() - bound

    def test_max_principle_heat_attained_at_start(self):
        cfg = SolverConfig(p=Exponent.finite(2), n=3, R=1.0, nodes=101, t_end=0.02,
                           scheme=DIRECT_IMPLICIT, boundary=lambda t: 0.0,
                           initial=sinc_profile)
        field = solve_trudinger_radial(cfg)
        sup_v, inf_v = max_principle_check(field)
        bound = field.metadata["consistency_bound_u"]
        assert sup_v <= bound  # interior sup below the t=0 sup
        assert inf_v <= bound

    def test_straddle_monotone_extrema(self):
        # boundary pinned at 1, initial data straddling it: sup falls, inf rises
        straddle = lambda r: 1.0 + 0.4 * np.cos(2 * np.pi * np.asarray(r, float)) \
            * (1.0 - np.asarray(r, float) ** 2)
        cfg = SolverConfig(p=Exponent.finite(3), n=2, R=1.0, nodes=81, t_end=0.4,
                           scheme=LOG_IMPLICIT, boundary=lambda t: 1.0,
                           initial=straddle, dt=5e-3)
        field = solve_trudinger_radial(cfg)
        bound = field.metadata["consistency_bound_u"]
        assert np.all(np.diff(field.sup_per_level) <= bound + 1e-12)
        assert np.all(np.diff(field.inf_per_level) >= -bound - 1e-12)

    @pytest.mark.parametrize("p", [Exponent.finite(2), Exponent.finite(3),
                                   Exponent.finite(4), INFINITY],
                             ids=["p2", "p3", "p4", "inf"])
    def test_max_principle_under_resolved_spike(self, p):
        # a spike five nodes wide: the centered gradient term must not
        # overshoot the data where the one-sided slopes disagree
        spike = lambda r: 1.0 + 10.0 * np.exp(-((np.asarray(r, float) - 0.5) / 0.05) ** 2)
        cfg = SolverConfig(p=p, n=2, R=1.0, nodes=41, t_end=0.05, scheme=LOG_IMPLICIT,
                           boundary=lambda t: 1.0, initial=spike, dt=5e-4)
        field = solve_trudinger_radial(cfg)
        sup_v, inf_v = max_principle_check(field)
        assert sup_v <= 1e-6 and inf_v <= 1e-6
        assert field.values.min() > 0.0

    @pytest.mark.parametrize("p", [Exponent.finite(2.5), Exponent.finite(3),
                                   Exponent.finite(4), INFINITY],
                             ids=["p2.5", "p3", "p4", "inf"])
    def test_solution_bound_ignores_zero_boundary(self, p):
        # the time factor's minimum is taken where the audit looks, off r = R
        cfg = SolverConfig(p=p, n=2, R=1.0, nodes=101, t_end=0.5, scheme=DIRECT_IMPLICIT,
                           boundary=lambda t: 0.0,
                           initial=lambda r: 1.0 - np.asarray(r, float) ** 2)
        field = solve_trudinger_radial(cfg)
        assert field.metadata["consistency_bound_u"] < 1e4

    def test_csv_and_manifest_export(self, tmp_path):
        cfg = heat_config(nodes=21, t_end=0.01, dt=1e-3)
        field = solve_trudinger_radial(cfg)
        csv_path = tmp_path / "field.csv"
        field.to_csv(csv_path)
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "t,r,u"
        assert len(rows) == 1 + field.times.size * field.grid.count
        man_path = tmp_path / "run.json"
        field.save_manifest(man_path)
        import json

        manifest = json.loads(man_path.read_text())
        assert manifest["scheme"] == LOG_IMPLICIT
        assert "consistency_bound_u" in manifest


    def test_csv_bytes_match_csv_writer(self, tmp_path):
        values = np.array([[-0.0, 1e-300, 1.0 / 3.0],
                           [1.7976931348623157e308, -2.5e17, 123456789.123456789]])
        field = SpaceTimeField(values, RadialGrid(2.0, 3), np.array([0.0, 0.1 + 0.2]))
        field.to_csv(tmp_path / "field.csv")
        with open(tmp_path / "reference.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "r", "u"])
            for t, level in zip(field.times, values):
                for r, u in zip(field.grid.r, level):
                    writer.writerow([f"{t:.17g}", f"{r:.17g}", f"{u:.17g}"])
        got = (tmp_path / "field.csv").read_bytes()
        assert got == (tmp_path / "reference.csv").read_bytes()
        assert got.count(b"\r\n") == 7 and b",-0\r\n" in got


class TestNewtonStep:
    """The step residuals, their assembled Jacobians and the linear solve."""

    @staticmethod
    def state(p, nodes=41):
        grid = RadialGrid(1.0, nodes)
        st = pde._stencil(grid, 2, p)
        r = grid.r
        # a narrow off-center bump: one-sided slopes disagree around it
        v_prev = np.log(1.0 + 0.3 * (1.0 - r ** 2) + 0.4 * np.exp(-((r - 0.55) / 0.06) ** 2))
        v = v_prev + 0.02 * np.sin(3.0 * r) * (1.0 - r)
        return st, v_prev, v

    @pytest.mark.parametrize("p", [Exponent.finite(2), Exponent.finite(3), INFINITY],
                             ids=["p2", "p3", "inf"])
    def test_jacobian_matches_central_differences(self, p):
        st, v_prev, v = self.state(p)
        dt, w = 2e-3, p.time_weight

        def residual(x):
            return pde._log_residual(x, v_prev, dt, w, st)[0]

        _, cache = pde._log_residual(v, v_prev, dt, w, st)
        self.assert_central_differences(
            residual, v, pde._log_jacobian(cache, st, w / dt, st.nodes * st.h))

    @pytest.mark.parametrize("p", [Exponent.finite(2), Exponent.finite(3), INFINITY],
                             ids=["p2", "p3", "inf"])
    def test_direct_jacobian_matches_central_differences(self, p):
        st, v_prev, v = self.state(p)
        c_dt, B_dt = 1.5 / 2e-3, np.exp(v_prev[:-1]) / 2e-3

        def residual(x):
            return pde._direct_residual(x, c_dt, B_dt, st)[0]

        u = np.exp(v)
        _, cache = pde._direct_residual(u, c_dt, B_dt, st)
        self.assert_central_differences(
            residual, u, pde._direct_jacobian(cache, st, c_dt, st.nodes * st.h))

    @staticmethod
    def assert_central_differences(residual, v, diagonals):
        lower, diag, upper = diagonals
        jac = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        m, eps = v.size - 1, 1e-6
        fd = np.empty((m, m))
        for j in range(m):  # the boundary node m is data, not an unknown
            e = np.zeros_like(v)
            e[j] = eps
            fd[:, j] = (residual(v + e) - residual(v - e)) / (2.0 * eps)
        scale = np.abs(jac).max()
        np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-6 * scale)

    @pytest.mark.parametrize("scheme", [LOG_IMPLICIT, DIRECT_IMPLICIT])
    def test_singular_linear_solve_raises(self, monkeypatch, scheme):
        def singular(dl, d, du, b, *flags):
            return dl, d, du, b, 1

        monkeypatch.setattr(pde, "dgtsv", singular)
        with pytest.raises(SolverError, match="linear solve"):
            solve_trudinger_radial(heat_config(nodes=21, t_end=0.01, dt=1e-3, scheme=scheme))

    def test_direct_newton_failure_raises(self, monkeypatch):
        # no dt halving on the direct scheme: the failed step is reported
        monkeypatch.setattr(pde, "MAX_NEWTON", 1)
        cfg = SolverConfig(p=Exponent.finite(3), n=2, R=1.0, nodes=21, t_end=0.05,
                           scheme=DIRECT_IMPLICIT, boundary=lambda t: 0.0,
                           initial=sinc_profile, tolerance=1e-300)
        with pytest.raises(SolverError, match=r"newton failed at t=0.00025 \(level 1\)"):
            solve_trudinger_radial(cfg)


class TestDiscreteBalance:
    @pytest.mark.parametrize("pv", [2.0, 3.0, 4.0])
    @pytest.mark.parametrize("n", [2, 3])
    def test_direct_step_balance(self, pv, n):
        # per step, sum vol*(c b(u_{k+1}) - B_k) = dt * flux through the last
        # face; a tight Newton tolerance leaves only the scheme's arithmetic
        p = Exponent.finite(pv)
        cfg = SolverConfig(p=p, n=n, R=1.0, nodes=41, t_end=0.05, scheme=DIRECT_IMPLICIT,
                           boundary=lambda t: 0.0, initial=sinc_profile, tolerance=1e-14)
        field = solve_trudinger_radial(cfg)
        d, u, r, h = n, field.values, field.grid.r, field.grid.h
        edges = np.concatenate([[0.0], 0.5 * (r[:-1] + r[1:])])
        vol = (edges[1:] ** d - edges[:-1] ** d) / d  # cells of nodes 0..m-1
        b = np.abs(u) ** (pv - 2.0) * u
        dt = np.diff(field.times)
        for k in range(1, field.times.size):
            c, B = (1.0, b[0]) if k == 1 else (1.5, 2.0 * b[k - 1] - 0.5 * b[k - 2])
            q = (u[k, -1] - u[k, -2]) / h
            face_flux = edges[-1] ** (d - 1) * abs(q) ** (pv - 2.0) * q
            assert vol.dot(c * b[k, :-1] - B[:-1]) == pytest.approx(
                dt[k - 1] * face_flux, rel=1e-12)


class TestComparison:
    def test_identical_fields(self):
        cfg = heat_config(nodes=41, t_end=0.02, dt=5e-4)
        a = solve_trudinger_radial(cfg)
        assert comparison_check(a, a) == pytest.approx(0.0, abs=1e-15)

    def test_scaled_field_is_solution(self):
        # joint homogeneity: u a solution implies c u a solution; the discrete
        # log-form scheme shifts by log c exactly
        base = SolverConfig(p=Exponent.finite(3), n=2, R=1.0, nodes=61, t_end=0.1,
                            scheme=LOG_IMPLICIT, boundary=lambda t: 1.0,
                            initial=lambda r: 1.0 + 0.5 * (1 - np.asarray(r, float) ** 2),
                            dt=5e-3)
        b = solve_trudinger_radial(base)
        half = SolverConfig(p=Exponent.finite(3), n=2, R=1.0, nodes=61, t_end=0.1,
                            scheme=LOG_IMPLICIT, boundary=lambda t: 0.5,
                            initial=lambda r: 0.5 * (1.0 + 0.5 * (1 - np.asarray(r, float) ** 2)),
                            dt=5e-3)
        a = solve_trudinger_radial(half)
        ratio = a.values / b.values
        assert np.abs(ratio - 0.5).max() < 1e-10
        assert comparison_check(a, b) <= 1e-10
        # FD residuals scale with the (p-1)-homogeneity
        res_a = fd_residual_on_field(a, base.p, base.n)
        res_b = fd_residual_on_field(b, base.p, base.n)
        assert np.abs(res_a - 0.5 ** 2 * res_b).max() < 1e-10

    def test_ordered_data_pairs(self):
        rng = np.random.default_rng(42)
        for pv in (2.0, 3.0):
            for _ in range(3):
                lo_amp = rng.uniform(0.1, 0.4)
                hi_amp = lo_amp + rng.uniform(0.1, 0.4)
                base = rng.uniform(0.8, 1.2)

                def make(amp):
                    return SolverConfig(
                        p=Exponent.finite(pv), n=2, R=1.0, nodes=51, t_end=0.1,
                        scheme=LOG_IMPLICIT, boundary=lambda t: base,
                        initial=lambda r: base + amp * (1.0 - np.asarray(r, float) ** 2),
                        dt=5e-3)

                a = solve_trudinger_radial(make(lo_amp))
                b = solve_trudinger_radial(make(hi_amp))
                bound = max(a.metadata["consistency_bound_u"],
                            b.metadata["consistency_bound_u"])
                assert comparison_check(a, b) <= 5.0 * bound

    def test_grid_mismatch_rejected(self):
        a = solve_trudinger_radial(heat_config(nodes=21, t_end=0.01, dt=1e-3))
        b = solve_trudinger_radial(heat_config(nodes=41, t_end=0.01, dt=1e-3))
        from trudlab.pde import SolverError

        with pytest.raises(SolverError):
            comparison_check(a, b)


class TestDecayMeasurement:
    def test_synthetic_exponential(self):
        grid = RadialGrid(1.0, 21)
        times = np.linspace(0.0, 2.0, 41)
        psi = 1.0 - grid.r ** 2
        vals = np.exp(-3.0 * times)[:, None] * psi[None, :]
        field = SpaceTimeField(vals, grid, times)
        slope = measure_decay_rate(field, (0.5, 2.0))
        assert slope == pytest.approx(-3.0, abs=1e-10)

    def test_window_validation(self):
        grid = RadialGrid(1.0, 11)
        field = SpaceTimeField(np.ones((3, 11)), grid, np.array([0.0, 0.5, 1.0]))
        from trudlab.pde import SolverError

        with pytest.raises(SolverError):
            measure_decay_rate(field, (2.0, 3.0))
