"""Radial time stepping: oracles, convergence orders, order properties.

The p = 2 case is the heat equation; 1 + c e^{-pi^2 t} sin(pi r)/(pi r) is an
exact positive solution on the unit ball in three dimensions and serves as
the separation-of-variables oracle throughout.
"""

import csv
import dataclasses
import warnings

import numpy as np
import pytest

from trudlab import experiments, pde
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

    @pytest.mark.parametrize("change", [{"R": -1.0}, {"R": 0.0}, {"R": float("nan")},
                                        {"R": float("inf")}, {"t_end": float("nan")},
                                        {"dt": -1e-3}])
    def test_bad_geometry_or_time_rejected(self, change):
        # rejected when the config is built, before any grid or step exists
        with pytest.raises(ConfigError):
            dataclasses.replace(heat_config(), **change)


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

    @staticmethod
    def kernel(g, k, d):
        """t^-m exp(-c r^beta t^-s), an exact positive solution of the law (g, k, d)."""
        m, beta, s = d / (g * (g - 1.0)), g / (g - 1.0), 1.0 / (g - 1.0)
        c = (g - 1.0) * k ** (1.0 / (g - 1.0)) / g ** beta
        return lambda r, t: t ** -m * np.exp(-c * np.asarray(r, float) ** beta * t ** -s)

    @pytest.mark.parametrize("p, n, law, bound", [
        (Exponent.finite(2.5), 2, (2.5, 1.0, 2.0), 8.4e-5),
        (Exponent.finite(3), 2, (3.0, 1.0, 2.0), 1.16e-4),
        (Exponent.finite(4), 3, (4.0, 1.0, 3.0), 1.88e-4),
        (INFINITY, 2, (4.0, 3.0, 1.0), 2.16e-4),
    ], ids=["p2.5", "p3", "p4", "inf"])
    def test_kernel_oracle_log_implicit(self, p, n, law, bound):
        # the kernel from t = 0.2, its own trace on r = 1; the bounds are 1.5x
        # the errors measured at 101 nodes and dt = 1e-4
        kernel = self.kernel(*law)
        cfg = SolverConfig(p=p, n=n, R=1.0, nodes=101, t_end=0.1, scheme=LOG_IMPLICIT,
                           boundary=lambda t: kernel(1.0, t + 0.2),
                           initial=lambda r: kernel(r, 0.2), dt=1e-4)
        field = solve_trudinger_radial(cfg)
        assert field.times[-1] == pytest.approx(0.1, abs=1e-12)
        exact = kernel(field.grid.r, 0.1 + 0.2)
        assert np.abs(field.values[-1] - exact).max() / exact.max() < bound

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


class TestScalingLaw:
    """u_R(r, t) = u_1(r/R, t/R^g) solves the problem on B_R: the weights
    scale by powers of 2 on B_2, so the two solves agree bit for bit."""

    @pytest.mark.parametrize("scheme", [LOG_IMPLICIT, DIRECT_IMPLICIT])
    @pytest.mark.parametrize("p", [Exponent.finite(2), Exponent.finite(3), Exponent.finite(4),
                                   INFINITY], ids=["p2", "p3", "p4", "inf"])
    def test_ball_of_radius_two_is_the_unit_ball_rescaled(self, p, scheme):
        stretch = 2.0 ** p.g  # exact: g is an integer here

        def config(R, t_end, dt):
            return SolverConfig(
                p=p, n=2, R=R, nodes=41, t_end=t_end, scheme=scheme, boundary=lambda t: 1.0,
                initial=lambda r: 1.0 + 0.4 * np.cos(0.5 * np.pi * np.asarray(r, float) / R) ** 2,
                dt=dt)

        unit = solve_trudinger_radial(config(1.0, 0.05, 1e-3))
        wide = solve_trudinger_radial(config(2.0, 0.05 * stretch, 1e-3 * stretch))
        assert unit.times.size > 10
        assert wide.values.tobytes() == unit.values.tobytes()
        assert wide.times.tobytes() == (unit.times * stretch).tobytes()


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

    def test_log_blowup_is_a_positivity_failure(self):
        # a boundary falling to e^-700 drives log u past the largest double's
        # log: the level's exp overflows, which is a SolverError, not a warning
        cfg = SolverConfig(p=Exponent.finite(2), n=2, R=1.0, nodes=21, t_end=0.01,
                           scheme=LOG_IMPLICIT, boundary=lambda t: np.exp(-700.0 * t / 0.01),
                           initial=lambda r: np.ones_like(r), dt=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="positivity loss at t="):
                solve_trudinger_radial(cfg)

    def test_boundedness_between_data(self):
        cfg = heat_config(nodes=61, t_end=0.2, dt=1e-3)
        field = solve_trudinger_radial(cfg)
        bound = field.metadata["consistency_bound_u"]
        data = np.concatenate([field.values[0, :], field.values[1:, -1]])
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
        import json

        manifest = json.loads(json.dumps(field.manifest()))
        assert manifest["scheme"] == LOG_IMPLICIT
        assert "consistency_bound_u" in manifest

    def test_field_is_frozen(self):
        field = solve_trudinger_radial(heat_config(nodes=21, t_end=0.01, dt=1e-3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            field.metadata = {}

    def test_field_contents_are_frozen(self):
        field = solve_trudinger_radial(heat_config(nodes=21, t_end=0.01, dt=1e-3))
        with pytest.raises(ValueError):
            field.values[0, 0] = 5.0
        with pytest.raises(ValueError):
            field.times[-1] = 1.0
        with pytest.raises(TypeError):
            field.metadata["scheme"] = "other"
        # a replaced field extends the manifest without touching the original
        extended = dataclasses.replace(field, metadata={**field.metadata, "x": 1})
        assert extended.manifest()["x"] == 1 and "x" not in field.metadata

    def test_field_freeze_leaves_caller_arrays(self):
        values, times = np.ones((2, 3)), np.array([0.0, 1.0])
        field = SpaceTimeField(values, RadialGrid(1.0, 3), times)
        assert values.flags.writeable and times.flags.writeable
        assert np.shares_memory(field.values, values) and np.shares_memory(field.times, times)


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

    def test_solver_field_csv_bytes_match_csv_writer(self, tmp_path):
        # the row template is built per grid, so check a real field of many rows
        field = solve_trudinger_radial(heat_config(nodes=21, t_end=0.01, dt=1e-3))
        assert field.values.shape == (11, 21)
        field.to_csv(tmp_path / "field.csv")
        with open(tmp_path / "reference.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "r", "u"])
            for t, level in zip(field.times, field.values):
                for r, u in zip(field.grid.r, level):
                    writer.writerow([f"{t:.17g}", f"{r:.17g}", f"{u:.17g}"])
        got = (tmp_path / "field.csv").read_bytes()
        assert got == (tmp_path / "reference.csv").read_bytes()
        assert got.count(b"\r\n") == 1 + 11 * 21


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

        log_residual = pde._log_residual(st, v.size)

        def residual(x):
            return log_residual(x, v_prev, w / dt)[0][:-1]

        _, cache = log_residual(v, v_prev, w / dt)
        self.assert_central_differences(
            residual, v, self.lone(pde._log_jacobian(st, v.size)(cache, w / dt)))

    @pytest.mark.parametrize("p", [Exponent.finite(2), Exponent.finite(3), INFINITY],
                             ids=["p2", "p3", "inf"])
    def test_direct_jacobian_matches_central_differences(self, p):
        st, v_prev, v = self.state(p)
        c_dt, B_dt = 1.5 / 2e-3, np.exp(v_prev) / 2e-3

        u = np.exp(v)
        direct_residual = pde._direct_residual(st, u.size)

        def residual(x):
            return direct_residual(x, c_dt, B_dt)[0][:-1]

        _, cache = direct_residual(u, c_dt, B_dt)
        self.assert_central_differences(
            residual, u, self.lone(pde._direct_jacobian(st, u.size)(cache, c_dt)))

    @staticmethod
    def lone(diagonals):
        """A one-member batch's diagonals without its boundary identity row."""
        lower, diag, upper = diagonals
        return lower[:-1], diag[:-1], upper[:-1]

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

    @pytest.mark.parametrize("pv", [2.0, 2.5, 3.0, 3.5, 4.0])
    def test_flux_power_is_the_float_power_bit_for_bit(self, pv):
        # flux_power picks its ufunc once per g; on an array it gives the bits
        # of |q| ** (g - 2.0) (q and the scalar 1 at g = 2), down to signed
        # zeros, subnormals and overflow to inf
        st = pde._stencil(RadialGrid(1.0, 11), 2, Exponent.finite(pv))
        q = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, np.inf, -np.inf,
                      0.3, -1.7, 2.5e-8, 41.0])
        with np.errstate(over="ignore"):
            flux, power = st.flux_power(q)
            want_power = 1.0 if pv == 2.0 else np.abs(q) ** (pv - 2.0)
            want_flux = q if pv == 2.0 else want_power * q
        assert type(power) is type(want_power)
        assert np.asarray(power).tobytes() == np.asarray(want_power).tobytes()
        assert flux.dtype == want_flux.dtype and flux.tobytes() == want_flux.tobytes()

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


class TestWorkspace:
    """A solve reuses its scratch and diagonals; what outlives a call does not."""

    @staticmethod
    def bump(p, amplitude=0.4):
        return SolverConfig(p=p, n=2, R=1.0, nodes=41, t_end=0.08, scheme=LOG_IMPLICIT,
                            boundary=lambda t: 1.0,
                            initial=lambda r: 1.0 + amplitude * (1.0 - np.asarray(r, float) ** 2),
                            dt=4e-3)

    @pytest.mark.parametrize("amplitude", [0.4, 0.0], ids=["bump", "constant"])
    @pytest.mark.parametrize("p", [Exponent.finite(2), Exponent.finite(3), INFINITY],
                             ids=["p2", "p3", "inf"])
    def test_field_survives_later_solves(self, monkeypatch, p, amplitude):
        # the stencil is cached and shared, so scratch kept on it would leak
        # into every later solve on the same grid, n and p; constant data
        # converge at 0 iterations, so each level is its predictor start
        levels = {}
        extrapolate = pde._extrapolate

        def recording(history, t):
            for _, level in history:  # the log data, then each accepted log level
                levels.setdefault(id(level), level)
            return extrapolate(history, t)

        monkeypatch.setattr(pde, "_extrapolate", recording)
        field = solve_trudinger_radial(self.bump(p, amplitude))
        saved = (field.values.copy(), field.times.copy(), dict(field.metadata))
        accepted = list(levels.values())
        # every level but the last predicts a later one
        assert len(accepted) == field.times.size - 1
        for amplitude in (0.1, 0.7):
            solve_trudinger_radial(self.bump(p, amplitude))
        assert np.array_equal(field.values, saved[0])
        assert np.array_equal(field.times, saved[1])
        assert dict(field.metadata) == saved[2]
        for i, a in enumerate(accepted):
            assert not any(np.shares_memory(a, b) for b in accepted[i + 1:])
        values = field.values
        for i in range(values.shape[0]):
            assert not any(np.shares_memory(values[i], values[j])
                           for j in range(i + 1, values.shape[0]))

    @pytest.mark.parametrize("p", [Exponent.finite(2), Exponent.finite(3)], ids=["p2", "p3"])
    def test_residual_outputs_own_their_memory(self, p):
        # F and the cache the Jacobian reads outlive the call; at g = 2 the
        # flux of the centred gradients is the scratch itself
        st, v_prev, v = TestNewtonStep.state(p)
        residual = pde._log_residual(st, v.size)
        F, cache = residual(v, v_prev, 250.0)
        kept = [F.copy(), *(np.array(a, copy=True) for a in cache)]
        residual(v_prev, v, 125.0)
        for got, want in zip([F, *cache], kept):
            assert np.array_equal(got, want)
        scratch = list(self.arrays_held(residual))
        assert len(scratch) >= 5  # q and c, their views, the update difference, the faces
        for out in [F, *cache]:
            assert not any(np.shares_memory(out, a) for a in scratch)

    @classmethod
    def arrays_held(cls, fn):
        """Every array a built closure holds, its nested closures' too."""
        for cell in fn.__closure__ or ():
            held = cell.cell_contents
            if isinstance(held, np.ndarray):
                yield held
            elif callable(held) and getattr(held, "__closure__", None):
                yield from cls.arrays_held(held)


class TestStencilJacobian:
    """At g = 2 flux'(q) = 1, so the flux Jacobian is built once per stencil."""

    @pytest.mark.parametrize("members", [1, 3])
    def test_is_the_general_formula_at_power_one(self, members):
        grid = RadialGrid(1.0, 41)
        st = pde._stencil(grid, 2, Exponent.finite(2), members)
        size = members * grid.count
        fill, general = pde._flux_jacobian(st._replace(jacobian=None), size)
        fill(1.0)
        for got, want in zip(st.jacobian, general):
            assert not got.flags.writeable
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        lower, diag, upper = st.jacobian
        assert lower.size == upper.size == size - 1 and diag.size == size
        assert np.all(lower[st.seams] == 0.0) and np.all(upper[st.seams] == 0.0)
        assert lower[st.seams].size == upper[st.seams].size == members - 1
        # each member's boundary row is the identity
        assert np.all(diag[st.edges] == 1.0)
        assert np.all(lower[grid.count - 2::grid.count] == 0.0)
        assert pde._stencil(grid, 2, Exponent.finite(3), members).jacobian is None

    def test_solves_leave_it_unchanged(self):
        # dgtsv overwrites the diagonals it is handed, so a solve that handed
        # it the stencil's own arrays would corrupt every later solve
        log = TestWorkspace.bump(Exponent.finite(2))
        direct = dataclasses.replace(log, scheme=DIRECT_IMPLICIT)
        sts = [pde._stencil(log.grid, 2, log.p, members) for members in (1, 3)]
        saved = [[a.copy() for a in st.jacobian] for st in sts]
        lone = solve_trudinger_radial(log)
        assert lone.metadata["newton_iterations_total"] > 0
        batch = pde.solve_members([dataclasses.replace(direct, initial=f) for f in (
            lambda r: 1.0 + 0.0 * r, lambda r: 1.0 + 0.3 * (1.0 - r ** 2), log.initial)])
        assert batch[2].metadata["newton_iterations_total"] > 0
        for members, st, kept in zip((1, 3), sts, saved):
            assert pde._stencil(log.grid, 2, log.p, members) is st
            for got, want in zip(st.jacobian, kept):
                assert got.tobytes() == want.tobytes()
        assert np.array_equal(solve_trudinger_radial(log).values, lone.values)


MEMBER_EXPONENTS = [Exponent.finite(2), Exponent.finite(2.5), Exponent.finite(3),
                    Exponent.finite(4), INFINITY]


class TestMembers:
    """`solve_members`: one direct-implicit loop for several initial data."""

    DATA = {
        "zero": lambda r: 0.0 * np.asarray(r, float),  # converged at 0 iterations
        "parabola": lambda r: 1.0 - np.asarray(r, float) ** 2,
        "bump": lambda r: np.cos(0.5 * np.pi * np.asarray(r, float)) ** 4,
        "hat": lambda r: np.minimum(1.0, 2.0 - 2.0 * np.asarray(r, float)),
    }

    @staticmethod
    def members(p, n, names, **kw):
        base = SolverConfig(p=p, n=n, R=1.0, nodes=41, t_end=0.1, dt=2e-3,
                            scheme=DIRECT_IMPLICIT, boundary=lambda t: 0.0,
                            initial=TestMembers.DATA[names[0]], **kw)
        return [dataclasses.replace(base, initial=TestMembers.DATA[k]) for k in names]

    @pytest.mark.parametrize("p", MEMBER_EXPONENTS, ids=lambda p: p.label)
    @pytest.mark.parametrize("n", [2, 3])
    def test_each_member_is_its_lone_solve_in_either_order(self, p, n):
        configs = self.members(p, n, ["parabola", "zero", "bump", "hat"])
        batch = pde.solve_members(configs)
        reverse = pde.solve_members(configs[::-1])[::-1]
        # members converge at different iterations: the zero member at none,
        # and beyond the linear p = 2 the others differ among themselves
        totals = {f.metadata["newton_iterations_total"] for f in batch}
        assert len(totals) >= (2 if p.g == 2.0 else 3), totals
        for cfg, got, rev in zip(configs, batch, reverse):
            lone = solve_trudinger_radial(cfg)
            for field in (got, rev):
                assert np.array_equal(field.values, lone.values)
                assert np.array_equal(field.times, lone.times)
                assert dict(field.metadata) == dict(lone.metadata)

    @pytest.mark.parametrize("order", [["zero", "bump"], ["bump", "zero"]])
    def test_failing_member_is_named_with_its_level(self, monkeypatch, order):
        monkeypatch.setattr(pde, "MAX_NEWTON", 1)
        configs = self.members(Exponent.finite(3), 2, order)
        with pytest.raises(SolverError, match=rf"\(level 1\) for member {order.index('bump')},"):
            pde.solve_members(configs)

    def test_members_must_share_all_but_initial(self):
        a, b = self.members(Exponent.finite(3), 2, ["parabola", "bump"])
        for other in (dataclasses.replace(b, nodes=21), dataclasses.replace(b, t_end=0.2),
                      dataclasses.replace(b, boundary=lambda t: 0.0)):
            with pytest.raises(ConfigError, match="but initial"):
                pde.solve_members([a, other])
        with pytest.raises(ConfigError, match="at least one"):
            pde.solve_members([])

    @pytest.mark.parametrize("scheme", [LOG_IMPLICIT, DIRECT_IMPLICIT])
    def test_initial_data_are_sampled_once_per_member(self, scheme):
        # the array the config validates is the array the solver advances
        calls = []

        def counting(name, shift):
            def initial(r):
                calls.append(name)
                return 1.0 + shift * (1.0 - np.asarray(r, float) ** 2)
            return initial

        base = SolverConfig(p=Exponent.finite(3), n=2, R=1.0, nodes=21, t_end=0.01, dt=1e-3,
                            scheme=scheme, boundary=lambda t: 1.0, initial=None)
        names = ["a"] if scheme == LOG_IMPLICIT else ["a", "b", "c"]
        configs = [dataclasses.replace(base, initial=counting(k, 0.1 * (j + 1)))
                   for j, k in enumerate(names)]
        for repeat in (1, 2):
            pde.solve_members(configs)
            assert sorted(calls) == sorted(names * repeat)

    def test_log_implicit_takes_one_member(self):
        cfg = heat_config(nodes=21, t_end=0.01, dt=1e-3)
        other = dataclasses.replace(cfg, initial=lambda r: heat_oracle(r, 0.0, 0.2))
        with pytest.raises(ConfigError, match="one member"):
            pde.solve_members([cfg, other])


class TestPredictor:
    """`_extrapolate`, the Newton start of both schemes, and the work it saves."""

    def test_constant_levels_extrapolate_bit_exactly(self):
        level = np.array([2.5, np.log(2.5), 1e-300, 0.0, 7.0])
        times = (0.0, 0.013, 0.05)
        for count in (1, 2, 3):
            history = [(t, level.copy()) for t in times[:count]]
            for t_new in (0.05, 0.061, 0.37):
                assert np.array_equal(pde._extrapolate(history, t_new), level)

    def test_exact_on_quadratics_over_nonuniform_times(self):
        r = np.linspace(0.0, 1.0, 7)
        a, b, c = 1.0 + r, np.sin(3.0 * r), 0.5 - r ** 2

        def level(t):
            return a + b * t + c * t * t

        history = [(t, level(t)) for t in (0.1, 0.13, 0.2)]
        for t_new in (0.21, 0.3, 0.45):
            np.testing.assert_allclose(pde._extrapolate(history, t_new), level(t_new),
                                       rtol=0.0, atol=1e-12)

    def test_one_and_two_levels_are_constant_and_linear(self):
        x0, x1 = np.array([1.0, 2.0, 3.0]), np.array([1.5, 1.0, 3.0])
        assert np.array_equal(pde._extrapolate([(0.2, x0)], 0.7), x0)
        np.testing.assert_allclose(pde._extrapolate([(0.2, x0), (0.5, x1)], 0.7),
                                   x1 + (x1 - x0) * (0.2 / 0.3), rtol=1e-14)

    def test_uniform_times_give_the_closed_form(self):
        # the direct scheme's fixed steps: x0 + d + (d - (x1 - x2)), d = x0 - x1
        times = np.linspace(0.0, 0.37, 201).tolist()
        r = np.linspace(0.0, 1.0, 9)
        rng = np.random.default_rng(3)
        for k in range(3, 201):
            history = [(t, np.exp(-t) * (1.5 - r ** 2) + 1e-3 * rng.standard_normal(r.size))
                       for t in times[k - 3:k]]
            (_, x2), (_, x1), (_, x0) = history
            d = x0 - x1
            np.testing.assert_allclose(pde._extrapolate(history, times[k]),
                                       x0 + d + (d - (x1 - x2)), rtol=1e-15, atol=0.0)
        # and it stays exact on quadratics there
        a, b, c = 1.0 + r, np.sin(3.0 * r), 0.5 - r ** 2
        history = [(t, a + b * t + c * t * t) for t in times[40:43]]
        t_new = times[43]
        np.testing.assert_allclose(pde._extrapolate(history, t_new),
                                   a + b * t_new + c * t_new * t_new, rtol=0.0, atol=1e-12)

    def test_direct_decay_takes_about_one_iteration_per_step(self, eigen_cache):
        # the previous level as start took 3.0 iterations per step here
        eig = eigen_cache(3.0, 2, 1.0)
        cfg = SolverConfig(p=Exponent.finite(3), n=2, R=1.0, nodes=401, t_end=10.0 / eig.lam,
                           scheme=DIRECT_IMPLICIT, boundary=lambda t: 0.0,
                           initial=lambda r: np.interp(r, eig.grid.r, eig.psi))
        field = solve_trudinger_radial(cfg)
        steps = field.times.size - 1
        assert field.metadata["newton_iterations_total"] <= 1.5 * steps

    @staticmethod
    def flatten_field(monkeypatch, p, **kwargs):
        """The one field `flatten_experiment` solves for straddle data in [0.5, 2]."""
        fields = []

        def solve(cfg):
            fields.append(solve_trudinger_radial(cfg))
            return fields[-1]

        monkeypatch.setattr(experiments, "solve_trudinger_radial", solve)
        experiments.flatten_experiment(p, 2, 1.0, m=0.5, M=2.0, **kwargs)
        (field,) = fields
        return field

    def test_flatten_p3_start_needs_no_halving(self, monkeypatch):
        # extrapolating through the violent first step would fail the second;
        # the reset after a hard step keeps every step, and the 1.88 iterations
        # per step of the previous level as start drop to at most 1.6
        field = self.flatten_field(monkeypatch, Exponent.finite(3))
        assert field.grid.count == 201
        assert field.metadata["rejected_steps"] == 0
        assert field.metadata["newton_iterations_total"] <= 1.6 * (field.times.size - 1)

    @pytest.mark.parametrize("p, nodes, total, most, rejected", [
        (Exponent.finite(3), 201, 549, 26, 0),
        (Exponent.finite(2), 201, 384, 3, 0),
        (INFINITY, 41, 307, 44, 3),
    ], ids=["p3", "p2", "inf"])
    def test_flatten_newton_work_is_pinned(self, monkeypatch, p, nodes, total, most, rejected):
        # a change to the clip, the line search, the stopping test or the dt
        # halving of the lone log-implicit Newton loop shows up in these counts
        field = self.flatten_field(monkeypatch, p, nodes=nodes)
        md = field.metadata
        assert (md["newton_iterations_total"], md["newton_iterations_max"],
                md["rejected_steps"]) == (total, most, rejected)

    def test_halving_run_newton_work_is_pinned(self):
        # a finite-p log-implicit run through every change of dt: a full
        # first step, three halvings, a regrowth and a shortened last step
        cfg = SolverConfig(p=Exponent.finite(3), n=2, R=1.0, nodes=41, t_end=1.0,
                           scheme=LOG_IMPLICIT, boundary=lambda t: 1.0, dt=0.5,
                           initial=lambda r: 1.0 + 1000.0 * np.cos(0.5 * np.pi * r) ** 2)
        field = solve_trudinger_radial(cfg)
        md = field.metadata
        assert (md["rejected_steps"], md["newton_iterations_total"],
                md["newton_iterations_max"], field.times.size) == (3, 81, 20, 10)
        np.testing.assert_allclose(np.diff(field.times),
                                   [0.5] + [0.0625] * 6 + [0.08125, 0.04375], rtol=1e-12)

    def test_rejected_steps_count_halvings(self, monkeypatch):
        # the p = inf straddle data fail the first full steps; the first
        # accepted step is the t_end/200 target halved once per rejection
        field = self.flatten_field(monkeypatch, INFINITY, nodes=41)
        halvings = round(np.log2(field.times[-1] / 200.0 / field.times[1]))
        assert halvings > 0
        assert field.metadata["rejected_steps"] >= halvings


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
