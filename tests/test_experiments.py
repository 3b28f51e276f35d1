"""Scripted experiments: decay rates, flattening envelopes, whole-space bounds."""

import json
import math
import os
import re

import numpy as np
import pytest

from trudlab.barriers import default_flatten_alpha
from trudlab.exponent import INFINITY, Exponent
from trudlab.experiments import (
    decay_experiment,
    flatten_experiment,
    phragmen_lindelof_study,
    straddle_initial,
)
from trudlab.pde import LOG_IMPLICIT, SolverConfig, solve_trudinger_radial

PI2 = math.pi ** 2


@pytest.fixture(scope="module")
def heat_report():
    return decay_experiment(Exponent.finite(2), 3, 1.0, nodes=201)


@pytest.fixture(scope="module")
def p3_report():
    return decay_experiment(Exponent.finite(3), 2, 1.0, nodes=401)


@pytest.fixture(scope="module")
def p2_flatten_report():
    return flatten_experiment(Exponent.finite(2), 2, 1.0, m=0.5, M=2.0, alpha=2.0)


@pytest.fixture(scope="module")
def study_p3():
    return phragmen_lindelof_study(Exponent.finite(3), 2, m=0.5, M=2.0,
                                   eps_list=[0.0025, 0.005, 0.01],
                                   R_list=[1.0, 2.0, 4.0], t_probe=1.0)


class TestDecay:
    def test_heat_rate_is_pi_squared(self, heat_report):
        assert heat_report.measured["lambda"] == pytest.approx(PI2, abs=1e-4)
        assert heat_report.measured["eigen_slope"] == pytest.approx(-PI2, rel=0.02)
        assert heat_report.all_pass

    def test_p3_attains_half_lambda(self, p3_report):
        lam = p3_report.measured["lambda"]
        assert p3_report.measured["eigen_slope"] == pytest.approx(-lam / 2.0, rel=0.02)
        assert p3_report.passes["eigen_rate_attained"]

    def test_generic_data_inequality_only(self, p3_report):
        lam = p3_report.measured["lambda"]
        assert p3_report.measured["generic_slope"] <= -lam / 2.0 * 0.98

    def test_report_shape(self, heat_report):
        data = json.loads(heat_report.to_json())
        assert data["name"] == "decay"
        assert set(data["passes"]) == {"eigen_rate_attained", "generic_rate_inequality"}
        for tgt in data["targets"].values():
            assert {"value", "tolerance", "kind", "source"} <= set(tgt)

    @pytest.mark.parametrize("pv", [2.5, 3.0, 4.0])
    @pytest.mark.parametrize("n", [2, 3])
    def test_zero_boundary_rate_at_101_nodes(self, pv, n):
        rep = decay_experiment(Exponent.finite(pv), n, 1.0, nodes=101)
        rate = -rep.measured["lambda"] / (pv - 1.0)
        assert rep.measured["eigen_slope"] == pytest.approx(rate, rel=0.02)
        assert rep.all_pass, rep.passes

    def test_infinity_rejected(self):
        with pytest.raises(ValueError):
            decay_experiment(INFINITY, 2, 1.0)


class TestFlatten:
    def test_all_checks_pass_p2(self, p2_flatten_report):
        assert p2_flatten_report.all_pass, p2_flatten_report.passes

    def test_sandwich_any_alpha_p2(self):
        # p = 2 admits every alpha > 0
        rep = flatten_experiment(Exponent.finite(2), 2, 1.0, m=0.5, M=2.0, alpha=1.0)
        assert rep.passes["sandwich"] and rep.passes["envelope"]

    def test_constant_one_is_fixed_point(self):
        rep = flatten_experiment(Exponent.finite(2), 2, 1.0, m=1.0, M=1.0 + 1e-12,
                                 alpha=1.0)
        assert rep.measured["final_max_gap_to_1"] < 1e-9
        assert rep.all_pass

    def test_p3_envelope_and_center_decrease(self):
        rep = flatten_experiment(Exponent.finite(3), 2, 1.0, m=0.5, M=2.0, alpha=1.0)
        assert rep.all_pass, rep.passes
        # center gap bounded by the envelope at the horizon
        env = rep.measured["envelope_constant"] / (1.0 + rep.measured["t_end"])
        assert rep.measured["final_center_gap_to_1"] <= env + rep.measured["consistency_bound_u"]

    def test_inf_flatten_halves_dt_at_start(self):
        # the p = inf straddle data make the first full log-implicit steps
        # fail, so the solver must halve dt and still reach t_end
        rep = flatten_experiment(INFINITY, 2, 1.0, 0.5, 2.0, default_flatten_alpha(INFINITY),
                                 nodes=41)
        assert rep.all_pass, rep.passes
        t_end = rep.measured["t_end"]
        cfg = SolverConfig(p=INFINITY, n=2, R=1.0, nodes=41, t_end=t_end,
                           scheme=LOG_IMPLICIT, boundary=lambda t: 1.0,
                           initial=straddle_initial(0.5, 2.0, 1.0))
        field = solve_trudinger_radial(cfg)
        assert field.times[-1] == pytest.approx(t_end, rel=1e-12)
        assert np.diff(field.times).min() < t_end / 200.0

    def test_straddle_profile_contract(self):
        f = straddle_initial(0.5, 2.0, 1.0)
        assert f(0.0) == pytest.approx(2.0)
        assert f(0.6) == pytest.approx(0.5)
        assert f(1.0) == pytest.approx(1.0)
        grid = np.linspace(0, 1, 2001)
        vals = f(grid)
        assert vals.min() == pytest.approx(0.5)
        assert vals.max() == pytest.approx(2.0)


class TestPhragmenLindelof:
    def test_lower_gap_ratio_exact(self, study_p3):
        for ratio in study_p3.measured["lower_gap_ratios"]:
            assert ratio == pytest.approx(2.0 ** -3, abs=1e-6)

    def test_upper_slope_matches_homogeneity(self, study_p3):
        assert study_p3.measured["upper_loglog_slope"] == pytest.approx(2.0, abs=0.05)

    def test_limits(self, study_p3):
        assert study_p3.passes["lower_monotone_to_m"]
        assert study_p3.passes["upper_monotone_to_M"]
        assert study_p3.all_pass

    def test_infinity_cubic_scaling(self):
        rep = phragmen_lindelof_study(INFINITY, 2, m=0.5, M=2.0,
                                      eps_list=[0.0025, 0.005, 0.01],
                                      R_list=[1.0, 2.0], t_probe=1.0)
        assert rep.measured["upper_loglog_slope"] == pytest.approx(3.0, abs=0.05)
        assert rep.measured["lower_gap_ratios"][0] == pytest.approx(2.0 ** -4, abs=1e-6)

    def test_upper_limit_reaches_M_exactly(self):
        gaps = []
        for eps in (1e-3, 1e-4, 1e-5):
            rep = phragmen_lindelof_study(Exponent.finite(3), 2, 0.5, 2.0,
                                          eps_list=[eps], R_list=[1.0], t_probe=1.0)
            gaps.append(rep.measured["upper_at_smallest_eps"] - 2.0)
        assert gaps[0] > gaps[1] > gaps[2] > 0
        assert gaps[-1] < 1e-8

    def test_inadmissible_eps_reports_bound(self):
        with pytest.raises(ValueError) as err:
            phragmen_lindelof_study(Exponent.finite(3), 2, 0.5, 2.0,
                                    eps_list=[1.0], R_list=[1.0], t_probe=1.0)
        assert "need 3*eps <" in str(err.value)

    def test_tables_and_save(self, study_p3, tmp_path):
        paths = study_p3.save(tmp_path)
        base = paths[0][: -len(".json")]
        assert paths == [base + ".json", base + "-lower.csv", base + "-upper.csv"]
        assert sorted(map(str, tmp_path.iterdir())) == sorted(paths)
        # <name>-<p>-<n>-<stamp>-<config hash>
        assert re.fullmatch(r"pl-3-2-\d{8}T\d{6}-[0-9a-f]{8}", os.path.basename(base))
        data = json.loads(open(paths[0]).read())
        assert data["passes"]["lower_gap_ratio"]


class TestDeterminism:
    def test_pl_reports_reproducible(self):
        kw = dict(m=0.5, M=2.0, eps_list=[0.005, 0.01], R_list=[1.0, 2.0], t_probe=1.0)
        a = phragmen_lindelof_study(Exponent.finite(3), 2, **kw)
        b = phragmen_lindelof_study(Exponent.finite(3), 2, **kw)
        assert json.dumps(a.core_dict(), sort_keys=True, default=float) == \
            json.dumps(b.core_dict(), sort_keys=True, default=float)

    def test_flatten_reports_reproducible(self):
        a = flatten_experiment(Exponent.finite(2), 2, 1.0, 0.5, 2.0, 1.0, nodes=61)
        b = flatten_experiment(Exponent.finite(2), 2, 1.0, 0.5, 2.0, 1.0, nodes=61)
        assert json.dumps(a.core_dict(), sort_keys=True, default=float) == \
            json.dumps(b.core_dict(), sort_keys=True, default=float)
