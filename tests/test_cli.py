"""Command-line front end: exit codes, file outputs, config round trips."""

import argparse
import json

import numpy as np
import pytest

from trudlab import cli, eigensolver, pde
from trudlab.barriers import CATALOG_FAMILIES, default_catalog
from trudlab.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, _build_barrier, main
from trudlab.exponent import Exponent


def run(args, out_dir):
    return main(args + ["--out", str(out_dir)])


class TestVerifyCommand:
    def test_eigen_family_passes(self, tmp_path):
        code = run(["verify", "--family", "eigen", "--p", "3", "--n", "2",
                    "--R", "1", "--samples", "900"], tmp_path)
        assert code == EXIT_OK
        reports = list(tmp_path.glob("verify-*.json"))
        assert len(reports) == 1
        payload = json.loads(reports[0].read_text())
        assert payload["report"]["verdict"] == "Subsolution"

    def test_growth_bad_b_usage_error(self, tmp_path, capsys):
        code = run(["verify", "--family", "growth", "--p", "2", "--n", "2",
                    "--T", "1", "--alpha", "1", "--b", "0.0625"], tmp_path)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "0.0625" in err  # the admissible bound is printed

    def test_kernel_reports_tiny_residual(self, tmp_path):
        code = run(["verify", "--family", "kernel", "--p", "2", "--n", "2",
                    "--samples", "900"], tmp_path)
        assert code == EXIT_OK
        payload = json.loads(next(tmp_path.glob("verify-*.json")).read_text())
        rep = payload["report"]
        assert rep["verdict"] == "Solution"
        assert max(abs(rep["min_residual"]), abs(rep["max_residual"])) < 1e-8 * rep["scale"]

    def test_unknown_family(self, tmp_path):
        code = run(["verify", "--family", "mystery"], tmp_path)
        assert code == EXIT_USAGE

    def test_config_file_with_unknown_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "eigen", "p": "2", "bogus": 1}))
        code = run(["verify", "--config", str(cfg)], tmp_path)
        assert code == EXIT_USAGE

    def test_round_trip_bit_identical(self, tmp_path):
        code = run(["verify", "--family", "paraboloid", "--p", "2.5", "--n", "3",
                    "--samples", "900"], tmp_path)
        assert code == EXIT_OK
        first = json.loads(next(tmp_path.glob("verify-*.json")).read_text())
        replay_cfg = tmp_path / "replay.json"
        replay_cfg.write_text(json.dumps(first["config"]))
        out2 = tmp_path / "second"
        code = run(["verify", "--config", str(replay_cfg)], out2)
        assert code == EXIT_OK
        second = json.loads(next(out2.glob("verify-*.json")).read_text())
        assert json.dumps(first["report"], sort_keys=True) == \
            json.dumps(second["report"], sort_keys=True)

    def test_sweep(self, tmp_path):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps([
            {"family": "paraboloid", "p": "2", "n": 2, "samples": 400},
            {"family": "paraboloid", "p": "inf", "n": 2, "samples": 400},
            {"family": "kernel", "p": "3", "n": 2, "samples": 400},
        ]))
        code = run(["verify", "--sweep", str(sweep)], tmp_path)
        assert code == EXIT_OK
        assert len(list(tmp_path.glob("verify-*.json"))) == 3

    def test_same_second_reports_kept(self, tmp_path):
        # same family, p and n within one second: the two b values differ only
        # in the config hash, the repeated entry only in the index
        entries = [
            {"family": "growth", "p": "2", "n": 2, "b": 0.01, "samples": 400},
            {"family": "growth", "p": "2", "n": 2, "b": 0.02, "samples": 400},
            {"family": "growth", "p": "2", "n": 2, "b": 0.01, "samples": 400},
        ]
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps(entries))
        code = run(["verify", "--sweep", str(sweep)], tmp_path)
        assert code == EXIT_OK
        reports = sorted(tmp_path.glob("verify-*.json"))
        assert len(reports) == 3
        configs = sorted(json.dumps(json.loads(p.read_text())["config"], sort_keys=True)
                         for p in reports)
        assert configs == sorted(json.dumps(e, sort_keys=True) for e in entries)


    @pytest.mark.parametrize("p", ["2", "2.5", "3", "4", "inf"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_defaults_match_catalog(self, p, n):
        # a bare `trudlab verify --family F` checks the catalog's own entry
        catalog = default_catalog(Exponent.parse(p), n)
        assert len(catalog) == (8 if p != "inf" else 7)
        for name, spec in zip(CATALOG_FAMILIES, catalog):
            built = _build_barrier({"family": name, "p": p, "n": n})
            assert built.family == spec.family
            assert built.params == spec.params


class TestEigenCommand:
    def test_linear_case_value(self, tmp_path, capsys):
        code = run(["eigen", "--p", "2", "--n", "3", "--R", "1"], tmp_path)
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "9.8696" in out
        assert list(tmp_path.glob("eigen-*.csv"))
        data = json.loads(next(tmp_path.glob("eigen-*.json")).read_text())
        assert data["lambda"] <= data["rate_bound"]

    def test_broken_certificate_fails(self, tmp_path, monkeypatch):
        # half the true eigenvalue pi^2 ~ 9.8696 of the unit ball, p = 2, n = 3
        monkeypatch.setattr(eigensolver, "bracket_rate", lambda p, n, R: 0.5 * 9.8696)
        code = run(["eigen", "--p", "2", "--n", "3"], tmp_path)
        assert code == EXIT_FAIL
        assert not list(tmp_path.glob("eigen-*"))

    def test_infinity_out_of_scope(self, tmp_path, capsys):
        code = run(["eigen", "--p", "inf"], tmp_path)
        assert code == EXIT_USAGE
        assert "out of scope" in capsys.readouterr().err

    def test_scaling_flag(self, tmp_path, capsys):
        code = run(["eigen", "--p", "2", "--n", "3", "--scaling", "0.5,1,2"],
                   tmp_path)
        assert code == EXIT_OK
        assert "spread" in capsys.readouterr().out


class TestSolveCommand:
    def test_constant_run(self, tmp_path):
        code = run(["solve", "--p", "3", "--n", "2", "--scheme", "log-implicit",
                    "--t-end", "0.1", "--nodes", "21"], tmp_path)
        assert code == EXIT_OK
        manifest = json.loads(next(tmp_path.glob("solve-*.json")).read_text())
        assert manifest["audit_max"] == 0.0
        assert next(tmp_path.glob("solve-*.csv"))

    def test_non_finite_audit_fails(self, tmp_path, monkeypatch):
        audit = pde.fd_residual_on_field
        monkeypatch.setattr(pde, "fd_residual_on_field",
                            lambda *args: np.full_like(audit(*args), np.nan))
        code = run(["solve", "--p", "3", "--n", "2", "--scheme", "log-implicit",
                    "--t-end", "0.1", "--nodes", "21"], tmp_path)
        assert code == EXIT_FAIL

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        text = next(tmp_path.glob("solve-*.json")).read_text()
        manifest = json.loads(text, parse_constant=reject)
        assert manifest["audit_max"] is None

    def test_incompatible_data_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "p": "2", "n": 2, "scheme": "log-implicit", "t_end": 0.1,
            "nodes": 21, "initial": {"kind": "parabolic", "value": 1.0},
            "boundary": 1.0,
        }))
        code = run(["solve", "--config", str(cfg)], tmp_path)
        assert code == EXIT_USAGE

    def test_bump_preset_runs(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "p": "2.5", "n": 3, "scheme": "log-implicit", "t_end": 0.05,
            "nodes": 31, "dt": 0.005,
            "initial": {"kind": "bump", "floor": 1.0, "amplitude": 0.5},
            "boundary": 1.0,
        }))
        code = run(["solve", "--config", str(cfg)], tmp_path)
        assert code == EXIT_OK


class TestExperimentCommand:
    def test_pl_passes(self, tmp_path, capsys):
        code = run(["experiment", "pl", "--p", "3", "--n", "2"], tmp_path)
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "pass" in out and "FAIL" not in out
        assert list(tmp_path.glob("pl-3-2-*.json"))

    def test_flatten_passes(self, tmp_path):
        code = run(["experiment", "flatten", "--p", "2", "--n", "2",
                    "--alpha", "2", "--nodes", "81"], tmp_path)
        assert code == EXIT_OK

    def test_decay_passes(self, tmp_path):
        code = run(["experiment", "decay", "--p", "3", "--n", "2",
                    "--nodes", "201"], tmp_path)
        assert code == EXIT_OK

    @pytest.mark.parametrize("argv", [["flatten", "--p", "2", "--alpha", "0"],
                                      ["decay", "--p", "2", "--nodes", "0"]])
    def test_explicit_zero_is_not_the_default(self, tmp_path, argv):
        # an explicit 0 reaches the experiment and is rejected there
        assert run(["experiment", *argv], tmp_path) == EXIT_USAGE
        assert not list(tmp_path.iterdir())

    def test_same_second_reports_kept(self, tmp_path):
        # three identical runs within a second: one report set each
        for _ in range(3):
            assert run(["experiment", "pl", "--p", "3", "--n", "2"], tmp_path) == EXIT_OK
        files = sorted(f.name for f in tmp_path.iterdir())
        assert len(files) == 9
        assert sum(f.endswith(".json") for f in files) == 3

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TRUDLAB_OUT", str(tmp_path / "envout"))
        code = main(["experiment", "pl", "--p", "2", "--n", "2"])
        assert code == EXIT_OK
        assert list((tmp_path / "envout").glob("pl-2-2-*.json"))


class TestExitContract:
    def test_missing_subcommand_is_usage(self):
        assert main([]) == EXIT_USAGE

    def test_internal_value_error_propagates(self, tmp_path, monkeypatch):
        # a ValueError from inside the numerics is a bug, not a usage error
        def broken(config):
            raise ValueError("planted internal failure")

        monkeypatch.setattr(cli, "solve_trudinger_radial", broken)
        with pytest.raises(ValueError, match="planted"):
            run(["solve", "--p", "3", "--scheme", "log-implicit", "--t-end", "0.1",
                 "--nodes", "21"], tmp_path)

    @pytest.mark.parametrize("argv", [
        ["eigen", "--p", "1.5", "--n", "2"],
        ["eigen", "--p", "3", "--R", "nan"],
        ["solve", "--p", "3", "--scheme", "log-implicit", "--t-end", "0.1", "--R", "-1"],
        ["solve", "--p", "3", "--scheme", "log-implicit", "--t-end", "nan"],
        ["experiment", "decay", "--p", "inf"],
    ])
    def test_bad_input_is_usage(self, tmp_path, capsys, argv):
        assert run(argv, tmp_path) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("n", ["0", "1"])
    @pytest.mark.parametrize("argv", [
        ["eigen", "--p", "3"],
        ["eigen", "--p", "3", "--scaling", "0.5,1"],
        ["verify", "--family", "eigen", "--p", "3"],
        ["solve", "--p", "3", "--scheme", "log-implicit", "--t-end", "0.1", "--nodes", "21"],
        ["experiment", "decay", "--p", "3"],
        ["experiment", "flatten", "--p", "3"],
        ["experiment", "pl", "--p", "3"],
    ])
    def test_dimension_below_two_is_usage(self, tmp_path, capsys, argv, n):
        # one rule for n in every command: SolverConfig's n >= 2
        assert run(argv + ["--n", n], tmp_path) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "dimension n must be >= 2" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, payload", [
        (["verify", "--config"], {"family": "eigen", "p": "3", "n": 1}),
        (["verify", "--sweep"], [{"family": "eigen", "p": "3", "n": 0}]),
        (["solve", "--config"], {"p": "3", "scheme": "log-implicit", "t_end": 0.1, "n": 1}),
    ])
    def test_config_dimension_below_two_is_usage(self, tmp_path, capsys, argv, payload):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        assert run(argv + [str(cfg)], tmp_path / "out") == EXIT_USAGE
        assert "dimension n must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [{"n": "two"}, {"dt": "x"}, {"tolerance": None},
                                       {"initial": {"kind": "bump", "floor": "x"}},
                                       {"boundary": {"kind": "constant", "value": "x"}}])
    def test_bad_config_value_is_usage(self, tmp_path, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": "3", "scheme": "log-implicit", "t_end": 0.1, **entry}))
        assert run(["solve", "--config", str(cfg)], tmp_path / "out") == EXIT_USAGE

    def test_codes_are_stable(self):
        assert EXIT_OK == 0 and EXIT_FAIL == 1 and EXIT_USAGE == 2

    def test_parser_built_once(self, monkeypatch):
        # two main calls share one argparse tree (its subparsers are named
        # "trudlab <command>")
        progs = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kw):
            progs.append(kw.get("prog"))
            real_init(self, *args, **kw)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        for _ in range(2):
            assert main(["eigen", "--p", "inf"]) == EXIT_USAGE
        assert progs.count("trudlab") == 1
