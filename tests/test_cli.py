"""Command-line front end: exit codes, file outputs, config round trips."""

import argparse
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from trudlab import cli, eigensolver, pde
from trudlab.barriers import CATALOG_FAMILIES, default_catalog, make_family
from trudlab.cli import EXIT_FAIL, EXIT_OK, EXIT_PIPE, EXIT_USAGE, main
from trudlab.exponent import Exponent


def run(args, out_dir):
    return main(args + ["--out", str(out_dir)])


def strict_json(path):
    """The file's JSON, refusing the NaN and Infinity that strict JSON has not."""
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=reject)


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

    def test_boundary_cone_at_infinity(self, tmp_path, capsys):
        code = run(["verify", "--family", "boundary", "--p", "inf", "--n", "3"], tmp_path)
        assert code == EXIT_OK
        assert "boundary-cone p=inf n=3" in capsys.readouterr().out
        [path] = tmp_path.glob("verify-boundary-cone-inf-3-*.json")
        assert strict_json(path)["report"]["verdict"] == "Supersolution"

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

    @pytest.mark.parametrize("bad", [{"p": "2", "n": 2}, 5])
    def test_sweep_bad_entry_is_usage(self, tmp_path, capsys, bad):
        # every entry is checked before the first one runs
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps([{"family": "kernel", "p": "2", "samples": 400}, bad]))
        assert run(["verify", "--sweep", str(sweep)], tmp_path / "out") == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")
        assert not list((tmp_path / "out").iterdir())

    def test_eigen_derived_strict_json(self, tmp_path):
        # one derived dict in both branches: K = g + d - 2 = 3 at infinity
        for p in ("3", "inf"):
            assert run(["verify", "--family", "eigen", "--p", p, "--samples", "400"],
                       tmp_path / p) == EXIT_OK
            derived = strict_json(next((tmp_path / p).glob("verify-*.json")))["report"]["derived"]
            assert set(derived) == {"k", "alpha", "theta2", "rate"}
        assert (derived["k"], derived["alpha"], derived["theta2"]) == (3.0, 2.0, 0.5)


    @pytest.mark.parametrize("p", ["2", "2.5", "3", "4", "inf"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_defaults_match_catalog(self, p, n):
        # a bare `trudlab verify --family F` checks the catalog's own entry
        catalog = default_catalog(Exponent.parse(p), n)
        assert len(catalog) == 8
        for name, spec in zip(CATALOG_FAMILIES, catalog):
            built = make_family(name, Exponent.parse(p), n, {"family": name, "p": p, "n": n})
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
        assert f"{data['residual_norm_interior']:.3e} over r >= 0.05 R" in out

    def test_broken_certificate_fails(self, tmp_path, monkeypatch):
        # half the true eigenvalue pi^2 ~ 9.8696 of the unit ball, p = 2, n = 3
        monkeypatch.setattr(eigensolver, "bracket_rate", lambda p, n, R: 0.5 * 9.8696)
        code = run(["eigen", "--p", "2", "--n", "3"], tmp_path)
        assert code == EXIT_FAIL
        assert not list(tmp_path.glob("eigen-*"))

    def test_infinity_branch(self, tmp_path):
        # 1-D p = 4 eigenvalue (p-1)(pi_p/2)^p / k with pi_4 = pi/sqrt(2), k = 3
        assert run(["eigen", "--p", "inf", "--n", "2"], tmp_path) == EXIT_OK
        data = strict_json(next(tmp_path.glob("eigen-inf-2-*.json")))
        assert data["lambda"] == pytest.approx(math.pi ** 4 / 64, rel=1e-8)
        assert run(["eigen", "--p", "inf", "--scaling", "0.5,1,2"], tmp_path) == EXIT_OK

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

    def test_manifest_counts_newton_work(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "p": "3", "n": 2, "scheme": "log-implicit", "t_end": 0.05, "nodes": 31,
            "initial": {"kind": "bump", "floor": 1.0, "amplitude": 0.5}, "boundary": 1.0,
        }))
        assert run(["solve", "--config", str(cfg)], tmp_path) == EXIT_OK
        manifest = json.loads(next(tmp_path.glob("solve-*.json")).read_text())
        steps = manifest["levels"] - 1
        assert manifest["rejected_steps"] == 0
        assert 0 < manifest["newton_iterations_total"] <= steps * manifest["newton_iterations_max"]


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

    def test_infinity_decay_passes(self, tmp_path):
        code = run(["experiment", "decay", "--p", "inf", "--n", "2",
                    "--nodes", "101"], tmp_path)
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

    @pytest.mark.parametrize("argv", [["flatten", "--p", "3", "--nodes", "41"],
                                      ["pl", "--p", "3"], ["pl", "--p", "inf"]])
    def test_pass_flags_are_json_booleans(self, tmp_path, argv):
        run(["experiment", *argv], tmp_path)
        [report] = tmp_path.glob("*.json")
        passes = strict_json(report)["passes"]
        assert passes and all(isinstance(ok, bool) for ok in passes.values()), passes

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
        # a non-finite catalog parameter: no overflow, no verdict, no Infinity in JSON
        ["verify", "--family", "paraboloid", "--R", "nan"],
        ["verify", "--family", "paraboloid", "--R", "inf"],
        ["verify", "--family", "flatten-upper", "--R", "inf"],
        ["verify", "--family", "flatten-lower", "--R", "inf"],
        # an overflowing exponent is no finite p, and not the infinity label either
        ["eigen", "--p", "1e999"],
        ["verify", "--family", "eigen", "--p", "1e999"],
        # a non-finite flatten parameter: rejected before any spline is built
        ["experiment", "flatten", "--p", "3", "--M", "nan"],
        ["experiment", "flatten", "--p", "3", "--R", "nan"],
        ["experiment", "flatten", "--p", "3", "--M", "inf"],
        ["experiment", "flatten", "--p", "3", "--R", "inf"],
        ["experiment", "flatten", "--p", "2", "--alpha", "inf"],
        # pl needs 0 < m <= M < inf: no report, no verdict
        ["experiment", "pl", "--p", "3", "--m", "nan"],
        ["experiment", "pl", "--p", "3", "--m", "-1"],
        ["experiment", "pl", "--p", "3", "--M", "0.1"],
        ["experiment", "pl", "--p", "3", "--M", "inf"],
        # an extreme finite parameter whose derived constants leave the floats
        ["verify", "--family", "eigen", "--p", "3", "--R", "1e300"],
        ["verify", "--family", "eigen", "--p", "3", "--R", "1e-100"],
        ["verify", "--family", "flatten-upper", "--p", "3", "--R", "1e300"],
        # numpy-scalar arithmetic: K underflows to 0 and Kbar / K divides by it
        ["verify", "--family", "flatten-upper", "--p", "3", "--R", "1e150"],
        # finite constants whose residual overflows: no RuntimeWarning first
        ["verify", "--family", "flatten-lower", "--p", "inf", "--R", "1e150"],
        ["verify", "--family", "boundary", "--p", "3", "--R", "1e-300"],
        ["verify", "--family", "growth", "--p", "3", "--T", "1e300"],
        ["eigen", "--p", "3", "--R", "1e300"],
        ["experiment", "decay", "--p", "3", "--R", "1e-300", "--nodes", "41"],
        ["experiment", "flatten", "--p", "3", "--R", "1e-300", "--nodes", "41"],
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

    @pytest.mark.parametrize("entry", [{"family": "eigen", "R": "x"},
                                       {"family": "growth", "alpha": [1]},
                                       {"family": "boundary", "lam": {"v": 1}}])
    def test_non_numeric_family_parameter_is_usage(self, tmp_path, capsys, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        assert run(["verify", "--config", str(cfg)], tmp_path / "out") == EXIT_USAGE
        assert "parameters must be numbers" in capsys.readouterr().err
        assert not list((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("entry", [{"n": "two"}, {"dt": "x"}, {"tolerance": None},
                                       {"initial": {"kind": "bump", "floor": "x"}},
                                       {"boundary": {"kind": "constant", "value": "x"}},
                                       # int() would truncate these and run another problem
                                       {"n": 2.5}, {"nodes": 21.5}])
    def test_bad_config_value_is_usage(self, tmp_path, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": "3", "scheme": "log-implicit", "t_end": 0.1, **entry}))
        assert run(["solve", "--config", str(cfg)], tmp_path / "out") == EXIT_USAGE

    def test_codes_are_stable(self):
        assert EXIT_OK == 0 and EXIT_FAIL == 1 and EXIT_USAGE == 2 and EXIT_PIPE == 141

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_exits_141(self, tmp_path, unbuffered):
        # the reader is gone before the child prints: unbuffered, print
        # raises; buffered, main's own flush does.  Either way no traceback,
        # no "Exception ignored" at exit, and the artifacts are on disk
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "trudlab", "eigen", "--p", "2.5", "--n", "3",
                 "--R", "1.7", "--out", str(tmp_path)],
                stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
                env={**child_env(), "PYTHONUNBUFFERED": unbuffered})
        finally:
            os.close(write)
        assert proc.returncode == EXIT_PIPE, proc.stderr
        assert proc.stderr == ""
        assert sorted(p.suffix for p in tmp_path.iterdir()) == [".csv", ".json"]

    def test_closed_stdout_in_process(self, tmp_path, monkeypatch):
        # an in-process caller keeps its file descriptors; main only drops the
        # dead stream, and a later call runs on without it
        class Gone(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Gone())
        assert run(["eigen", "--p", "3", "--n", "2"], tmp_path / "a") == EXIT_PIPE
        assert sys.stdout is None
        assert run(["eigen", "--p", "3", "--n", "2"], tmp_path / "b") == EXIT_OK
        assert len(list((tmp_path / "b").iterdir())) == 2

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
            assert main(["eigen", "--p", "1.5"]) == EXIT_USAGE
        assert progs.count("trudlab") == 1


# Runs main on each argv (with --out) in a fresh interpreter, then prints the
# scipy modules loaded, as one JSON line.
FOOTPRINT = """
import json, sys
from trudlab.cli import main
for argv in json.loads(sys.argv[2]):
    assert main(argv + ["--out", sys.argv[1]]) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def child_env() -> dict:
    """This environment with this process's trudlab (the sources, or the
    installed package) first on the path."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = filter(None, [root, os.environ.get("PYTHONPATH")])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def scipy_footprint(out_dir, *runs) -> set:
    """The scipy modules a fresh process has loaded after the runs."""
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, str(out_dir), json.dumps(runs)],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


class TestImportFootprint:
    """Each scipy module is imported by the first call that needs it."""

    def test_closed_form_commands_load_no_scipy(self, tmp_path):
        mods = scipy_footprint(
            tmp_path,
            ["verify", "--family", "kernel", "--p", "3", "--n", "2"],
            ["verify", "--family", "eigen", "--p", "2.5", "--n", "3"],
            ["verify", "--family", "boundary", "--p", "inf", "--n", "2"],
            ["experiment", "pl", "--p", "3"],
            ["solve", "--p", "3", "--scheme", "log-implicit", "--t-end", "0.05",
             "--nodes", "21"])
        assert not mods

    def test_solve_loads_linalg_only(self, tmp_path):
        cfg = tmp_path / "bump.json"
        cfg.write_text(json.dumps({"p": "3", "scheme": "log-implicit", "t_end": 0.05,
                                   "nodes": 21, "initial": {"kind": "bump"}}))
        mods = scipy_footprint(tmp_path, ["solve", "--config", str(cfg)])
        assert "scipy.linalg" in mods
        assert not mods & {"scipy.integrate", "scipy.interpolate", "scipy.optimize"}

    def test_eigen_loads_integrate(self, tmp_path):
        assert "scipy.integrate" in scipy_footprint(tmp_path, ["eigen", "--p", "3", "--n", "2"])
