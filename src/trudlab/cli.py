"""Command-line front end: barrier verification, eigenvalues, solver runs,
experiments.

Exit codes: 0 success, 1 assertion/verdict failure, 2 usage or config error,
141 (128 + SIGPIPE) when standard output was closed before the report was
printed; the artifacts are written by then.  Any other exception is an
internal bug and propagates with its traceback.
Output directory: --out flag, else the TRUDLAB_OUT environment variable, else
the current directory.  JSON for configs/reports, CSV for fields and tables.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import barriers
from .artifacts import write_artifacts
from .barriers import ConstraintError, Verdict, verify_sign
from .eigensolver import ShootingError, first_eigenvalue, scaling_check
from .exponent import Exponent
from .experiments import decay_experiment, flatten_experiment, phragmen_lindelof_study
from .pde import (DIRECT_IMPLICIT, LOG_IMPLICIT, ConfigError, SolverConfig, SolverError,
                  solve_trudinger_radial)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a writer whose reader is gone


class UsageError(Exception):
    pass


def _exponent(text) -> Exponent:
    """Exponent.parse, with a bad spelling or p < 2 reported as a usage error."""
    try:
        return Exponent.parse(text)
    except ValueError as exc:
        raise UsageError(f"bad exponent {text!r}: {exc}") from None


def _convert(kind, key: str, val):
    """kind(val) for a config or flag value, a failure or a fractional int a usage error."""
    try:
        if kind is int and isinstance(val, float) and not val.is_integer():
            raise ValueError
        return kind(val)
    except (TypeError, ValueError):
        raise UsageError(f"{key} must be {kind.__name__}, got {val!r}") from None


def _dimension(val) -> int:
    """The dimension n of a flag or config value: n >= 2 in every command, as in SolverConfig."""
    n = _convert(int, "n", val)
    if n < 2:
        raise UsageError(f"dimension n must be >= 2, got {n}")
    return n


def _out_dir(args) -> str:
    out = getattr(args, "out", None) or os.environ.get("TRUDLAB_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _check_config(cfg, allowed: set) -> dict:
    """cfg, if it is a JSON object of allowed keys that sets "family" where that is allowed."""
    if not isinstance(cfg, dict):
        raise UsageError(f"a config must be a JSON object, got {cfg!r}")
    unknown = set(cfg) - allowed
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    if "family" in allowed and "family" not in cfg:
        raise UsageError("missing required keys: ['family']")
    return cfg


def _load_config(path: str | None, allowed: set, overrides: dict) -> dict:
    cfg = {}
    if path:
        with open(path) as fh:
            cfg = json.load(fh)
    if isinstance(cfg, dict):
        cfg |= {key: val for key, val in overrides.items() if val is not None}
    return _check_config(cfg, allowed)


# ---------------------------------------------------------------------------
# verify


# the verify flags and their types; config files may also set "safety"
VERIFY_FLAGS = {"family": str, "p": str, "n": int, "R": float, "T": float, "alpha": float,
                "b": float, "m": float, "M": float, "delta": float, "lam": float,
                "theta": float, "rho": float, "samples": int, "tolerance": float, "seed": int}
VERIFY_KEYS = set(VERIFY_FLAGS) | {"safety"}


def _run_verify_one(cfg: dict, out_dir: str) -> int:
    # unset family parameters take the makers' defaults
    spec = barriers.make_family(cfg["family"], _exponent(cfg.get("p", 2)),
                                _dimension(cfg.get("n", 2)), cfg)
    knobs = {k: _convert(VERIFY_FLAGS[k], k, cfg[k]) for k in ("samples", "tolerance", "seed")
             if cfg.get(k) is not None}
    report = verify_sign(spec, **knobs)
    [path] = write_artifacts(out_dir, f"verify-{spec.family.value}-{spec.p.label}-{spec.n}",
                             cfg, {"config": cfg, "report": report.to_dict()})
    expected = spec.expected.value if spec.expected else None
    ok = (report.verdict == spec.expected
          or (report.verdict == Verdict.SOLUTION
              and spec.expected in (Verdict.SUBSOLUTION, Verdict.SUPERSOLUTION)))
    print(f"{spec.family.value} p={spec.p.label} n={spec.n}: verdict "
          f"{report.verdict.value} (expected {expected}) -> {path}")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_verify(args) -> int:
    out_dir = _out_dir(args)
    if args.sweep:
        with open(args.sweep) as fh:
            entries = json.load(fh)
        if not isinstance(entries, list):
            raise UsageError("sweep file must hold a list of verify configs")
        entries = [_check_config(e, VERIFY_KEYS) for e in entries]  # all before any runs
        return max([_run_verify_one(e, out_dir) for e in entries], default=EXIT_OK)
    cfg = _load_config(args.config, VERIFY_KEYS, {k: getattr(args, k) for k in VERIFY_FLAGS})
    return _run_verify_one(cfg, out_dir)


# ---------------------------------------------------------------------------
# eigen


def cmd_eigen(args) -> int:
    p = _exponent(args.p)
    n = _dimension(args.n)
    out_dir = _out_dir(args)
    if args.scaling:
        radii = [_convert(float, "--scaling radius", x) for x in args.scaling.split(",")]
        spread = scaling_check(p, n, radii)
        print(f"scaling spread of lambda_R * R^g over radii {radii}: {spread:.3e}")
        return EXIT_OK if spread < 1e-4 else EXIT_FAIL
    res = first_eigenvalue(p, n, args.R)
    paths = write_artifacts(out_dir, f"eigen-{p.label}-{n}", {"p": p.label, "n": n, "R": args.R},
                            res.to_dict(), {".csv": res.to_csv})
    print(f"lambda = {res.lam:.10g}  (certified bound {res.rate_bound:.6g}, "
          f"residual audit {res.residual_norm:.3e}, "
          f"{res.residual_norm_interior:.3e} over r >= 0.05 R)")
    print(f"wrote {', '.join(paths)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve


SOLVE_KEYS = {"p", "n", "R", "nodes", "t_end", "dt", "scheme", "tolerance",
              "initial", "boundary"}

INITIAL_PRESETS = {
    "constant": lambda params, R: (lambda r: np.full_like(np.asarray(r, float),
                                                          params.get("value", 1.0))),
    "parabolic": lambda params, R: (lambda r: params.get("value", 1.0)
                                    * (1.0 - (np.asarray(r, float) / R) ** 2)),
    "bump": lambda params, R: (lambda r: params.get("floor", 1.0)
                               + params.get("amplitude", 1.0)
                               * np.cos(0.5 * np.pi * np.asarray(r, float) / R) ** 2),
}


def _initial_from_config(spec, R):
    if isinstance(spec, (int, float)):
        return INITIAL_PRESETS["constant"]({"value": float(spec)}, R)
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind not in INITIAL_PRESETS:
        raise UsageError(f"unknown initial preset {kind!r}; "
                         f"choose from {sorted(INITIAL_PRESETS)}")
    params = {k: _convert(float, f"initial {k}", spec[k])
              for k in ("value", "floor", "amplitude") if k in spec}
    return INITIAL_PRESETS[kind](params, R)


def _boundary_from_config(spec):
    if isinstance(spec, (int, float)):
        value = float(spec)
    elif isinstance(spec, dict) and spec.get("kind") == "constant":
        value = _convert(float, "boundary value", spec.get("value", 1.0))
    else:
        raise UsageError("boundary config supports constants only")
    return lambda t: value


def cmd_solve(args) -> int:
    out_dir = _out_dir(args)
    cfg = _load_config(args.config, SOLVE_KEYS, {
        "p": args.p, "n": args.n, "R": args.R, "nodes": args.nodes,
        "t_end": args.t_end, "dt": args.dt, "scheme": args.scheme,
    })
    for key in ("p", "scheme", "t_end"):
        if key not in cfg:
            raise UsageError(f"missing required key {key!r}")
    R = _convert(float, "R", cfg.get("R", 1.0))
    initial = _initial_from_config(cfg.get("initial", 1.0), R)
    boundary = _boundary_from_config(cfg.get("boundary", 1.0))
    dt = cfg.get("dt")
    sc = SolverConfig(
        p=_exponent(cfg["p"]), n=_dimension(cfg.get("n", 2)), R=R,
        nodes=_convert(int, "nodes", cfg.get("nodes", 101)),
        t_end=_convert(float, "t_end", cfg["t_end"]),
        scheme=cfg["scheme"], boundary=boundary, initial=initial,
        dt=None if dt is None else _convert(float, "dt", dt),
        tolerance=_convert(float, "tolerance", cfg.get("tolerance", 1e-9)))
    field = solve_trudinger_radial(sc)
    manifest = {**field.manifest(), "config_echo": {k: cfg.get(k) for k in sorted(cfg)}}
    json_path, csv_path = write_artifacts(out_dir, f"solve-{sc.p.label}-{sc.n}", cfg, manifest,
                                          {".csv": field.to_csv})
    audit, bound = field.metadata["audit_max"], field.metadata["consistency_bound_residual"]
    print(f"levels {len(field.times)}, audit residual {audit:.3e}, bound {bound:.3e}")
    print(f"wrote {csv_path}, {json_path}")
    # the bound is the audit plus a nonnegative term: only a non-finite audit fails
    return EXIT_OK if np.isfinite([audit, bound]).all() else EXIT_FAIL


# ---------------------------------------------------------------------------
# experiment


def cmd_experiment(args) -> int:
    out_dir = _out_dir(args)
    p = _exponent(args.p)
    n = _dimension(args.n)
    nodes = {} if args.nodes is None else {"nodes": args.nodes}
    if args.kind == "decay":
        report = decay_experiment(p, n, args.R, **nodes)
    elif args.kind == "flatten":
        report = flatten_experiment(p, n, args.R, m=args.m, M=args.M, alpha=args.alpha, **nodes)
    elif args.kind == "pl":
        report = phragmen_lindelof_study(
            p, n, m=args.m, M=args.M,
            eps_list=[0.0025, 0.005, 0.01], R_list=[1.0, 2.0, 4.0],
            t_probe=1.0)
    else:
        raise UsageError(f"unknown experiment {args.kind!r}")
    paths = report.save(out_dir)
    for name, ok in report.passes.items():
        print(f"  {name}: {'pass' if ok else 'FAIL'}")
    print(f"wrote {', '.join(paths)}")
    return EXIT_OK if report.all_pass else EXIT_FAIL


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on first use and shared by every main call."""
    ap = argparse.ArgumentParser(
        prog="trudlab",
        description="Numerical laboratory for Trudinger-type doubly nonlinear diffusion")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="verify a barrier family's sign claim")
    for name, kind in VERIFY_FLAGS.items():
        v.add_argument(f"--{name}", type=kind)
    v.add_argument("--config")
    v.add_argument("--sweep", help="JSON list of verify configs")
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("eigen", help="first eigenvalue on a ball")
    e.add_argument("--p", required=True)
    e.add_argument("--n", type=int, default=2)
    e.add_argument("--R", type=float, default=1.0)
    e.add_argument("--scaling", help="comma-separated radii for the scaling check")
    e.add_argument("--out")
    e.set_defaults(func=cmd_eigen)

    s = sub.add_parser("solve", help="time-step the radial problem")
    s.add_argument("--config")
    s.add_argument("--p")
    s.add_argument("--n", type=int)
    s.add_argument("--R", type=float)
    s.add_argument("--nodes", type=int)
    s.add_argument("--t-end", dest="t_end", type=float)
    s.add_argument("--dt", type=float)
    s.add_argument("--scheme", choices=[LOG_IMPLICIT, DIRECT_IMPLICIT])
    s.add_argument("--out")
    s.set_defaults(func=cmd_solve)

    x = sub.add_parser("experiment", help="run a scripted experiment")
    x.add_argument("kind", choices=["decay", "flatten", "pl"])
    x.add_argument("--p", required=True)
    x.add_argument("--n", type=int, default=2)
    x.add_argument("--R", type=float, default=1.0)
    x.add_argument("--m", type=float, default=0.5)
    x.add_argument("--M", type=float, default=2.0)
    x.add_argument("--alpha", type=float)
    x.add_argument("--nodes", type=int)
    x.add_argument("--out")
    x.set_defaults(func=cmd_experiment)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        print(end="", flush=True)  # a reader that is gone shows here, not at exit
        return code
    except BrokenPipeError:
        # drop what is still buffered for the reader, so that the exit flush
        # does not fail again; no file descriptor is touched
        sys.stdout = None
        return EXIT_PIPE
    except (UsageError, ConstraintError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SolverError, ShootingError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
