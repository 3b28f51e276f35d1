"""The four workloads: seeded inputs, the ops that run them, and the checks.

Every op is a ``call`` (timed, goes into trudlab only through module
attributes so the tracer sees it) and a ``check`` against an oracle that does
not come from the code under test.  A check returns True or False; an op
whose call or check raises counts as failed.

Inputs come from ``inputs(seed, k)`` for pass ``k``: plain data drawn from
``numpy.random.default_rng([seed, k])``, so the same seed gives the same
inputs and the program receives only those.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import jn_zeros

import trudlab.cli
import trudlab.eigensolver
import trudlab.pde
from trudlab.exponent import Exponent

# explicit heat-decay grid of the decay workload: 101 nodes is 50.7k CFL steps
DECAY_NODES = 101


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class CliResult:
    code: int
    stdout: str

    @property
    def artifacts(self) -> list:
        """Paths the command reports writing ("-> path" or "wrote a, b")."""
        paths = []
        for line in self.stdout.splitlines():
            if " -> " in line:
                paths.append(line.rsplit(" -> ", 1)[1].strip())
            elif line.startswith("wrote "):
                paths.extend(p.strip() for p in line[len("wrote "):].split(", "))
        return paths


def call_cli(argv: list) -> CliResult:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = trudlab.cli.main(argv)
    return CliResult(code, buf.getvalue())


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


# Largest consistency bound a checked field may excuse itself with.  Correct
# fields stay below 0.011 (ensemble) and 0.005 (decay solve); a corrupted one
# inflates its own audit residual, and so its bound, without limit.
BOUND_CAP = 0.05


def _principle_excess(values: np.ndarray) -> float:
    """Largest violation of the weak maximum principle on a (levels, nodes) field."""
    boundary = np.concatenate([values[0, :], values[1:, -1]])
    interior = values[1:, :-1]
    return float(max(interior.max() - boundary.max(), boundary.min() - interior.min()))


def _comparison_excess(lo: np.ndarray, hi: np.ndarray) -> float:
    """Interior max of lo/hi minus its parabolic-boundary max (<= 0 when ordered)."""
    ratio = lo / hi
    boundary = max(ratio[0, :].max(), ratio[1:, -1].max())
    return float(ratio[1:, :-1].max() - boundary)


# ---------------------------------------------------------------------------
# verify: one in-process `trudlab verify` per catalog entry


VERIFY_FAMILIES = ["eigen", "growth", "kernel", "power", "paraboloid",
                   "flatten-upper", "flatten-lower", "boundary"]

# the sign claim of each construction; a Solution satisfies either one-sided claim
CLAIMED_VERDICT = {
    "eigen-separable": "Subsolution", "growth-envelope": "Supersolution",
    "kernel": "Solution", "power-profile": "Subsolution",
    "paraboloid": "Supersolution", "flatten-upper": "Supersolution",
    "flatten-lower": "Subsolution", "inf-flatten-upper": "Supersolution",
    "inf-flatten-lower": "Subsolution", "boundary-cone": "Supersolution",
    "boundary-outer-ball": "Supersolution",
}


def _report_family(cli_family: str, p: str, n: int) -> str:
    if cli_family == "boundary":
        return "boundary-cone" if float(p) > n else "boundary-outer-ball"
    if cli_family.startswith("flatten") and p == "inf":
        return "inf-" + cli_family
    return {"eigen": "eigen-separable", "growth": "growth-envelope",
            "power": "power-profile"}.get(cli_family, cli_family)


class Verify:
    """ACCEPTANCE 1 traffic as users issue it: 78 CLI verifications per pass."""

    name = "verify"

    def __init__(self, tiny: bool = False):
        ps, ns = (["2", "inf"], [2]) if tiny else (["2", "2.5", "3", "4", "inf"], [2, 3])
        self.entries = [(f, p, n) for p in ps for n in ns for f in VERIFY_FAMILIES
                        if not (f == "boundary" and p == "inf")]

    def inputs(self, seed: int, k: int) -> list:
        rng = np.random.default_rng([seed, k])
        seeds = rng.integers(0, 2**31 - 1, size=len(self.entries))
        return [[f, p, n, int(s)] for (f, p, n), s in zip(self.entries, seeds)]

    def ops(self, inputs: list, ctx) -> list:
        return [self._op(f, p, n, s, ctx.out_dir) for f, p, n, s in inputs]

    @staticmethod
    def _op(family, p, n, seed, out_dir):
        argv = ["verify", "--family", family, "--p", p, "--n", str(n),
                "--seed", str(seed), "--out", out_dir]

        def check(res: CliResult) -> bool:
            paths = res.artifacts
            if res.code != 0 or len(paths) != 1:
                return False
            report = _load_json(paths[0])["report"]
            want = _report_family(family, p, n)
            verdict = report["verdict"]
            claim = CLAIMED_VERDICT[want]
            return (report["family"] == want and report["samples"] == 11_000
                    and (verdict == claim or (verdict == "Solution" and claim != "Solution"))
                    and report["seed"] == seed)

        return Op("verify", lambda: call_cli(argv), check)


# ---------------------------------------------------------------------------
# eigen: first eigenvalue and delta-boundary problem on random radii


J01 = float(jn_zeros(0, 1)[0])

# lambda_1 of the unit ball, so lambda_R R^p must equal it for every R.  p = 2
# has the closed forms j_{0,1}^2 (n = 2) and pi^2 (n = 3); the p != 2 values
# were recorded at R = 1 when the benchmark was defined.
LAMBDA_UNIT_BALL = {
    (2.0, 2): J01 ** 2, (2.0, 3): math.pi ** 2,
    (2.5, 2): 7.710246100, (2.5, 3): 14.11122753,
    (3.0, 2): 9.831498405, (3.0, 3): 19.20103689,
    (4.0, 2): 14.68163982, (4.0, 3): 32.21461073,
}


def eigen_oracle_ok(p: float, n: int, R: float, lam: float) -> bool:
    """lambda_R R^p against the unit-ball value: 1e-5 for the closed forms
    (ACCEPTANCE 3), 1e-4 for the scaling law (ACCEPTANCE 4)."""
    tol = 1e-5 if p == 2.0 else 1e-4
    ref = LAMBDA_UNIT_BALL[(p, n)]
    return abs(lam * R ** p - ref) <= tol * ref


class Eigen:
    """eigensolver-dominated: a first eigenvalue and a delta-BVP for each
    p in {2, 2.5, 3, 4} and n in {2, 3}, so every pass has the same op mix."""

    name = "eigen"

    def __init__(self, tiny: bool = False):
        self.ps = [2.0, 3.0] if tiny else [2.0, 2.5, 3.0, 4.0]
        self.ns = [2] if tiny else [2, 3]

    def inputs(self, seed: int, k: int) -> list:
        rng = np.random.default_rng([seed, k])
        return [[p, n, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 0.99))]
                for p in self.ps for n in self.ns]

    def ops(self, inputs: list, ctx) -> list:
        ops = []
        for p, n, R, frac in inputs:
            ops.extend(self._pair(p, n, R, frac))
        return ops

    @staticmethod
    def _pair(p, n, R, frac):
        expo = Exponent.finite(p)
        got = {}

        def eig():
            got["lam_R"] = trudlab.eigensolver.first_eigenvalue(expo, n, R).lam
            return got["lam_R"]

        def bvp():
            return trudlab.eigensolver.solve_delta_bvp(expo, n, R, frac * got["lam_R"], 1.0)

        def check_bvp(res) -> bool:
            # ACCEPTANCE 5 blow-up bound (delta = 1) and the boundary trace
            e = 1.0 / (p - 1.0)
            lam_R = got["lam_R"]
            bound = lam_R ** e / (lam_R ** e - (frac * lam_R) ** e)
            return (res.M_lambda >= bound - 1e-8
                    and abs(float(res.u[-1]) - 1.0) <= 1e-6)

        return [Op("first_eigenvalue", eig, lambda lam: eigen_oracle_ok(p, n, R, lam)),
                Op("solve_delta_bvp", bvp, check_bvp)]


# ---------------------------------------------------------------------------
# ensemble: ordered pairs of small log-implicit solves (ACCEPTANCE 8)


class Ensemble:
    """Many 41-node log-implicit solves: per-step cost is interpreter overhead."""

    name = "ensemble"

    def __init__(self, tiny: bool = False):
        self.pairs_per_p = 2 if tiny else 20

    def inputs(self, seed: int, k: int) -> list:
        rng = np.random.default_rng([seed, k])
        out = []
        for p in (2.0, 3.0):
            for _ in range(self.pairs_per_p):
                base = rng.uniform(0.7, 1.3)
                amp_lo = rng.uniform(0.05, 0.35)
                amp_hi = amp_lo + rng.uniform(0.05, 0.35)
                shape = rng.choice([1.0, 2.0])
                out.append([p, float(base), float(amp_lo), float(amp_hi), float(shape)])
        return out

    def ops(self, inputs: list, ctx) -> list:
        ops = []
        for p, base, amp_lo, amp_hi, shape in inputs:
            ops.extend(self._pair(p, base, amp_lo, amp_hi, shape))
        return ops

    @staticmethod
    def _pair(p, base, amp_lo, amp_hi, shape):
        def solve(amp):
            cfg = trudlab.pde.SolverConfig(
                p=Exponent.finite(p), n=2, R=1.0, nodes=41, t_end=0.08,
                scheme=trudlab.pde.LOG_IMPLICIT, boundary=lambda t: base,
                initial=lambda r: base + amp * (1.0 - np.asarray(r, float) ** 2) ** shape,
                dt=4e-3)
            return trudlab.pde.solve_trudinger_radial(cfg)

        got = {}

        def solve_lo():
            got["lo"] = solve(amp_lo)
            return got["lo"]

        # ACCEPTANCE 8 allows 5x the field's own consistency bound
        def principle_ok(fld) -> bool:
            b = fld.metadata["consistency_bound_u"]
            return b <= BOUND_CAP and _principle_excess(fld.values) <= 5.0 * b

        def check_hi(hi) -> bool:
            lo = got["lo"]
            if lo.values.shape != hi.values.shape or not np.array_equal(lo.times, hi.times):
                return False
            b = max(lo.metadata["consistency_bound_u"], hi.metadata["consistency_bound_u"])
            return (principle_ok(hi) and b <= BOUND_CAP
                    and _comparison_excess(lo.values, hi.values) <= 5.0 * b)

        return [Op("solve", solve_lo, principle_ok),
                Op("solve", lambda: solve(amp_hi), check_hi)]


# ---------------------------------------------------------------------------
# decay: the ACCEPTANCE 6/7 studies and one field-writing solve, via the CLI


def _experiment_ok(res: CliResult, decay_pn: tuple | None) -> bool:
    """Exit 0 and every pass flag set; a decay also needs lambda from the
    unit-ball table and an eigen-data slope within 2% of -lambda / (p - 1)."""
    jsons = [a for a in res.artifacts if a.endswith(".json")]
    if res.code != 0 or len(jsons) != 1:
        return False
    report = _load_json(jsons[0])
    if not report["passes"] or not all(report["passes"].values()):
        return False
    if decay_pn is None:
        return True
    p, n = decay_pn
    measured = report["measured"]
    rate = -LAMBDA_UNIT_BALL[(p, n)] / (p - 1.0)
    return (eigen_oracle_ok(p, n, 1.0, measured["lambda"])
            and abs(measured["eigen_slope"] - rate) <= 0.02 * abs(rate))


class Decay:
    """Few long solves on large grids: explicit heat decay, p = 3 decay,
    two flattenings and a 401-node solve that writes its field as CSV."""

    name = "decay"

    def __init__(self, tiny: bool = False):
        self.heat_nodes = 21 if tiny else DECAY_NODES
        # tiny keeps the p = 3 decay at its 401-node default: 41 nodes miss the rate
        self.flatten_nodes = ["--nodes", "41"] if tiny else []  # else the 201 default
        self.solve_nodes = 41 if tiny else 401

    def inputs(self, seed: int, k: int) -> list:
        rng = np.random.default_rng([seed, k])
        return [
            ["experiment", "decay", "--p", "2", "--n", "3", "--nodes", str(self.heat_nodes)],
            ["experiment", "decay", "--p", "3", "--n", "2"],
            ["experiment", "flatten", "--p", "2", *self.flatten_nodes],
            ["experiment", "flatten", "--p", "3", *self.flatten_nodes],
            ["solve", "--p", "2", "--n", "3", "--scheme", "log-implicit",
             "--t-end", "0.1", "--nodes", str(self.solve_nodes),
             {"initial": {"kind": "bump", "floor": float(rng.uniform(0.5, 1.5)),
                          "amplitude": float(rng.uniform(0.25, 1.0))}}],
        ]

    def ops(self, inputs: list, ctx) -> list:
        ops = []
        for argv in inputs:
            argv = list(argv)
            if argv[0] == "solve":
                ops.append(self._solve_op(argv[:-1], argv[-1], ctx))
                continue
            argv += ["--out", ctx.out_dir]
            decay_pn = ((float(argv[3]), int(argv[5])) if argv[1] == "decay" else None)
            ops.append(Op("experiment", lambda a=argv: call_cli(a),
                          lambda res, pn=decay_pn: _experiment_ok(res, pn)))
        return ops

    @staticmethod
    def _solve_op(argv, data, ctx):
        cfg = {**data, "boundary": data["initial"]["floor"]}
        cfg_path = os.path.join(ctx.in_dir, f"solve-{ctx.next_id()}.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        argv = argv + ["--config", cfg_path, "--out", ctx.out_dir]
        nodes = int(argv[argv.index("--nodes") + 1])

        def check(res: CliResult) -> bool:
            csvs = [a for a in res.artifacts if a.endswith(".csv")]
            jsons = [a for a in res.artifacts if a.endswith(".json")]
            if res.code != 0 or len(csvs) != 1 or len(jsons) != 1:
                return False
            manifest = _load_json(jsons[0])
            rows = np.loadtxt(csvs[0], delimiter=",", skiprows=1)
            levels = manifest["levels"]
            if rows.shape != (levels * nodes, 3) or abs(rows[-1, 0] - 0.1) > 1e-12:
                return False
            values = rows[:, 2].reshape(levels, nodes)
            bound = manifest["consistency_bound_u"]
            return bound <= BOUND_CAP and _principle_excess(values) <= 5.0 * bound

        return Op("solve", lambda: call_cli(argv), check)


WORKLOADS = {w.name: w for w in (Verify, Eigen, Ensemble, Decay)}
