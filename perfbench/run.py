"""trudlab benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 24 --trace 0

The workload runs as a closed loop: one in-process caller, one op at a time,
no thread pool.  Whole passes over the workload's seeded op list repeat while
another pass of median length still ends within ``--seconds`` (at least one
pass runs).  Every op's output is checked; a failed check or a raised
exception counts in ``failed``.

``--trace 0`` prints the end-to-end metrics.  Their times are scaled to a
fixed machine speed by reference runs taken between the ops (``speed.py``);
the raw times are printed and recorded beside them.  ``--trace 1`` prints the
per-layer metrics of a traced run (an untraced and a traced pass over the
same inputs alternate, so the tracing overhead is measured in the same
process).  The last line of standard output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Everything the run leaves behind goes under ``.perfbench_out/`` in the
checkout: the result with its environment, and the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_BASE = os.path.join(ROOT, ".perfbench_out")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_ms.p50": "ms", "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
}


class Context:
    """Where a run's ops write, plus a counter for unique input file names."""

    def __init__(self, run_dir: str):
        self.out_dir = os.path.join(run_dir, "out")  # shared by every pass
        self.in_dir = os.path.join(run_dir, "in")
        os.makedirs(self.out_dir)
        os.makedirs(self.in_dir)
        self._ids = 0

    def next_id(self) -> int:
        self._ids += 1
        return self._ids


class Pass:
    def __init__(self):
        self.start = self.end = 0.0
        self.wall = 0.0     # end - start, without the reference runs in between
        self.ops = []       # (start, latency) of each op
        self.attempted = 0
        self.failed = 0
        self.artifacts = []
        self.artifact_bytes = 0

    @property
    def latencies(self) -> list:
        return [lat for _, lat in self.ops]


def run_pass(ops, tracer=None, pass_index=0, speed=None) -> Pass:
    """Run and check every op of one pass; with ``speed``, reference runs
    (untimed) are taken between ops so the pass's timings can be scaled."""
    res = Pass()
    probing = 0.0
    res.start = time.perf_counter()
    for i, op in enumerate(ops):
        if speed is not None:
            before = speed.spent
            speed.maybe_probe()
            probing += speed.spent - before
        if tracer is not None:
            tracer.op = f"{pass_index}.{i}"
        res.attempted += 1
        a = time.perf_counter()
        try:
            out = op.call()
        except Exception:
            res.ops.append((a, time.perf_counter() - a))
            res.failed += 1
            print(f"op {pass_index}.{i} ({op.kind}) raised:\n{traceback.format_exc()}",
                  file=sys.stderr)
            continue
        res.ops.append((a, time.perf_counter() - a))
        try:
            ok = op.check(out)
        except Exception:
            ok = False
            traceback.print_exc(file=sys.stderr)
        if not ok:
            res.failed += 1
            print(f"op {pass_index}.{i} ({op.kind}) failed its check", file=sys.stderr)
        paths = getattr(out, "artifacts", [])
        res.artifacts.extend(paths)
        if tracer is not None:
            res.artifact_bytes += sum(os.path.getsize(p) for p in paths if os.path.exists(p))
    res.end = time.perf_counter()
    res.wall = res.end - res.start - probing
    if speed is not None:
        speed.probe()  # so the pass's last op has a reference run after it too
    return res


def percentile(values, q: float) -> float:
    """Percentile by linear interpolation between the two nearest ops.

    A workload with few ops per run (16 for eigen) then reports the mean of
    two neighbouring ops rather than one op, which halves the variance that
    one op's jitter adds.
    """
    import numpy

    return float(numpy.percentile(values, q))


# fresh processes timed for setup_s; its median is reported
SETUP_PROBES = 7
# reference runs each of them makes once it is ready
SETUP_REFERENCE_RUNS = 10


def measure_setup(args) -> tuple:
    """Times for fresh processes to import trudlab, numpy and scipy and
    generate the first pass's inputs: (scaled, raw).

    Each probe process runs the reference task itself once it is ready and
    reports its mean time; the probe is scaled by that.  Reference runs in
    the parent did not follow the probes (the child may run on the other
    core): their correlation with the probe times was below 0.3, against
    0.82 for the child's own."""
    from speed import REF_NOMINAL_S

    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            ref = proc.stdout.read().strip()
            code = proc.wait()
        if line != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
        raw.append(elapsed)
        scaled.append(elapsed * REF_NOMINAL_S / float(ref))
    return scaled, raw


def steal_seconds() -> float:
    """CPU time the hypervisor took from this machine so far (0 if not reported)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def environment(args, load_at_start) -> dict:
    import numpy
    import scipy

    import workloads

    env = dict(GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, env={**os.environ, **env})
        git_rev = rev.stdout.strip() if rev.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        git_rev = "unknown"
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(), "git_rev": git_rev,
        "loadavg_at_start": load_at_start, "seed": args.seed, "workload": args.workload,
        "size": args.size, "seconds": args.seconds, "trace": args.trace,
        "decay_nodes": workloads.DECAY_NODES, "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["verify", "eigen", "ensemble", "decay"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: a few ops per pass, for the smoke test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    load_at_start = list(os.getloadavg())
    steal_at_start = steal_seconds()

    # benchmark the checkout's own sources, never an installed trudlab
    if not os.path.isfile(os.path.join(SRC, "trudlab", "__init__.py")):
        print(f"error: no trudlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.setup_probe:
        import workloads

        workloads.WORKLOADS[args.workload](args.size == "tiny").inputs(args.seed, 0)
        print("ready", flush=True)
        from speed import reference

        print(statistics.fmean(reference() for _ in range(SETUP_REFERENCE_RUNS)))
        return 0

    # setup_s is an end-to-end metric: the traced run does not measure it
    setup = None if args.trace else measure_setup(args)

    import trudlab
    import workloads

    if os.path.dirname(os.path.abspath(trudlab.__file__)) != os.path.join(SRC, "trudlab"):
        print(f"error: imported trudlab from {trudlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.size == "tiny")
    os.makedirs(OUT_BASE, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT_BASE)
    try:
        ctx = Context(run_dir)
        if args.trace:
            from layers import layer_metrics

            passes, metrics, extra = run_traced(workload, args, ctx, layer_metrics)
        else:
            passes, metrics, extra = run_untraced(workload, args, ctx, setup)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    env = environment(args, load_at_start)
    extra = {**extra, "passes": len(passes), "pass_walls_raw_s": [p.wall for p in passes],
             "ops": attempted,
             "fail_ratio": failed / attempted,
             "steal_s": steal_seconds() - steal_at_start}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_BASE, f"result-{tag}.json"), "w") as fh:
        json.dump({"env": env, "metrics": metrics, "detail": extra}, fh, indent=1)

    print(json.dumps({"env": env}))
    print(f"{args.workload}: {len(passes)} passes, {attempted} ops, {failed} failed, "
          f"fail_ratio {failed / attempted:g}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    for name, value in extra.items():
        print(f"  # {name}: {value}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def more(t0: float, spans: list, seconds: float) -> bool:
    """Whether to start another pass: always a first one, then while one more
    pass of median length still ends within the run."""
    return not spans or time.perf_counter() - t0 + statistics.median(spans) <= seconds


def run_untraced(workload, args, ctx, setup):
    from speed import Speed

    speed = Speed()
    passes = []
    t0 = time.perf_counter()
    while more(t0, [p.end - p.start for p in passes], args.seconds):
        ops = workload.ops(workload.inputs(args.seed, len(passes)), ctx)
        passes.append(run_pass(ops, pass_index=len(passes), speed=speed))
    walls = [p.wall * speed.scale(p.start, p.end) for p in passes]
    latencies = [lat * speed.scale(a, a + lat) for p in passes for a, lat in p.ops]
    raw = [x for p in passes for x in p.latencies]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": statistics.median(setup[0]),
        "wall_s": statistics.median(walls),
        "op_ms.p50": 1e3 * percentile(latencies, 50),
        "op_ms.p90": 1e3 * percentile(latencies, 90),
        "peak_rss_mb": rss,
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    unscaled = {"setup_s": statistics.median(setup[1]),
                "wall_s": statistics.median(p.wall for p in passes),
                "op_ms.p50": 1e3 * percentile(raw, 50), "op_ms.p90": 1e3 * percentile(raw, 90)}
    return passes, metrics, {"op_samples": len(latencies), "unscaled": unscaled,
                             "setup_probes_raw_s": setup[1],
                             "reference_runs": len(speed.took),
                             "reference_s.mean": statistics.fmean(speed.took),
                             "reference_s.total": speed.spent}


def run_traced(workload, args, ctx, layer_metrics):
    from tracing import Tracer

    tracer = Tracer()
    plain, traced = [], []
    t0 = time.perf_counter()
    while more(t0, [b.end - a.start for a, b in zip(plain, traced)], args.seconds):
        # both passes of a pair run the same inputs
        k = len(traced)
        plain.append(run_pass(workload.ops(workload.inputs(args.seed, k), ctx),
                              pass_index=2 * k))
        with tracer:
            traced.append(run_pass(workload.ops(workload.inputs(args.seed, k), ctx),
                                   tracer, pass_index=2 * k + 1))
    tag = f"{args.workload}-seed{args.seed}"
    spans_path = os.path.join(OUT_BASE, f"spans-{tag}.jsonl")
    tracer.write(spans_path)
    written = sum(len(p.artifacts) for p in plain + traced)
    present = len(os.listdir(ctx.out_dir))
    metrics = layer_metrics(
        tracer.spans, traced,
        overwritten=(written - present) / (len(plain) + len(traced)),
        untraced_wall=statistics.median(p.wall for p in plain))
    # fail_ratio is 0 whenever the program is correct, so it cannot be an end-to-end
    # metric, which is judged as a share of its median
    passes = plain + traced
    metrics["fail_ratio"] = {"value": sum(p.failed for p in passes)
                             / sum(p.attempted for p in passes), "unit": "ratio"}
    return passes, metrics, {"traced_passes": len(traced), "spans": spans_path,
                                     "span_count": len(tracer.spans)}


if __name__ == "__main__":
    sys.exit(main())
