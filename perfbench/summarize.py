"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/summarize.py --workloads verify,eigen --seeds 1-10 [--trace 1]

Runs ``run.py`` once per (workload, seed), one at a time, and prints per
metric the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread (q3 - q1) / median, beside a third of the metric's bound from
BENCHMARK.json.  The table also goes to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list, bounds: dict) -> dict:
    table = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        table[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                       "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
                       "bound": bounds.get(name)}
    return table


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="verify,eigen,ensemble,decay")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=os.path.join(ROOT, ".perfbench_out", "summary.json"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        results = [run_once(workload, s, bench["run_seconds"], args.trace)
                   for s in parse_seeds(args.seeds)]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        summary[workload] = {"runs": len(results), "attempted": attempted, "failed": failed,
                             "metrics": summarize(results, bounds)}
        print(f"{workload}: {len(results)} runs, {attempted} ops, {failed} failed")
        for name, m in summary[workload]["metrics"].items():
            limit = "" if m["bound"] is None else f"  (bound/3 {m['bound'] / 3:.3f})"
            print(f"  {name:48s} median {m['median']:.6g} {m['unit']:10s} "
                  f"spread {m['spread']:.4f}{limit}")
        sys.stdout.flush()
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
