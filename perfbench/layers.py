"""Per-layer metrics of a traced run, computed from its spans.

Layers are trudlab's modules.  Counts, bytes and busy times are given per
traced pass, so runs of different length compare; a metric of a layer the
workload never calls reads 0.  Each metric's comment names the end-to-end
metric it should move (see perfbench/README.md for the full mapping).
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import self_times

FAMILIES = ["eigen-separable", "growth-envelope", "kernel", "power-profile", "paraboloid",
            "flatten-upper", "flatten-lower", "inf-flatten-upper", "inf-flatten-lower",
            "boundary-cone", "boundary-outer-ball"]
STEP_GRIDS = [("log-implicit", 41), ("log-implicit", 201), ("log-implicit", 401),
              ("direct-explicit", 101)]
SCHEMES = ["log-implicit", "direct-explicit"]

UNITS = {
    "cli.main.calls": "count/pass",
    "cli.main.self_ms.p50": "ms",
    "cli.artifact_bytes": "B/pass",
    "cli.artifacts_overwritten": "count/pass",
    "barriers.verify_sign.calls": "count/pass",
    "barriers.verify_sign.self_ms.p50": "ms",
    "barriers.points_per_s": "1/s",
    **{f"barriers.verify_sign.ms.{f}": "ms" for f in FAMILIES},
    "operators.trudinger_residual_grid.calls": "count/pass",
    "operators.trudinger_residual_grid.ms": "ms/pass",
    "operators.fd_residual_on_field.calls": "count/pass",
    "operators.fd_residual_on_field.ms": "ms/pass",
    "eigensolver.first_eigenvalue.ms.p50": "ms",
    "eigensolver.solve_delta_bvp.ms.p50": "ms",
    "eigensolver.shoot_radial.calls_per_op": "count",
    "eigensolver.shoot_radial.ms.p50": "ms",
    "eigensolver.shoot_share": "ratio",
    "eigensolver.useful_shot_ratio": "ratio",
    **{f"pde.solve.calls.{s}": "count/pass" for s in SCHEMES},
    **{f"pde.steps.{s}": "count/pass" for s in SCHEMES},
    **{f"pde.step_us.{s}.n{n}": "us" for s, n in STEP_GRIDS},
    "pde.newton_iterations_max": "count",
    "pde.audit_share": "ratio",
    "pde.field_bytes": "B",
    "experiments.decay_experiment.ms": "ms/pass",
    "experiments.flatten_experiment.ms": "ms/pass",
    "experiments.self_ms": "ms/pass",
    "grids.to_csv.ms": "ms/pass",
    "grids.to_csv.rows_per_s": "1/s",
    "trace.overhead": "ratio",
}


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(spans, traced_passes, overwritten: float, untraced_wall: float) -> dict:
    own = self_times(spans)
    dur = defaultdict(list)    # name -> durations (s)
    selfs = defaultdict(list)  # name -> self times (s)
    children = defaultdict(list)  # parent index -> child indices
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        dur[name].append(end - start)
        selfs[name].append(own[i])
        if parent >= 0:
            children[parent].append(i)

    n_pass = len(traced_passes)
    traced_wall = sum(p.wall for p in traced_passes)
    per_pass = lambda x: x / n_pass
    calls = lambda name: per_pass(len(dur[name]))
    busy_ms = lambda name: per_pass(1e3 * sum(dur[name]))
    p50_ms = lambda name: 1e3 * _median(dur[name])

    v = {
        # cli self time sets verify op_ms.p50; bytes written set decay wall_s
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_ms.p50": 1e3 * _median(selfs["cli.main"]),
        "cli.artifact_bytes": per_pass(sum(p.artifact_bytes for p in traced_passes)),
        "cli.artifacts_overwritten": overwritten,
        # kernel / power-profile set verify op_ms.p90, the rest op_ms.p50
        "barriers.verify_sign.calls": calls("barriers.verify_sign"),
        "barriers.verify_sign.self_ms.p50": 1e3 * _median(selfs["barriers.verify_sign"]),
    }
    by_family = defaultdict(list)
    points = 0
    for name, start, end, _, _, info in spans:
        if name == "barriers.verify_sign":
            by_family[info["family"]].append(end - start)
            points += info["samples"]
    v["barriers.points_per_s"] = _ratio(points, sum(dur["barriers.verify_sign"]))
    for f in FAMILIES:
        v[f"barriers.verify_sign.ms.{f}"] = 1e3 * _median(by_family[f])

    # residual evaluation: verify op_ms.p90 (kernel); audit share of ensemble op_ms
    for name in ("operators.trudinger_residual_grid", "operators.fd_residual_on_field"):
        v[f"{name}.calls"] = calls(name)
        v[f"{name}.ms"] = busy_ms(name)

    # shooting: eigen op_ms.p50 and wall_s; a small share of decay wall_s
    top = len(dur["eigensolver.first_eigenvalue"]) + len(dur["eigensolver.solve_delta_bvp"])
    shots = len(dur["eigensolver.shoot_radial"])
    v["eigensolver.first_eigenvalue.ms.p50"] = p50_ms("eigensolver.first_eigenvalue")
    v["eigensolver.solve_delta_bvp.ms.p50"] = p50_ms("eigensolver.solve_delta_bvp")
    v["eigensolver.shoot_radial.calls_per_op"] = _ratio(shots, top)
    v["eigensolver.shoot_radial.ms.p50"] = p50_ms("eigensolver.shoot_radial")
    v["eigensolver.shoot_share"] = _ratio(sum(dur["eigensolver.shoot_radial"]), traced_wall)
    v["eigensolver.useful_shot_ratio"] = _ratio(top, shots)

    # solver: ensemble op_ms (n41), decay wall_s (explicit, n201/n401), peak_rss_mb
    solve_calls = defaultdict(int)
    steps = defaultdict(int)
    step_time = defaultdict(float)
    step_count = defaultdict(int)
    newton_max = field_bytes = 0
    audit = solve_time = 0.0
    for i, (name, start, end, _, _, info) in enumerate(spans):
        if name != "pde.solve_trudinger_radial":
            continue
        audit_i = sum(spans[c][2] - spans[c][1] for c in children[i]
                      if spans[c][0] == "operators.fd_residual_on_field")
        scheme, nodes = info["scheme"], info["nodes"]
        solve_calls[scheme] += 1
        steps[scheme] += info["steps"]
        step_time[(scheme, nodes)] += end - start - audit_i
        step_count[(scheme, nodes)] += info["steps"]
        newton_max = max(newton_max, info["newton_max"])
        field_bytes = max(field_bytes, info["field_bytes"])
        audit += audit_i
        solve_time += end - start
    for s in SCHEMES:
        v[f"pde.solve.calls.{s}"] = per_pass(solve_calls[s])
        v[f"pde.steps.{s}"] = per_pass(steps[s])
    for s, n in STEP_GRIDS:
        v[f"pde.step_us.{s}.n{n}"] = 1e6 * _ratio(step_time[(s, n)], step_count[(s, n)])
    v["pde.newton_iterations_max"] = newton_max
    v["pde.audit_share"] = _ratio(audit, solve_time)
    v["pde.field_bytes"] = field_bytes

    # experiments: decay wall_s; self time excludes the pde / eigensolver / barriers calls
    exp_names = ("experiments.decay_experiment", "experiments.flatten_experiment")
    v["experiments.decay_experiment.ms"] = busy_ms(exp_names[0])
    v["experiments.flatten_experiment.ms"] = busy_ms(exp_names[1])
    v["experiments.self_ms"] = per_pass(1e3 * sum(sum(selfs[n]) for n in exp_names))

    # CSV writes: decay wall_s
    rows = sum(info["rows"] for name, *_, info in spans if name == "grids.to_csv")
    v["grids.to_csv.ms"] = busy_ms("grids.to_csv")
    v["grids.to_csv.rows_per_s"] = _ratio(rows, sum(dur["grids.to_csv"]))

    v["trace.overhead"] = _ratio(statistics.median(p.wall for p in traced_passes),
                                 untraced_wall)
    return {k: {"value": float(v[k]), "unit": UNITS[k]} for k in UNITS}
