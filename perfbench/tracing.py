"""Out-of-program tracing: wrap trudlab's public functions at every module
binding they are called through and record one span per call.

Spans live in memory as ``[name, start, end, parent, op, info]`` lists and are
written out once, when the run ends.  ``parent`` is the index of the enclosing
span (-1 for none) and ``op`` the benchmark op that caused the call, so the
spans of one op share an identifier.  ``info`` holds the few result fields
the layer metrics need (family, sample count, scheme, steps, ...).

What stays invisible from outside: rejected dt halvings and per-step Newton
data live inside ``pde`` and arrive only with an in-program trace.
"""

from __future__ import annotations

import functools
import json
import time


def _verify_info(out, args, kwargs):
    return {"family": out.family, "samples": out.samples}


def _solve_info(out, args, kwargs):
    meta = out.metadata
    steps = meta["steps"] if "steps" in meta else out.times.size - 1
    return {"scheme": meta["scheme"], "nodes": out.grid.count, "steps": int(steps),
            "newton_max": int(meta.get("newton_iterations_max", 0)),
            "field_bytes": int(out.values.nbytes)}


def _csv_info(out, args, kwargs):
    field = args[0]
    return {"rows": int(field.times.size * field.grid.count)}


# span name -> (module bindings "module:attr", result-info extractor)
TARGETS = {
    "cli.main": (["trudlab.cli:main"], None),
    "barriers.verify_sign": (["trudlab.cli:verify_sign", "trudlab.barriers:verify_sign"],
                             _verify_info),
    "operators.trudinger_residual_grid": (
        ["trudlab.barriers:trudinger_residual_grid",
         "trudlab.operators:trudinger_residual_grid"], None),
    "operators.fd_residual_on_field": (
        ["trudlab.pde:fd_residual_on_field", "trudlab.operators:fd_residual_on_field"], None),
    "eigensolver.first_eigenvalue": (
        ["trudlab.eigensolver:first_eigenvalue", "trudlab.experiments:first_eigenvalue",
         "trudlab.cli:first_eigenvalue"], None),
    "eigensolver.solve_delta_bvp": (["trudlab.eigensolver:solve_delta_bvp"], None),
    "eigensolver.shoot_radial": (["trudlab.eigensolver:shoot_radial"], None),
    "pde.solve_trudinger_radial": (
        ["trudlab.pde:solve_trudinger_radial", "trudlab.experiments:solve_trudinger_radial",
         "trudlab.cli:solve_trudinger_radial"], _solve_info),
    "experiments.decay_experiment": (
        ["trudlab.experiments:decay_experiment", "trudlab.cli:decay_experiment"], None),
    "experiments.flatten_experiment": (
        ["trudlab.experiments:flatten_experiment", "trudlab.cli:flatten_experiment"], None),
    "grids.to_csv": (["trudlab.grids:SpaceTimeField.to_csv"], _csv_info),
}


def _resolve(binding):
    import importlib

    module_name, path = binding.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Context manager that installs span-recording wrappers and removes them."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.op = None

    def _wrap(self, name, fn, info_fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if info_fn is not None:
                rec[5] = info_fn(out, args, kwargs)
            return out

        return traced

    def __enter__(self):
        for name, (bindings, info_fn) in TARGETS.items():
            for binding in bindings:
                owner, attr = _resolve(binding)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, info_fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "info": info}) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover.

    The program is single-threaded, so sibling spans never overlap and the
    covered time is the sum of the children's durations.
    """
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
