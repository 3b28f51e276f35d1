"""Artifact writing shared by every command: verify, eigen, solve, experiment."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import time

import numpy as np


def _strict(obj):
    """obj in strict JSON values: numpy scalars as Python ones, non-finite floats as None."""
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def write_artifacts(out_dir, stem: str, config, payload, writers=None) -> list:
    """Write the artifact set <stem>-<stamp>-<config hash>[-k] in out_dir.

    <base>.json holds payload as strict JSON (sorted keys, indent 2, see
    `_strict`); writers maps each further suffix to a callable that writes
    the file at <base><suffix>.  Every file is created exclusively, so runs
    that finish in the same second never overwrite one another; on a clash
    the next free index k is taken.  A set is all or nothing: if a writer
    raises, every file of the set is removed and the error re-raised, so no
    manifest is left beside a truncated file.  Returns the paths, the JSON
    first.
    """
    writers = writers or {}
    text = json.dumps(_strict(payload), indent=2, sort_keys=True, allow_nan=False)
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True, default=str).encode()).hexdigest()[:8]
    head = os.path.join(out_dir, f"{stem}-{time.strftime('%Y%m%dT%H%M%S')}-{digest}")
    for k in itertools.count():
        base = head if k == 0 else f"{head}-{k}"
        paths = []
        try:
            with open(base + ".json", "x") as fh:
                paths.append(fh.name)
                fh.write(text)
            for suffix in writers:
                with open(base + suffix, "x") as fh:
                    paths.append(fh.name)
        except FileExistsError:
            for path in paths:
                os.remove(path)
            continue
        try:
            for path, write in zip(paths[1:], writers.values()):
                write(path)
        except BaseException:
            for path in paths:
                os.remove(path)
            raise
        return paths
