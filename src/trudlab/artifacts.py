"""Output file naming shared by every command: verify, eigen, solve, experiment."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time


def create_artifacts(out_dir, stem: str, config, exts: tuple) -> tuple:
    """Create the artifact set <stem>-<stamp>-<config hash>[-k] + exts in out_dir.

    Each file is created exclusively, so runs that finish in the same second
    never overwrite one another; on a clash the next free index k is taken.
    Returns the base name and the first file, open for writing.
    """
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True, default=str).encode()).hexdigest()[:8]
    head = os.path.join(out_dir, f"{stem}-{time.strftime('%Y%m%dT%H%M%S')}-{digest}")
    for k in itertools.count():
        base = head if k == 0 else f"{head}-{k}"
        made = []
        try:
            for ext in exts:
                made.append(open(base + ext, "x"))
        except FileExistsError:
            for fh in made:
                fh.close()
                os.remove(fh.name)
            continue
        for fh in made[1:]:
            fh.close()
        return base, made[0]
