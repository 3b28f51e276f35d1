"""The one artifact writer: strict JSON, exclusive names, extra files."""

import json
import math
import os
import re

import numpy as np
import pytest

from trudlab import artifacts
from trudlab.artifacts import write_artifacts


def strict_load(path):
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def test_numpy_scalars_and_non_finite_floats(tmp_path):
    payload = {"flag": np.bool_(True), "count": np.int64(7), "gap": np.float64(np.nan),
               "rates": (np.float64(0.5), -math.inf), "nested": {"ok": np.bool_(False)}}
    [path] = write_artifacts(tmp_path, "unit", {"k": 1}, payload)
    text = open(path).read()
    assert strict_load(path) == {"flag": True, "count": 7, "gap": None,
                                 "rates": [0.5, None], "nested": {"ok": False}}
    assert '"count": 7,' in text and '"flag": true' in text
    assert text == json.dumps(strict_load(path), indent=2, sort_keys=True)


def test_same_second_clash_takes_next_index(tmp_path, monkeypatch):
    monkeypatch.setattr(artifacts.time, "strftime", lambda fmt: "20240101T000000")
    first = write_artifacts(tmp_path, "unit", {"k": 1}, {"run": 1})
    second = write_artifacts(tmp_path, "unit", {"k": 1}, {"run": 2})
    base = first[0][: -len(".json")]
    assert re.fullmatch(r"unit-20240101T000000-[0-9a-f]{8}", os.path.basename(base))
    assert second == [base + "-1.json"]
    assert strict_load(first[0]) == {"run": 1} and strict_load(second[0]) == {"run": 2}


def test_writers_fill_their_suffixes_in_order(tmp_path, monkeypatch):
    monkeypatch.setattr(artifacts.time, "strftime", lambda fmt: "20240101T000000")
    [probe] = write_artifacts(tmp_path, "unit", {}, {})
    base = probe[: -len(".json")]
    os.remove(probe)
    open(base + "-b.csv", "x").close()  # only the last file of set 0 is taken

    def writer(text):
        def write(path):
            with open(path, "w") as fh:
                fh.write(text)
        return write

    paths = write_artifacts(tmp_path, "unit", {}, {"x": 1},
                            {".csv": writer("a"), "-b.csv": writer("b")})
    assert paths == [base + "-1.json", base + "-1.csv", base + "-1-b.csv"]
    assert [open(p).read() for p in paths[1:]] == ["a", "b"]
    # the files set 0 had created before the clash are gone again
    assert sorted(os.listdir(tmp_path)) == sorted(
        os.path.basename(p) for p in [base + "-b.csv", *paths])


def test_failing_writer_leaves_no_files(tmp_path, monkeypatch):
    monkeypatch.setattr(artifacts.time, "strftime", lambda fmt: "20240101T000000")

    def good(path):
        with open(path, "w") as fh:
            fh.write("complete")

    def failing(path):
        with open(path, "w") as fh:
            fh.write("t,r,u\r\n0,0,")  # a few bytes, then the disk fills
            raise OSError(28, "No space left on device")

    with pytest.raises(OSError, match="No space left"):
        write_artifacts(tmp_path, "unit", {}, {"x": 1}, {".csv": good, "-b.csv": failing})
    assert os.listdir(tmp_path) == []
    # the names are free again: the next run takes index 0
    paths = write_artifacts(tmp_path, "unit", {}, {"x": 2}, {".csv": good})
    assert re.fullmatch(r"unit-20240101T000000-[0-9a-f]{8}\.json", os.path.basename(paths[0]))
    assert strict_load(paths[0]) == {"x": 2} and open(paths[1]).read() == "complete"
