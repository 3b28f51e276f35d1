"""The exact %.17g writer behind every CSV artifact.

The oracle is Python's own `b"%.17g" % v` (and csv.writer over `f"{x:.17g}"`
for whole files), which rounds the exact binary value half to even.
"""

import csv
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trudlab import grids
from trudlab.grids import CSV_BLOCK_BYTES, RadialGrid, SpaceTimeField, format_17g


def reference(values):
    return [b"%.17g" % x for x in np.asarray(values, dtype=float).ravel().tolist()]


def from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


FLOATS = st.one_of(
    st.floats(width=64),  # hypothesis' own mix of specials, bounds and ordinary values
    st.integers(0, 2 ** 64 - 1).map(from_bits),  # every exponent alike
    st.floats(1e-4, 1e16),  # the fixed-notation range
    st.builds(lambda m, k: m * 10.0 ** k, st.integers(-10 ** 17, 10 ** 17), st.integers(-22, 4)),
)


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, st.integers(0, 80), elements=FLOATS))
def test_bytes_equal_percent_format(values):
    assert format_17g(values) == reference(values)


def edge_values():
    values = [1 + 2.0 ** -17, 1 + 3 * 2.0 ** -17,  # exact half-way ties at the 17th digit
              9.9999999999999995e15, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
              math.inf, -math.inf, math.nan]
    for x in [float(f"1e{k}") for k in range(-5, 18)] + [1e-4, 1e16]:
        values += [np.nextafter(x, 0.0), x, np.nextafter(x, math.inf)]
    return np.array(values + [-v for v in values])


def test_edge_values():
    values = edge_values()
    assert format_17g(values) == reference(values)
    # the ties go to the even neighbour, down and up
    assert format_17g([1 + 2.0 ** -17, 1 + 3 * 2.0 ** -17]) == [
        b"1.0000076293945312", b"1.0000228881835938"]


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_exponent_estimate_one_off_is_corrected(monkeypatch, shift):
    # numpy's log10 lands on the printed exponent here; one that is off by one
    # either way must still give the same text
    values = np.concatenate([edge_values(), 10.0 ** np.random.default_rng(3).uniform(-5, 17, 500)])
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    assert format_17g(values) == reference(values)


def test_shapes_and_empty():
    assert format_17g([]) == []
    assert format_17g(np.array([[1.5, -2.0], [100.0, 0.25]])) == [b"1.5", b"-2", b"100", b"0.25"]
    assert format_17g(3.0) == [b"3"]
    assert format_17g([0.0, -1e-5, 1e300, math.nan]) == [b"0", b"-1.0000000000000001e-05",
                                                          b"1.0000000000000001e+300", b"nan"]


def test_field_csv_spans_blocks(tmp_path, monkeypatch):
    count = 401
    block = CSV_BLOCK_BYTES // (24 * count)
    levels = 2 * block + block // 2 + 1  # two whole blocks and a partial one
    rng = np.random.default_rng(7)
    values = rng.choice([-1.0, 1.0], (levels, count)) * 10.0 ** rng.uniform(-7, 18, (levels, count))
    values[:, :50] = rng.uniform(0.5, 2.0, (levels, 50))  # exponents -1 and 0 side by side
    middle = block + 1  # fallback values inside the second block
    values[middle, 60:66] = [0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan]
    values[middle, 70:80] = rng.uniform(0.0, 1e-4, 10)
    field = SpaceTimeField(values, RadialGrid(1.7, count), np.linspace(0.0, 0.3, levels))

    sizes = []

    def spy(xs):
        sizes.append(np.size(xs))
        return format_17g(xs)

    monkeypatch.setattr(grids, "format_17g", spy)
    field.to_csv(tmp_path / "field.csv")
    with open(tmp_path / "reference.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "r", "u"])
        for t, level in zip(field.times, values):
            for r, u in zip(field.grid.r, level):
                writer.writerow([f"{t:.17g}", f"{r:.17g}", f"{u:.17g}"])
    assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    # r and t once each, then the levels in blocks whose text cells stay within the budget
    assert sizes == [count, levels] + [block * count] * 2 + [(levels - 2 * block) * count]
    assert block * count * 24 <= CSV_BLOCK_BYTES
