"""The table writer's float formatter, byte for byte against repr, and the
report writer against csv.writer with repr."""

import csv
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from equirouter import _floatfmt
from equirouter._floatfmt import format_rows, write_csv


def _repr_rows(block, sep=","):
    return "".join(sep.join(map(repr, row)) + "\n" for row in block.tolist()).encode("ascii")


def _as_rows(values, cols):
    values = np.asarray(values, dtype=np.float64).ravel()
    pad = np.ones((-values.size) % cols)
    return np.concatenate([values, pad]).reshape(-1, cols)


def _finite_classes(rng):
    """Random bit patterns of every finite class. Random 64-bit patterns are
    almost all normal, so subnormal and zero patterns are drawn apart."""
    bits = rng.integers(0, 2**64 - 1, 210_000, dtype=np.uint64, endpoint=True)
    bits = bits[np.isfinite(bits.view(np.float64))]
    signs = rng.integers(0, 2, 4000, dtype=np.uint64) << 63
    subnormal = rng.integers(1, 2**52, 4000, dtype=np.uint64) | signs
    zeros = np.array([0, 1 << 63], dtype=np.uint64)
    return np.concatenate([bits, subnormal, zeros]).view(np.float64)


def _edges():
    e = np.arange(-1074, 1024)
    pow2 = np.ldexp(1.0, e)
    pow10 = np.array([float(f"1e{i}") for i in range(-323, 309)])
    near = np.concatenate([np.nextafter(pow10, 0.0), np.nextafter(pow10, np.inf)])
    boundaries = [1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0,
                  5e-324, 1.7976931348623157e308, 2.2250738585072014e-308,
                  2.225073858507201e-308, 0.1, 0.30000000000000004, 1.0, 0.0, -0.0]
    return np.concatenate([pow2, pow10, near[np.isfinite(near)], boundaries])


@pytest.mark.parametrize("cols", [11, 24])
def test_format_rows_matches_repr_byte_for_byte(cols):
    rng = np.random.Generator(np.random.Philox(21))
    integers = np.round(rng.standard_normal(20_000) * 10.0 ** rng.integers(0, 19, 20_000))
    values = np.concatenate([
        _finite_classes(rng),
        rng.standard_normal(20_000),
        integers,
        _edges(),
    ])
    values = np.concatenate([values, -values[-2000:]])
    block = _as_rows(rng.permutation(values), cols)
    assert format_rows(block, ",") == _repr_rows(block)


def test_format_rows_separators_and_shapes():
    rng = np.random.Generator(np.random.Philox(22))
    for shape in [(1, 1), (3, 1), (1, 24), (5, 2), (2 * _floatfmt.CHUNK // 7 + 3, 7)]:
        block = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 20, shape)
        assert format_rows(block, ", ") == _repr_rows(block, ", ")
        assert format_rows(block, ",") == _repr_rows(block, ",")
    assert format_rows(np.zeros((0, 3)), ",") == b""
    for sep in ["", ",,,", "\0"]:
        with pytest.raises(ValueError, match="separator"):
            format_rows(np.ones((2, 2)), sep)


def test_format_rows_writes_non_finite_values_as_repr():
    block = np.array([[np.nan, np.inf, -np.inf, 1.5, 5e-324, -0.0]])
    assert format_rows(block, ",") == b"nan,inf,-inf,1.5,5e-324,-0.0\n"


def _csv_reference(path, columns):
    """A report as csv.writer writes it with repr of every float and str of
    every integer."""
    cells = [[repr(float(v)) if np.asarray(col).dtype.kind == "f" else str(int(v)) for v in col]
             for col in columns.values()]
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(list(columns))
        for row in zip(*cells):
            w.writerow(row)


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072009e-308,
                  1.0, -3.0, 1e16, 2.0**53, 1e-05, 0.1]


@settings(max_examples=150)
@given(data=st.data(), rows=st.integers(0, 12),
       kinds=st.lists(st.sampled_from(["int", "float"]), min_size=1, max_size=6))
def test_write_csv_matches_csv_writer_with_repr(data, rows, kinds):
    floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(SPECIAL_FLOATS)
    integers = st.integers(-(2**63), 2**63 - 1)
    columns = {}
    for j, kind in enumerate(kinds):
        if kind == "int":
            columns[f"count_{j}"] = data.draw(arrays(np.int64, rows, elements=integers))
        else:
            columns[f"value_{j}"] = data.draw(arrays(np.float64, rows, elements=floats))
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp, "got.csv"), Path(tmp, "want.csv")
        write_csv(got, columns)
        _csv_reference(want, columns)
        assert got.read_bytes() == want.read_bytes()


def test_write_csv_refuses_columns_of_unequal_length_before_writing(tmp_path):
    path = tmp_path / "report.csv"
    with pytest.raises(ValueError, match="one length"):
        write_csv(path, {"n": np.arange(3), "s_n": np.zeros(2)})
    with pytest.raises(ValueError, match="1-D"):
        write_csv(path, {"calls": np.zeros((2, 2), dtype=np.int64)})
    assert not path.exists()
    write_csv(path, {"n": [], "s_n": np.zeros(0)})
    assert path.read_bytes() == b"n,s_n\r\n"
    write_csv(path, {"epoch": [0, 1], "loss": [1.0, 0.5]})
    assert path.read_bytes() == b"epoch,loss\r\n0,1.0\r\n1,0.5\r\n"
