"""The array text writer against Python's ``%`` operator."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wmsdspace import _text

DECIMALS = range(10)
# One row per block, a few rows per block, and the production size.
CHUNKS = st.sampled_from([1, 3, _text._CHUNK_ROWS])


def fixed_point_values(n: int):
    """Floats whose ``%.nf`` text is hard to get right."""
    limit = 2.0 ** 52 / 10 ** n
    return st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        # exact binary ties: odd multiples of 2^-(n+1), times 10^n, end in .5
        st.integers(-2 ** 40, 2 ** 40).map(lambda i: (2 * i + 1)
                                           / 2 ** (n + 1)),
        # decimal ties (j + 1/2) / 10^n, which binary holds only nearly
        st.integers(-10 ** 9, 10 ** 9).map(lambda j: (j + 0.5) / 10 ** n),
        st.sampled_from([0.0, -0.0, -1e-9, -4e-7, -5e-7, 5e-324, -5e-324,
                         2.2250738585072014e-308, -1e-300]),
        st.floats(0.999, 1.001).map(lambda f: f * limit),
        st.sampled_from([limit, -limit, math.nextafter(limit, 0.0),
                         math.nextafter(limit, math.inf), 1e300, -1e300]),
    ).flatmap(lambda x: st.sampled_from([x, math.nextafter(x, math.inf),
                                         math.nextafter(x, -math.inf)]))


@given(st.sampled_from(DECIMALS).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(fixed_point_values(n),
                                             max_size=30))), CHUNKS)
def test_fixed_point_equals_percent(case, chunk):
    n, xs = case
    with mock.patch.object(_text, "_CHUNK_ROWS", chunk):
        got = _text.rows(f"%.{n}f\n", [np.array(xs, dtype=float)])
    assert got == "".join("%.*f\n" % (n, x) for x in xs)


@given(st.sampled_from(DECIMALS).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(fixed_point_values(n),
                                             max_size=30))))
def test_fallback_takes_only_values_past_exact_integers(case):
    """Python's ``%`` formats a value only when it is not finite or
    |x|·10^N is at least 2^52; ties below that are decided in the grid."""
    n, xs = case
    with mock.patch.object(_text, "_percent", wraps=_text._percent) as spy:
        _text.rows(f"%.{n}f\n", [np.array(xs, dtype=float)])
    sent = [x for call in spy.call_args_list for x in call.args[0]]
    assert list(map(repr, sent)) == [repr(x) for x in xs
                                     if not abs(x) * 10.0 ** n < 2.0 ** 52]


@given(st.lists(st.one_of(st.integers(-2 ** 63, 2 ** 63 - 1),
                          st.integers(-10 ** 6, 10 ** 6)), max_size=30),
       CHUNKS)
def test_integers_equal_percent(ints, chunk):
    with mock.patch.object(_text, "_CHUNK_ROWS", chunk):
        got = _text.rows("%d;", [np.array(ints, dtype=np.int64)])
    assert got == "".join("%d;" % i for i in ints)


IDS = st.text(st.sampled_from(["\0", "%", '"', ",", "\n", "a", "Z", "7",
                               "é", "☃", "\U0001f600", " "]))


@given(st.lists(st.tuples(IDS, fixed_point_values(6), fixed_point_values(2),
                          st.integers(-10 ** 12, 10 ** 12),
                          st.integers(0, 255), st.floats(-1e6, 1e6), IDS),
                max_size=20),
       CHUNKS)
def test_rows_equal_template(records, chunk):
    template = "%s,%.6f;%.2f %d#%02x[%r]%% %s\n"
    cols = list(zip(*records)) or [[]] * 7
    with mock.patch.object(_text, "_CHUNK_ROWS", chunk):
        got = _text.rows(template, [
            list(cols[0]), np.array(cols[1], dtype=float),
            np.array(cols[2], dtype=float), np.array(cols[3], dtype=np.int64),
            np.array(cols[4], dtype=np.int64), np.array(cols[5], dtype=float),
            list(cols[6])])
    assert got == "".join(template % (a, b, c, d, e, round(f, 6), g)
                          for a, b, c, d, e, f, g in records)


def test_two_dimensional_columns():
    table = np.array([[0.5, -0.0], [1e-7, 2.5e-7], [123.456789, -9.99]])
    assert _text.rows("%s:%.1f,%.6f\n", [["a", "b", "c"], table]) == \
        "a:0.5,-0.000000\nb:0.0,0.000000\nc:123.5,-9.990000\n"


@pytest.mark.parametrize("columns", [[], [[1.0], [2.0]]])
def test_columns_must_match_conversions(columns):
    with pytest.raises(TypeError):
        _text.rows("%r\n", columns)


@pytest.mark.parametrize("template", ["%f", "%x", "%5.2f", "%.10f", "%"])
def test_unsupported_conversion(template):
    with pytest.raises(ValueError):
        _text.rows(template, [[1.0]])


# Templates whose adjacent numeric columns share one conversion and one
# literal, so each run of them is formatted as one table: the transform
# table (an id and 26 floats, passed as one 2-D array), boundary vertex
# rows and integer triples.
LIKE_COLUMNS = {
    "%s" + ",%.6f" * 26 + "\n": ["s"] + ["f"] * 26,
    "vertex,%.6f,%.6f\n": ["f", "f"],
    "%d,%d,%d\n": ["d"] * 3,
}
CELLS = {"s": IDS, "f": fixed_point_values(6),
         "d": st.integers(-2 ** 63, 2 ** 63 - 1)}


@given(st.sampled_from(sorted(LIKE_COLUMNS)).flatmap(
    lambda t: st.tuples(st.just(t), st.lists(
        st.tuples(*[CELLS[kind] for kind in LIKE_COLUMNS[t]]), max_size=12))),
    CHUNKS)
def test_like_columns_equal_template(case, chunk):
    template, records = case
    kinds = LIKE_COLUMNS[template]
    numbers = np.array([r[kinds.count("s"):] for r in records],
                       dtype=np.int64 if "d" in kinds else float)
    columns = [numbers.reshape(len(records), len(kinds) - kinds.count("s"))]
    if kinds[0] == "s":
        columns.insert(0, [r[0] for r in records])
    with mock.patch.object(_text, "_CHUNK_ROWS", chunk):
        got = _text.rows(template, columns)
    assert got == "".join(template % r for r in records)


def test_long_string_cell_is_bounded():
    """One 4 MiB id among 4,095 short ones: the block is split until the
    long row's padding widens no other row, so the peak stays a small
    multiple of the cell, where padding all 4,096 rows would take 16 GiB."""
    size = 4 << 20
    ids = [f"id{k}" for k in range(_text._CHUNK_ROWS)]
    ids[1234] = "é" + "x" * (size - 2)
    values = np.linspace(-1.0, 1.0, len(ids))
    ranks = np.arange(len(ids))
    tracemalloc.start()
    try:
        got = _text.rows("%s,%.6f,%d\n", [ids, values, ranks])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == "".join("%s,%.6f,%d\n" % row
                          for row in zip(ids, values, ranks))
    assert peak < 6 * size
