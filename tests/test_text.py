"""The array text writer against Python's ``%`` operator."""

import contextlib
import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wmsdspace import _text, model

DECIMALS = range(10)
# One row per block, a few rows per block, and the production size.
CHUNKS = st.sampled_from([1, 3, None])


def blocks_of(rows, template: str):
    """Blocks of ``rows`` rows of ``template``'s columns, by setting the
    budget they are sized from to ``rows`` rows of 16 bytes a column; None
    keeps the budget."""
    if rows is None:
        return contextlib.nullcontext()
    columns = sum(conv != "%" for conv, _ in
                  _text._CONVERSION.findall(template))
    return mock.patch.object(model, "_BLOCK_BYTES", rows * 16 * columns)


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
    with blocks_of(chunk, f"%.{n}f\n"):
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
    with blocks_of(chunk, "%d;"):
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
    with blocks_of(chunk, template):
        got = _text.rows(template, [
            list(cols[0]), np.array(cols[1], dtype=float),
            np.array(cols[2], dtype=float), np.array(cols[3], dtype=np.int64),
            np.array(cols[4], dtype=np.int64), np.array(cols[5], dtype=float),
            list(cols[6])])
    assert got == "".join(template % (a, b, c, d, e, round(f, 6), g)
                          for a, b, c, d, e, f, g in records)


# Value ranges whose '%.6f' blocks hold no pad byte (one head digit, no
# sign) and ranges whose blocks do: negative values, values of several
# head widths.
PAD_FREE = st.floats(0.0, 9.999999)
PADDED = st.one_of(st.floats(-9.999999, 0.0), st.floats(10.0, 1e9),
                   st.floats(-1e9, 1e9))


@given(st.lists(st.tuples(PAD_FREE, PAD_FREE), max_size=30),
       st.lists(st.tuples(PADDED, PAD_FREE), max_size=30), CHUNKS)
def test_blocks_with_and_without_pads_equal_percent(free, padded, chunk):
    template = "envelope,%.6f,%.6f\n"
    for records in (free, padded, free + padded):
        cols = np.array(records, dtype=float).reshape(-1, 2)
        with blocks_of(chunk, template):
            got = _text.rows(template, [cols])
        assert got == "".join(template % r for r in records)


@given(st.lists(st.tuples(IDS, PAD_FREE), max_size=30), CHUNKS)
def test_id_blocks_equal_percent(records, chunk):
    template = "%s,%.6f\n"
    ids = [r[0] for r in records]
    with blocks_of(chunk, template):
        got = _text.rows(template, [ids, np.array([r[1] for r in records])])
    assert got == "".join(template % r for r in records)


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
    with blocks_of(chunk, template):
        got = _text.rows(template, columns)
    assert got == "".join(template % r for r in records)


def test_long_string_cell_is_bounded():
    """One 4 MiB id among 4,095 short ones: the block is split until the
    long row's padding widens no other row, so the peak stays a small
    multiple of the cell, where padding all 4,096 rows would take 16 GiB."""
    size = 4 << 20
    ids = [f"id{k}" for k in range(4096)]
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


@pytest.mark.parametrize("rows", [1, 3, 7])
def test_budget_sets_rows_per_piece(rows):
    """Each piece is one block of the rows the budget gives the template's
    columns, the last block shorter."""
    values = np.arange(20.0)
    with blocks_of(rows, "%.6f,%d\n"):
        got = list(_text.pieces("%.6f,%d\n", [values, values.astype(int)]))
    sizes = [piece.count(b"\n") for piece in got]
    assert sizes == [rows] * (20 // rows) + [20 % rows] * (20 % rows > 0)
    assert b"".join(got).decode() == "".join(
        "%.6f,%d\n" % (x, x) for x in values)


def test_transform_table_stays_within_the_budget():
    """A 27-column table of 20,000 rows, as ``transform`` writes, holds
    fewer than 8 budgets at its peak, where blocks of 4,096 rows held 35;
    the pieces are dropped as they are made."""
    rng = np.random.default_rng(3)
    ids = [f"alt{i:06d}" for i in range(20_000)]
    table = rng.uniform(-1.0, 1.0, (20_000, 26))
    template = "%s" + ",%.6f" * 26 + "\n"
    digest = hashlib.sha256()
    tracemalloc.start()
    try:
        for piece in _text.pieces(template, [ids, table]):
            digest.update(piece)
            del piece
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest.digest() == hashlib.sha256("".join(
        template % (i, *r) for i, r in zip(ids, table.tolist())).encode()
    ).digest()
    assert peak < 8 * model._BLOCK_BYTES


def json_float_values():
    """Floats whose ``repr(round(x, 6))`` is hard to get right: those of
    ``%.6f`` and signed zeros, values about the 1e-4 where ``repr`` starts
    writing an exponent, and values near 2^52 / 10^6."""
    limit = 2.0 ** 52 / 10 ** 6
    return st.one_of(
        fixed_point_values(6),
        st.sampled_from([0.0, -0.0, 1e-5, -1e-5, 1e-4, -1e-4, 9.95e-5,
                         -9.95e-5, 9.9e-5, 1.005e-4, limit, -limit]),
        st.floats(-2e-4, 2e-4),
        st.floats(0.999, 1.001).map(lambda f: f * limit),
    ).flatmap(lambda x: st.sampled_from([x, math.nextafter(x, math.inf),
                                         math.nextafter(x, -math.inf)]))


@given(st.lists(json_float_values(), max_size=30), CHUNKS)
def test_json_floats_equal_repr_round(xs, chunk):
    """``%r`` is ``repr(round(x, 6))``, and Python formats only the values
    it would write with an exponent or that are past exact integers."""
    with blocks_of(chunk, "%r\n"), \
            mock.patch.object(_text, "_percent", wraps=_text._percent) as spy:
        got = _text.rows("%r\n", [np.array(xs, dtype=float)])
    assert got == "".join(repr(round(x, 6)) + "\n" for x in xs)
    sent = [x for call in spy.call_args_list for x in call.args[0]]
    assert list(map(repr, sent)) == [
        repr(x) for x in xs
        if not abs(x) * 10.0 ** 6 < 2.0 ** 52 or 0 < abs(round(x, 6)) < 1e-4]
