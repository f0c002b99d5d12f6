import argparse
import csv
import fcntl
import hashlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import termios
import time
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import FIXTURES, fresh_python, python_env, run_python
from wmsdspace import aggregate, cli, geometry, model
from wmsdspace.aggregate import AggregationKind, agg_values
from wmsdspace.errors import (
    AllZeroWeights,
    BadNumber,
    HeaderMismatch,
    MalformedCsv,
    OutOfDomain,
    SchemaError,
    UnattainablePoint,
    WmsdError,
)
from wmsdspace.cli import parse_config, read_matrix
from wmsdspace.model import DecisionMatrix, WeightVector
from wmsdspace.spaces import utility_array
from wmsdspace.wmsd import plane

STUDENTS_CONFIG = (FIXTURES / "students_config.json").read_text()

# Stands for the directory :func:`write_seeded_inputs` fills in a test.
SEEDED = Path("<seeded>")


def write_seeded_inputs(d: Path) -> None:
    """Seeded datasets and configs for the frozen seeded documents.

    ``plot.csv`` has 2,000 rows over five criteria (two costs, negative
    domains, uneven weights) with bound cells, repeated rows and ids that
    need quoting or escaping; ``snap_a.csv``/``snap_b.csv`` are 300 rows
    moved between two snapshots, every tenth row left in place, and
    ``snap_b_reversed.csv`` is ``snap_b.csv`` with its rows in reverse
    order; ``np12`` has twelve positive weights.
    """
    rng = np.random.default_rng(20261018)
    lo = np.array([-40.0, 0.0, -5.5, 10.0, -200.0])
    hi = np.array([60.0, 1.0, 5.5, 12.5, 900.0])
    criteria = [{"name": f"c{j}", "kind": "cost" if j in (1, 3) else "gain",
                 "min": float(lo[j]), "max": float(hi[j]), "weight": w}
                for j, w in enumerate([1.0, 0.35, 0.8, 0.05, 0.6])]
    for name, kind in (("plot", "R"), ("snap", "A")):
        (d / f"{name}.json").write_text(json.dumps(
            {"criteria": criteria, "aggregation": kind}))
    (d / "np12.json").write_text(json.dumps({"criteria": [
        {"name": f"k{j}", "kind": "gain", "min": 0, "max": 1,
         "weight": round(float(w), 3)}
        for j, w in enumerate(rng.uniform(0.05, 1.0, 12))]}))

    def values(m):
        vals = np.round(lo + rng.random((m, lo.size)) * (hi - lo), 3)
        at_bound = rng.random(vals.shape) < 0.02
        vals = np.where(at_bound, np.where(rng.random(vals.shape) < 0.5,
                                           hi, lo), vals)
        vals[rng.choice(m, m // 100, replace=False)] = \
            vals[rng.choice(m, m // 100, replace=False)]
        return vals

    def write(name, ids, vals):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id"] + [c["name"] for c in criteria])
        writer.writerows([i, *map(repr, row)]
                         for i, row in zip(ids, vals.tolist()))
        (d / name).write_text(buf.getvalue(), encoding="utf-8")

    odd = ["a&b<{}>", "na\u00efve {}", 'q"{}"', "c,{}", "{}%s", " {} "]
    ids = [odd[i // 97 % len(odd)].format(i) if i % 97 == 0 else f"a{i}"
           for i in range(2000)]
    write("plot.csv", ids, values(2000))
    snap = values(300)
    moved = np.clip(snap + rng.uniform(-0.08, 0.08, snap.shape) * (hi - lo),
                    lo, hi)
    moved[::10] = snap[::10]
    write("snap_a.csv", ids[:300], snap)
    write("snap_b.csv", ids[:300], np.round(moved, 3))
    write("snap_b_reversed.csv", ids[:300][::-1], np.round(moved, 3)[::-1])


class TestParseConfig:
    def test_students_config(self):
        config = parse_config(STUDENTS_CONFIG)
        assert config.names == ("Math", "Bio", "Art")
        assert config.aggregation is AggregationKind.R
        assert config.weighted is True
        assert config.weight_vector.weights.tolist() == [0.5, 0.6, 1.0]

    def test_bad_aggregation(self):
        doc = json.loads(STUDENTS_CONFIG)
        doc["aggregation"] = "X"
        with pytest.raises(SchemaError):
            parse_config(json.dumps(doc))

    def test_all_zero_weights_path(self):
        doc = json.loads(STUDENTS_CONFIG)
        for c in doc["criteria"]:
            c["weight"] = 0.0
        with pytest.raises(AllZeroWeights) as exc:
            parse_config(json.dumps(doc))
        assert "criteria[*].weight" in str(exc.value)

    def test_unknown_field(self):
        doc = json.loads(STUDENTS_CONFIG)
        doc["normalisation"] = "vector"
        with pytest.raises(SchemaError):
            parse_config(json.dumps(doc))

    def test_missing_criterion_field(self):
        doc = json.loads(STUDENTS_CONFIG)
        del doc["criteria"][0]["min"]
        with pytest.raises(SchemaError, match=r"criteria\[0\]"):
            parse_config(json.dumps(doc))

    def test_invalid_json(self):
        with pytest.raises(SchemaError):
            parse_config("{not json")

    @pytest.mark.parametrize("field", ["min", "max", "weight",
                                       "tie_tolerance"])
    def test_integer_beyond_float_range(self, run_cli, tmp_path, field):
        doc = json.loads(STUDENTS_CONFIG)
        if field == "tie_tolerance":
            doc[field], path = 10 ** 400, field
        else:
            doc["criteria"][1][field], path = 10 ** 400, f"criteria[1].{field}"
        config = tmp_path / "huge.json"
        config.write_text(json.dumps(doc))
        code, out, err = run_cli("rank", "--data", FIXTURES / "students.csv",
                                 "--config", config)
        assert code == 1 and out == ""
        record = json.loads(err)
        assert record["error"] == "SchemaError" and record["path"] == path


class TestReadMatrix:
    def test_students(self, students_config):
        m = read_matrix((FIXTURES / "students.csv").read_text(),
                        students_config)
        assert m.m == 15 and m.n == 3

    def test_countries(self, countries_configs):
        m = read_matrix((FIXTURES / "countries.csv").read_text(),
                        countries_configs["w1"])
        assert m.m == 12 and m.n == 4

    def test_bad_number_coordinates(self, students_config):
        text = "id,Math,Bio,Art\nS1,50,3,4\nS2,abc,3,4\n"
        with pytest.raises(BadNumber) as exc:
            read_matrix(text, students_config)
        assert exc.value.row == 2
        assert exc.value.column == "Math"

    @pytest.mark.parametrize("cell", ["3\x1c", "\x1d3", "3\x1e", "\x1f3"])
    def test_separator_around_number_is_bad(self, students_config, cell):
        """numpy's text reader strips \\x1c-\\x1f around a number, which
        ``float()`` refuses."""
        with pytest.raises(BadNumber) as exc:
            read_matrix(f"id,Math,Bio,Art\nS1,{cell},3,4\n", students_config)
        assert (exc.value.row, exc.value.column) == (1, "Math")

    def test_header_mismatch(self, students_config):
        text = "id,Math,Biology,Art\nS1,50,3,4\n"
        with pytest.raises(HeaderMismatch):
            read_matrix(text, students_config)

    def test_out_of_domain(self, students_config):
        text = "id,Math,Bio,Art\nS1,150,3,4\n"
        with pytest.raises(OutOfDomain):
            read_matrix(text, students_config)


def _outcome(read, text, config):
    """Ids and value bytes of a parsed dataset, or its error's details.

    The bytes tell ``-0.0`` from ``0.0``, which ``transform`` prints
    differently.
    """
    try:
        m = read(text, config)
    except WmsdError as e:
        return (type(e).__name__, getattr(e, "row", None),
                getattr(e, "column", None), str(e))
    return m.ids, m.values.shape, m.values.tobytes()


def _reference_cells(csv_text, names):
    """``(ids, values)`` of a dataset as the csv module reads the whole
    text, raising every ingest error: the reference ingest must match."""
    limit = csv.field_size_limit()
    csv.field_size_limit(max(limit, len(csv_text)))
    reader = csv.reader(io.StringIO(csv_text))
    expected = ["id", *names]
    ids, rows = [], []
    r = 0  # 1-based data row: blank lines are not counted
    try:
        try:
            header = next(reader, None)
        except csv.Error as e:
            raise MalformedCsv(f"header: {e}") from None
        if header is None:
            raise HeaderMismatch("dataset is empty; expected a header row")
        if header != expected:
            raise HeaderMismatch(
                f"header {header} does not match expected {expected}")
        for record in reader:
            if not record:
                continue
            r += 1
            if len(record) != len(expected):
                raise HeaderMismatch(
                    f"row {r}: expected {len(expected)} fields, "
                    f"got {len(record)}")
            try:
                rows.append(list(map(float, record[1:])))
            except ValueError:
                for name, cell in zip(names, record[1:]):
                    try:
                        float(cell)
                    except ValueError:
                        raise BadNumber(
                            f"row {r}, column {name!r}: cannot parse "
                            f"{cell!r} as a number", row=r,
                            column=name) from None
            ids.append(record[0])
    except csv.Error as e:
        raise MalformedCsv(f"row {r + 1}: {e}", row=r + 1) from None
    finally:
        csv.field_size_limit(limit)
    values = np.array(rows, dtype=float) if rows else np.empty((0, len(names)))
    values.flags.writeable = False
    return ids, values


def _cells_outcome(read, text, names):
    """Ids, value bytes, shape and flags of ``read``'s cells, or its
    error's class, message and row."""
    try:
        ids, values = read(text, names)
    except WmsdError as e:
        return type(e).__name__, str(e), getattr(e, "row", None)
    return (ids, values.tobytes(), values.shape, values.flags.owndata,
            values.flags.writeable)


# Cells in domain for every students criterion repeat, so that about half
# the generated datasets parse.
_CELLS = (["3", "4.5", "2", "5.25", "1", "6"] * 8
          + [" 3", "3 ", "\t2", "1_0", "2_5", "nan", "NaN", "inf", "-inf",
             "Infinity", "-Infinity", "\u0663", "\uff14", "\u00a05", "", "abc",
             "150", "-5", "+3.5", "1e0", '"4"', '"1,5"', "0x1", "-0", "1e400",
             ".5", "5.", "1.5e", "3#", "3\x1c", "\x1f3", "\x0b3", "3\x0c"])
_IDS = ["a", "b", "c", "d", "a b", "\u00e9t\u00e9", "", " pad ", '"q,1"',
        '"x""y"', '"two\nlines"', "a#b", "x\x1cy"]


@st.composite
def _dataset_texts(draw):
    """Dataset texts around the students header: blank, whitespace-only,
    ragged and CRLF lines, quoted ids and cells, repeated ids."""
    header = draw(st.sampled_from(["id,Math,Bio,Art"] * 6
                                  + ['"id",Math,Bio,Art', "id,Math,Bio"]))
    lines = [header]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 12 + ["blank"] * 2
                                    + ["space", "ragged"]))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", "  "])))
        else:
            width = 3 if kind == "row" else draw(st.sampled_from([2, 4]))
            cells = draw(st.lists(st.sampled_from(_CELLS), min_size=width,
                                  max_size=width))
            lines.append(",".join([draw(st.sampled_from(_IDS)), *cells]))
    end = draw(st.sampled_from(["\n"] * 3 + ["\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


# Fields that only the csv module reads, or that make it refuse the text.
_ODD_IDS = ['"x,y"', '""', '"c""d"', '"two\nlines"', "a\0", "x\x1cy",
            "a\rb", 'x"y', '"open']
_ODD_CELLS = ['"1,5"', '""', '"4"', '"c""d"', '"3\n"', "1_0", "\x1f3",
              "3\0", "\u0663", "", "abc", "3\r", "150"]
_PLAIN_CELLS = ["3", "4.5", "2", "5.25", "1", "-0", " 3"]


@st.composite
def _block_texts(draw):
    """Texts whose plain rows fill several blocks at a small block budget,
    followed by lines that only the csv module reads or that make it
    refuse the text (quotes, a quoted field over two lines, NUL,
    ``\\x1c``, a lone CR, ``\\r\\r\\n``, ``1_0``, ragged lines) and more
    plain rows; some have a quoted or wrong header, and some end in an
    unterminated quote."""
    header = draw(st.sampled_from(
        ["id,Math,Bio,Art"] * 8 + ['"id",Math,Bio,Art', "id,Math,Bio",
                                  "id,Math,Bio,Art\r\r", 'i"d,Math,Bio,Art']))
    plain_end = st.sampled_from(["\n"] * 5 + ["\r\n"])
    parts = [header, draw(plain_end)]
    plain = st.builds(",".join, st.tuples(
        st.integers(0, 99).map("s{}".format),
        *[st.sampled_from(_PLAIN_CELLS)] * 3))
    odd = st.builds(lambda i, cells: ",".join([i, *cells]),
                    st.sampled_from(_ODD_IDS + ["a", "", " pad "]),
                    st.lists(st.sampled_from(_ODD_CELLS + _PLAIN_CELLS * 3),
                             min_size=2, max_size=4))
    for count, line, end in ((12, plain, plain_end),
                             (4, odd, st.sampled_from(
                                 ["\n"] * 4 + ["\r\n", "\r\r\n", "\r"])),
                             (4, plain, plain_end)):
        for _ in range(draw(st.integers(0, count))):
            parts += [draw(st.one_of(*[line] * 5,
                                     st.sampled_from(["", "\r", " "]))),
                      draw(end)]
    if draw(st.booleans()):
        parts.pop()
    if draw(st.integers(0, 9)) == 0:
        parts.append('"open,1,2,3')
    return "".join(parts)


def _read_with_csv_module(text, config):
    """The dataset as the reference csv-module reader parses it."""
    return DecisionMatrix(*_reference_cells(text, config.names),
                          config.criteria, clamp=config.clamp)


def _spy_csv_records(monkeypatch):
    """The offsets the csv module is started at, one per call."""
    starts = []
    csv_records = cli._csv_records

    def spy(text, start, *args):
        starts.append(start)
        return csv_records(text, start, *args)

    monkeypatch.setattr(cli, "_csv_records", spy)
    return starts


class TestPlainIngest:
    """The numpy-reader blocks and the csv module that reads on from them
    against the whole-text csv-module reader."""

    @given(_dataset_texts(), st.booleans())
    @example(text="id,Math,Bio,Art\na,-0,2,2\n", clamp=False)
    @example(text="id,Math,Bio,Art\na,3\x1c,2,2\n", clamp=False)
    # numpy reads the cells after each id and takes a block only as n
    # cells on each non-blank line.  Rows that all hold n + 1 cells, rows
    # of mixed widths, an id alone, with or without its comma, and a
    # whitespace-only line must all still reach the csv module.
    @example(text="id,Math,Bio,Art\na\n", clamp=False)
    @example(text="id,Math,Bio,Art\na,\n", clamp=False)
    @example(text="id,Math,Bio,Art\na,1,2,3\nb\n", clamp=False)
    @example(text="id,Math,Bio,Art\na,1,2,3,4\nb,5,6,7,8\n", clamp=False)
    @example(text="id,Math,Bio,Art\na,1,2,3,4\n", clamp=False)
    @example(text="id,Math,Bio,Art\na,1,2,3,4\nb,1,2\n", clamp=False)
    @example(text="id,Math,Bio,Art\na,1,2\nb,1,2,3,4\n", clamp=False)
    @example(text="id,Math,Bio,Art\na,1,2,3,1,2,3\n \nb,1,2,3\n",
             clamp=False)
    @example(text="id,Math,Bio,Art\na,1,2,3\n\n\n", clamp=False)
    # CRLF line ends, blank CRLF lines among and after the rows, LF lines
    # among them and a CR that ends the text are read by numpy; a CR that
    # does not end a line, as in \r\r\n, reaches the csv module.
    @example(text="id,Math,Bio,Art\r\na,1,2,3\r\nb,4,5,6\r\n", clamp=False)
    @example(text="id,Math,Bio,Art\r\na,1,2,3\r\n\r\nb,4,5,6\r\n\r\n",
             clamp=False)
    @example(text="id,Math,Bio,Art\r\r\na,1,2,3\r\r\n", clamp=False)
    @example(text="id,Math,Bio,Art\r\na,1,2,3\r\nb,4,5,6\r", clamp=False)
    @example(text="id,Math,Bio,Art\na,1,2,3\r\nb,4,5,6\n", clamp=False)
    # numpy's record read keeps each id verbatim.
    @example(text="id,Math,Bio,Art\n pad ,1,2,3\n\tt\t,1,2,3\n"
                  "u\x85,1,2,3\n#,1,2,3\na#b,1,2,3\n", clamp=False)
    def test_equals_csv_path(self, students_config, text, clamp):
        config = students_config.replace(clamp=clamp)
        assert _outcome(read_matrix, text, config) == \
            _outcome(_read_with_csv_module, text, config)

    @given(_block_texts())
    @example(text='id,Math,Bio,Art\ns1,3,2,1\ns2,3,2,1\n"x,y",3,2,1\n'
                  's3,3,2,1\n')
    @example(text='id,Math,Bio,Art\ns1,3,2,1\ns2,3,2,1\n"two\nlines",3,2,1'
                  '\ns3,1_0,2,1\n')
    @example(text="id,Math,Bio,Art\ns1,3,2,1\ns2,3,2,1\na\rb,3,2,1\n")
    @example(text='id,Math,Bio,Art\ns1,3,2,1\ns2,3,2,1\n"open,1,2,3')
    # Where np.loadtxt(quotechar='"') reads differently from the csv
    # module: a quoted id that ends right after a line break, and an
    # unterminated quote before blank lines.
    @example(text='id,Math,Bio,Art\ns1,3,2,1\ns2,3,2,1\n"x\n",3,2,1\n'
                  's3,3,2,1\n')
    @example(text='id,Math,Bio,Art\ns1,3,2,1\ns2,3,2,1\n"open,1,2,3\n\n\n'
                  's3,3,2,1\n')
    def test_blocks_then_csv_module_equal_reference(self, students_config,
                                                    text):
        """At every block budget, the cells, their flags and every error
        are the whole-text csv reader's, wherever the csv module starts."""
        names = students_config.names
        want = _cells_outcome(_reference_cells, text, names)
        if isinstance(want[0], list):
            assert want[3:] == (True, False)
        for block_bytes in (1 << 18, 8, 24, 64):
            with mock.patch.object(model, "_BLOCK_BYTES", block_bytes):
                assert _cells_outcome(cli._cells, text, names) == want

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_plain_text_skips_csv_module(self, students_config, monkeypatch,
                                         end):
        def refuse(*args):
            raise AssertionError("csv module used")
        monkeypatch.setattr(cli, "_csv_records", refuse)
        # many rows, after a blank line
        rows = [f"s{i},{i % 100},{1 + i % 5},{6 - i % 5}" for i in range(9000)]
        text = end.join(["id,Math,Bio,Art", "", *rows, ""])
        m = read_matrix(text, students_config)
        assert m.m == 9000 and m.ids[-1] == "s8999"
        assert m.values[1].tolist() == [1.0, 2.0, 5.0]
        assert m.values[-1].tolist() == [99.0, 5.0, 2.0]

    @pytest.mark.parametrize("text", ["id,Math,Bio,Art\r\n\r\r\n",
                                      "id,Math,Bio,Art\r\n\r\n\r\r\n\r",
                                      "id,Math,Bio,Art\n\n"])
    def test_blank_lines_skip_csv_module(self, students_config, monkeypatch,
                                         text):
        """Blocks of blank lines of CRs and LFs alone are skipped before
        numpy, which warns on them, and never reach the csv module; nor
        does the blank line that ends a header-only text."""
        starts = _spy_csv_records(monkeypatch)
        names = students_config.names
        assert _cells_outcome(cli._cells, text, names) == \
            _cells_outcome(_reference_cells, text, names)
        assert starts == []

    def test_text_of_several_blocks(self, students_config, monkeypatch):
        """Text parsed in several blocks of lines, with blank lines among
        the rows, a run of them longer than a block, and more of them at
        the end, is read by numpy alone and gives the csv module's cells."""
        rows = [f"s{i},{i % 100}.5,{1 + i % 5},{6 - i % 5}\n"
                for i in range(150_000)]
        for i in range(0, len(rows), 997):
            rows[i] += "\n"
        rows[60_000] += "\n" * (3 << 20)
        text = "id,Math,Bio,Art\n" + "".join(rows) + "\n\n"
        assert len(text) > 4 << 20
        names = students_config.names
        starts = _spy_csv_records(monkeypatch)
        got = _cells_outcome(cli._cells, text, names)
        assert starts == []
        assert got == _cells_outcome(_reference_cells, text, names)
        assert len(got[0]) == 150_000

    @pytest.mark.parametrize("cells", ["1,2,3,4", "1,2"])
    def test_every_block_is_checked(self, students_config, monkeypatch,
                                    cells):
        """A second block whose rows all hold n + 1 cells, or all n - 1,
        after a first block of n, is refused as the first would be: the
        csv module starts at the second block and raises its error."""
        head, good = "id,Math,Bio,Art\n", "".join(f"s{i},1,2,3\n"
                                                 for i in range(5))
        text = head + good + f"t,{cells}\n" * 5
        monkeypatch.setattr(model, "_BLOCK_BYTES", len(good) - 1)
        starts = _spy_csv_records(monkeypatch)
        assert _outcome(read_matrix, text, students_config) == \
            _outcome(_read_with_csv_module, text, students_config)
        assert starts == [len(head + good)]

    def test_array_is_kept_without_a_copy(self, monkeypatch,
                                          students_config):
        """The reader hands over a read-only array that owns its data, from
        numpy's blocks, from the csv module and with zero rows, and the
        matrix keeps it; a caller's writeable array is still copied."""
        made = []

        def cells(text, names):
            made.append(cells_of(text, names))
            return made[-1]

        cells_of = cli._cells
        monkeypatch.setattr(cli, "_cells", cells)
        for text in ('id,Math,Bio,Art\nS1,50,3,4\nS2,60,4,5\n',
                     'id,Math,Bio,Art\n"S,1",50,3,4\nS2,60,4,5\n',
                     '"id",Math,Bio,Art\n'):
            matrix = read_matrix(text, students_config)
            values = made[-1][1]
            assert values.flags.owndata and not values.flags.writeable
            assert matrix.values is values
            assert values.shape == (len(matrix.ids), 3)
        writeable = np.array([[50.0, 3.0, 4.0]])
        matrix = DecisionMatrix(["S1"], writeable, students_config.criteria)
        assert matrix.values is not writeable

    def test_quoted_id_memory_is_bounded(self, students_config):
        """A quoted first id costs no more memory than the same rows
        unquoted: the csv module fills the one value array row by row."""
        rows = "".join(f"s{i},{i % 100},{1 + i % 5},{6 - i % 5}\n"
                       for i in range(1, 50_000))
        peaks = []
        for first in ("s0", '"s0"'):
            text = f"id,Math,Bio,Art\n{first},1,2,3\n" + rows
            tracemalloc.start()
            try:
                read_matrix(text, students_config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]


class TestRankCommand:
    def test_countries_w1_csv(self, run_cli):
        code, out, err = run_cli(
            "rank", "--data", FIXTURES / "countries.csv",
            "--config", FIXTURES / "countries_w1.json")
        assert code == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["id"] == "CHL"
        assert float(rows[0]["score"]) == pytest.approx(0.7455, abs=5e-4)
        assert rows[0]["rank"] == "1"

    def test_countries_w2_peru_second(self, run_cli):
        code, out, _ = run_cli(
            "rank", "--data", FIXTURES / "countries.csv",
            "--config", FIXTURES / "countries_w2.json", "--format", "json")
        assert code == 0
        entries = json.loads(out)["entries"]
        assert entries[1]["id"] == "PER" and entries[1]["rank"] == 2

    def test_single_row(self, run_cli, tmp_path):
        data = tmp_path / "one.csv"
        data.write_text("id,Math,Bio,Art\nonly,50,3,4\n")
        code, out, _ = run_cli("rank", "--data", data,
                               "--config", FIXTURES / "students_config.json")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and len(rows) == 1 and rows[0]["rank"] == "1"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tie_tolerance_flag(self, run_cli, tol):
        code, out, err = run_cli(
            "rank", "--data", FIXTURES / "countries.csv",
            "--config", FIXTURES / "countries_w1.json", f"--tie-tol={tol}")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "SchemaError"

    @pytest.mark.parametrize("tol", ["NaN", "Infinity", "-1"])
    def test_bad_tie_tolerance_config(self, run_cli, tmp_path, tol):
        text = (FIXTURES / "countries_w1.json").read_text()
        config = tmp_path / "tol.json"
        config.write_text(text.rstrip()[:-1] + f', "tie_tolerance": {tol}}}')
        code, out, err = run_cli("rank", "--data", FIXTURES / "countries.csv",
                                 "--config", config)
        assert code == 1 and out == ""
        record = json.loads(err)
        assert record["error"] == "SchemaError"
        assert record["path"] == "tie_tolerance"

    def test_deterministic_bytes(self, run_cli):
        args = ("rank", "--data", FIXTURES / "countries.csv",
                "--config", FIXTURES / "countries_w3.json")
        assert run_cli(*args) == run_cli(*args)


class TestTransformCommand:
    def test_student_plane_coordinates(self, run_cli):
        code, out, _ = run_cli(
            "transform", "--data", FIXTURES / "students.csv",
            "--config", FIXTURES / "students_config.json")
        assert code == 0
        rows = {r["id"]: r for r in csv.DictReader(io.StringIO(out))}
        assert float(rows["S8"]["wm"]) == pytest.approx(0.35, abs=0.005)
        assert float(rows["S8"]["wsd"]) == pytest.approx(0.20, abs=0.005)

    def test_equal_weights_reduce_to_msd(self, run_cli):
        code, out, _ = run_cli(
            "transform", "--data", FIXTURES / "students.csv",
            "--config", FIXTURES / "students_config_equal.json")
        assert code == 0
        for row in csv.DictReader(io.StringIO(out)):
            assert float(row["wm"]) == pytest.approx(float(row["m"]),
                                                     abs=1e-6)
            assert float(row["wsd"]) == pytest.approx(float(row["sd"]),
                                                      abs=1e-6)

    def test_empty_dataset_header_only(self, run_cli, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("id,Math,Bio,Art\n")
        code, out, _ = run_cli("transform", "--data", data,
                               "--config", FIXTURES / "students_config.json")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("id,u_Math")

    def test_round_trip_reproduces_rank_scores(self, run_cli):
        # 6-decimal output quantizes the plane coordinates, so the
        # reconstruction is exact only to ~1e-6
        code, tr, _ = run_cli(
            "transform", "--data", FIXTURES / "students.csv",
            "--config", FIXTURES / "students_config.json")
        code2, rk, _ = run_cli(
            "rank", "--data", FIXTURES / "students.csv",
            "--config", FIXTURES / "students_config.json")
        assert code == 0 and code2 == 0
        scores = {r["id"]: float(r["score"])
                  for r in csv.DictReader(io.StringIO(rk))}
        for row in csv.DictReader(io.StringIO(tr)):
            rebuilt = agg_values("R", float(row["wm"]), float(row["wsd"]),
                                 0.7)
            assert rebuilt == pytest.approx(scores[row["id"]], abs=5e-6)


class TestBoundaryCommand:
    def test_square_peak_row(self, run_cli, tmp_path):
        config = tmp_path / "two.json"
        config.write_text(json.dumps({"criteria": [
            {"name": "a", "kind": "gain", "min": 0, "max": 1, "weight": 1.0},
            {"name": "b", "kind": "gain", "min": 0, "max": 1, "weight": 1.0},
        ]}))
        code, out, _ = run_cli("boundary", "--config", config,
                               "--resolution", "513")
        assert code == 0
        rows = [r for r in csv.DictReader(io.StringIO(out))
                if r["section"] == "envelope"]
        assert any(abs(float(r["wm"]) - 0.5) < 1e-6
                   and abs(float(r["wsd"]) - 0.5) < 1e-6 for r in rows)
        assert (float(rows[0]["wm"]), float(rows[0]["wsd"])) == (0.0, 0.0)
        assert float(rows[-1]["wsd"]) == 0.0

    def test_json_format(self, run_cli):
        code, out, _ = run_cli("boundary", "--config",
                               FIXTURES / "countries_w2.json",
                               "--resolution", "33", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["wm"]) == 33 and len(doc["wsd"]) == 33
        assert [0.0, 0.0] in doc["vertices"]

    def test_bad_resolution(self, run_cli):
        code, _, err = run_cli("boundary", "--config",
                               FIXTURES / "countries_w2.json",
                               "--resolution", "1")
        assert code == 1
        assert json.loads(err)["error"] == "SchemaError"

    def test_resolution_cap(self, run_cli, capsys):
        args = ["boundary", "--config", FIXTURES / "countries_w2.json",
                "--resolution"]
        code, out, err = run_cli(*args, cli.MAX_RESOLUTION)
        assert code == 0, err
        assert out.count("\nenvelope,") == cli.MAX_RESOLUTION == 65536
        code, out, err = run_cli(*args, cli.MAX_RESOLUTION + 1)
        assert code == 1 and out == ""
        record = json.loads(err)
        assert record["error"] == "SchemaError"
        assert str(cli.MAX_RESOLUTION) in record["message"]
        with pytest.raises(SystemExit):
            cli.main(["boundary", "--help"])
        assert re.search(rf"2\s+to\s+{cli.MAX_RESOLUTION}",
                         capsys.readouterr().out)

    def test_permuted_weights_identical_output(self, run_cli, tmp_path):
        def config_for(weights):
            path = tmp_path / f"w_{'_'.join(map(str, weights))}.json"
            path.write_text(json.dumps({"criteria": [
                {"name": f"c{i}", "kind": "gain", "min": 0, "max": 1,
                 "weight": w} for i, w in enumerate(weights)]}))
            return path

        out1 = run_cli("boundary", "--config", config_for([0.5, 0.6, 1.0]))
        out2 = run_cli("boundary", "--config", config_for([1.0, 0.5, 0.6]))
        assert out1[1] == out2[1]

    def test_unweighted_is_the_uniform_weight_envelope(self, run_cli,
                                                       tmp_path):
        equal = run_cli("boundary", "--config",
                        FIXTURES / "students_config_equal.json")
        flag = run_cli("boundary", "--config",
                       FIXTURES / "students_config.json", "--unweighted")
        doc = json.loads(STUDENTS_CONFIG)
        doc["weighted"] = False
        config = tmp_path / "unweighted.json"
        config.write_text(json.dumps(doc))
        key = run_cli("boundary", "--config", config)
        weighted = run_cli("boundary", "--config",
                           FIXTURES / "students_config.json")
        assert equal[0] == 0 and flag == equal and key == equal
        assert weighted[1] != equal[1]


class TestPlotCommand:
    def test_two_by_two_panel(self, run_cli, tmp_path):
        out_path = tmp_path / "panel.svg"
        code, _, err = run_cli(
            "plot", "--data", FIXTURES / "countries.csv",
            "--config", FIXTURES / "countries_w1.json",
            "--config", FIXTURES / "countries_w2.json",
            "--config", FIXTURES / "countries_w3.json",
            "--config", FIXTURES / "countries_w4.json",
            "--grid", "24", "--columns", "2", "--out", out_path)
        assert code == 0, err
        svg = out_path.read_text()
        assert svg.count("<g transform") == 4
        assert svg.count('class="marker"') == 48

    def test_repeated_configs_build_two_tables(self, run_cli, fresh_tables):
        code, out, err = run_cli(
            "plot", "--data", FIXTURES / "countries.csv",
            *[a for k in (1, 2, 1, 2)
              for a in ("--config", FIXTURES / f"countries_w{k}.json")])
        assert code == 0, err
        assert out.count("<g transform") == 4
        info = fresh_tables.cache_info()
        assert info.misses == 2 and info.hits > 0

    def test_overlay_id_mismatch(self, run_cli):
        code, _, err = run_cli(
            "plot", "--data", FIXTURES / "countries.csv",
            "--config", FIXTURES / "countries_w3.json",
            "--overlay", FIXTURES / "countries_2023_synthetic.csv",
            "--grid", "16")
        assert code == 1
        record = json.loads(err)
        assert record["error"] == "IdSetMismatch"

    def test_overlay_renders(self, run_cli, tmp_path):
        out_path = tmp_path / "overlay.svg"
        code, _, err = run_cli(
            "plot", "--data", FIXTURES / "countries_2019_subset.csv",
            "--config", FIXTURES / "countries_w3.json",
            "--overlay", FIXTURES / "countries_2023_synthetic.csv",
            "--grid", "16", "--out", out_path)
        assert code == 0, err
        svg = out_path.read_text()
        assert svg.count('class="marker"') == 8
        assert svg.count('class="arrow"') == 4

    @pytest.mark.parametrize("extra", [
        [], ["--overlay", FIXTURES / "countries_2023_synthetic.csv"],
        ["--config", FIXTURES / "countries_w2.json"]],
        ids=["single", "overlay", "panels"])
    def test_dataset_text_is_dropped_before_drawing(self, run_cli,
                                                    monkeypatch, extra):
        """No reference to the dataset's text outlives its parse: the
        document is drawn without it."""
        from wmsdspace import render

        class Text(str):  # a str subclass can be weakly referenced
            pass

        texts, alive = {}, []
        read_data = cli._read_data

        def read(path, *rest):
            text = Text(read_data(path, *rest))
            texts[str(path)] = weakref.ref(text)
            return text

        def watched(draw):
            def wrapper(*a):
                alive.append(texts[str(data)]() is not None)
                return draw(*a)
            return wrapper

        monkeypatch.setattr(cli, "_read_data", read)
        for name in ("_plot_document", "_grid_document"):
            monkeypatch.setattr(render, name, watched(getattr(render, name)))
        data = FIXTURES / "countries_2019_subset.csv"
        code, out, err = run_cli(
            "plot", "--data", data, "--config",
            FIXTURES / "countries_w3.json", *extra, "--grid", "16")
        assert code == 0, err
        assert out.count('class="marker"') == 4 + 4 * bool(extra)
        assert alive == [False]

    @pytest.mark.parametrize("bad", ["a\x01b", "\x1f", "x\ufffe", "\uffff"])
    @pytest.mark.parametrize("overlay", [False, True])
    def test_label_xml_cannot_hold_is_refused(self, run_cli, tmp_path, bad,
                                              overlay):
        """A labelled id with a character XML 1.0 cannot hold is refused
        with its id; unlabelled, it never reaches the document."""
        data = tmp_path / "ids.csv"
        data.write_text(f"id,Math,Bio,Art\nS1,50,3,4\n{bad},60,4,5\n"
                        f"tab\there,70,2,2\n", encoding="utf-8")
        args = ["plot", "--data", data, "--grid", "16",
                "--config", FIXTURES / "students_config.json"]
        if overlay:
            args += ["--overlay", data]
        code, out, err = run_cli(*args, "--labels")
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "ValidationError" and record["id"] == bad
        code, out, err = run_cli(*args)
        assert code == 0, err
        ElementTree.fromstring(out)

    def test_tab_in_label_is_kept(self, run_cli, tmp_path):
        data = tmp_path / "ids.csv"
        data.write_text("id,Math,Bio,Art\nS1,50,3,4\ntab\there,70,2,2\n")
        code, out, err = run_cli(
            "plot", "--data", data, "--grid", "16", "--labels",
            "--config", FIXTURES / "students_config.json")
        assert code == 0, err
        texts = [t.text for t in ElementTree.fromstring(out).iter(
            "{http://www.w3.org/2000/svg}text")]
        assert "tab\there" in texts

    def test_carriage_return_in_label_read_back(self, run_cli, tmp_path):
        data = tmp_path / "cr.csv"
        data.write_bytes(b'id,Math,Bio,Art\n"a\rb",50,3,4\nS2,70,2,2\n')
        code, out, err = run_cli(
            "plot", "--data", data, "--grid", "16", "--labels",
            "--config", FIXTURES / "students_config.json")
        assert code == 0, err
        texts = [t.text for t in ElementTree.fromstring(out).iter(
            "{http://www.w3.org/2000/svg}text")]
        assert "a\rb" in texts and "a\nb" not in texts

    def test_in_box_row_under_wide_weights_plots(self, run_cli, tmp_path):
        """A row in the box, 2.4e-14 below the ideal image's WM, overshoots
        the computed envelope by 1.03e-9 under weights spanning six orders
        of magnitude; it is plotted."""
        config = tmp_path / "wide.json"
        config.write_text(json.dumps({"criteria": [
            {"name": name, "kind": "gain", "min": 0, "max": 1, "weight": w}
            for name, w in (("a", 0.1), ("b", 1), ("c", 0.000001))]}))
        data = tmp_path / "row.csv"
        data.write_text("id,a,b,c\nx,1,1,0.976\n")
        code, out, err = run_cli("plot", "--data", data, "--config", config,
                                 "--grid", "16")
        assert code == 0, err
        assert out.count('class="marker"') == 1

    def test_weight_whose_square_underflows(self, tmp_path):
        """A weight 1e-200 of the largest squares to 0; the row at the
        anti-ideal image is plotted, with no warning on stderr."""
        config = tmp_path / "tiny.json"
        config.write_text(json.dumps({"criteria": [
            {"name": name, "kind": "gain", "min": 0, "max": 1, "weight": w}
            for name, w in (("a", 1), ("b", 1e-200), ("c", 0.5))]}))
        data = tmp_path / "row.csv"
        data.write_text("id,a,b,c\nq,0,1,0\n")
        result = run_python("-m", "wmsdspace.cli", "plot", "--data", data,
                            "--config", config, "--grid", "16")
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout.count(b'class="marker"') == 1

    def test_unweighted_flag_gives_msd_view(self, run_cli):
        code, out, _ = run_cli(
            "plot", "--data", FIXTURES / "students.csv",
            "--config", FIXTURES / "students_config.json",
            "--grid", "16", "--unweighted")
        assert code == 0
        # equal weights: WM axis tops out at 1.00 instead of 0.70
        assert ">1.00</text>" in out

    def test_bad_grid_is_validation_error(self, run_cli):
        code, _, err = run_cli(
            "plot", "--data", FIXTURES / "students.csv",
            "--config", FIXTURES / "students_config.json", "--grid", "4")
        assert code == 1
        assert json.loads(err)["error"] == "SchemaError"

    def test_grid_cap(self, run_cli, capsys):
        code, out, err = run_cli(
            "plot", "--data", FIXTURES / "students.csv",
            "--config", FIXTURES / "students_config.json",
            "--grid", str(cli.MAX_GRID + 1))
        assert code == 1 and out == ""
        record = json.loads(err)
        assert record["error"] == "SchemaError"
        assert str(cli.MAX_GRID) in record["message"]
        with pytest.raises(SystemExit):
            cli.main(["plot", "--help"])
        assert re.search(rf"16\s+to\s+{cli.MAX_GRID}", capsys.readouterr().out)

    def test_marker_cap(self, run_cli, capsys, monkeypatch):
        """Every panel and both overlay snapshots count, and the refusal
        comes before any SVG and before the panel that passes the cap is
        laid out."""
        specs = []
        plot_spec = cli._plot_spec

        def counted(*a):
            specs.append(a)
            return plot_spec(*a)
        monkeypatch.setattr(cli, "_plot_spec", counted)
        one = ["--config", FIXTURES / "countries_w1.json"]
        grid = ["plot", "--data", FIXTURES / "countries.csv", *one, *one,
                "--grid", "16"]
        overlay = ["plot", "--data", FIXTURES / "countries_2019_subset.csv",
                   "--config", FIXTURES / "countries_w3.json", "--grid", "16",
                   "--overlay", FIXTURES / "countries_2023_synthetic.csv"]
        for args, markers in ((grid, 24), (overlay, 8)):
            monkeypatch.setattr(cli, "MAX_MARKERS", markers)
            code, out, err = run_cli(*args)
            assert code == 0, err
            assert out.count('class="marker"') == markers
            monkeypatch.setattr(cli, "MAX_MARKERS", markers - 1)
            specs.clear()
            code, out, err = run_cli(*args)
            assert code == 1 and out == ""
            assert len(specs) == (1 if args is grid else 0)
            assert json.loads(err) == {
                "error": "SchemaError",
                "message": f"plot draws at most {markers - 1} markers, "
                           f"got {markers}"}
        with pytest.raises(SystemExit):
            cli.main(["plot", "--help"])
        assert re.search(rf"at most\s+{markers - 1}\s+markers",
                         capsys.readouterr().out)

    def test_bad_isoline_level(self, run_cli):
        code, _, err = run_cli(
            "plot", "--data", FIXTURES / "students.csv",
            "--config", FIXTURES / "students_config.json",
            "--grid", "16", "--isolines", "0.5,1.5")
        assert code == 1
        assert json.loads(err)["error"] == "LevelOutOfRange"

    @pytest.mark.parametrize("levels", ["abc", "0.5,,0.7"])
    def test_unparseable_isolines_are_schema_errors(self, run_cli, levels):
        code, out, err = run_cli(
            "plot", "--data", FIXTURES / "students.csv",
            "--config", FIXTURES / "students_config.json",
            "--grid", "16", "--isolines", levels)
        assert code == 1 and out == ""
        record = json.loads(err)
        assert record["error"] == "SchemaError"
        assert repr(levels) in record["message"]

    def test_empty_isolines_draw_none(self, run_cli):
        code, out, err = run_cli(
            "plot", "--data", FIXTURES / "students.csv",
            "--config", FIXTURES / "students_config.json",
            "--grid", "16", "--isolines", "")
        assert code == 0, err
        assert 'class="marker"' in out and 'class="isoline"' not in out

    def test_snapshot_fixture_narrative(self, run_cli):
        # the synthetic second snapshot moves VEN and URY up, CHL and
        # SUR down, flipping the VEN/SUR and URY/CHL orders
        def scores(data):
            code, out, _ = run_cli(
                "rank", "--data", data,
                "--config", FIXTURES / "countries_w3.json")
            assert code == 0
            return {r["id"]: float(r["score"])
                    for r in csv.DictReader(io.StringIO(out))}

        before = scores(FIXTURES / "countries_2019_subset.csv")
        after = scores(FIXTURES / "countries_2023_synthetic.csv")
        assert after["VEN"] > before["VEN"] and after["URY"] > before["URY"]
        assert after["CHL"] < before["CHL"] and after["SUR"] < before["SUR"]
        assert before["SUR"] > before["VEN"] and after["VEN"] > after["SUR"]
        assert before["CHL"] > before["URY"] and after["URY"] > after["CHL"]


class TestCompareCommand:
    def test_uruguay_delta(self, run_cli):
        code, out, _ = run_cli(
            "compare", "--data", FIXTURES / "countries.csv",
            "--config", FIXTURES / "countries_w1.json",
            "--config-b", FIXTURES / "countries_w2.json")
        assert code == 0
        doc = json.loads(out)
        assert doc["deltas"]["URY"] == 3
        assert -1.0 <= doc["kendall_tau"] < 1.0
        assert ["URY", "PER"] in doc["reversals"]

    def test_csv_format(self, run_cli):
        code, out, _ = run_cli(
            "compare", "--data", FIXTURES / "countries.csv",
            "--config", FIXTURES / "countries_w1.json",
            "--config-b", FIXTURES / "countries_w2.json",
            "--format", "csv")
        assert code == 0
        assert out.startswith("id,score_a,rank_a,score_b,rank_b,delta")
        assert "# kendall_tau=" in out

    def test_csv_reversal_ids_quoted(self, run_cli, tmp_path):
        """Each reversal line reads back to exactly the two ids of the
        JSON output's pair, whatever the ids hold."""
        ids = ["x,1", "y\nz", "S3", 'q"r', "c\rr"]
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["id", "Math", "Bio", "Art"])
        writer.writerows([[ids[0], 100, 1, 1], [ids[1], 0, 6, 6],
                          [ids[2], 60, 3, 3], [ids[3], 90, 2, 1.5],
                          [ids[4], 10, 5, 6]])
        data = tmp_path / "ids.csv"
        data.write_bytes(buf.getvalue().encode())
        flipped = json.loads(STUDENTS_CONFIG)
        for c in flipped["criteria"]:
            c["weight"] = {"Math": 1.0, "Bio": 0.2, "Art": 0.1}[c["name"]]
        config_b = tmp_path / "flipped.json"
        config_b.write_text(json.dumps(flipped))
        args = ["compare", "--data", data, "--config-b", config_b,
                "--config", FIXTURES / "students_config.json"]
        code, out, err = run_cli(*args, "--format", "json")
        assert code == 0, err
        expected = json.loads(out)["reversals"]
        assert {i for pair in expected for i in pair} == set(ids)
        code, out, err = run_cli(*args, "--format", "csv")
        assert code == 0, err
        table, tail = out.split("# kendall_tau=")
        assert len(list(csv.reader(io.StringIO(table)))) == len(ids) + 1
        pairs = []
        for chunk in tail.split("# reversal=")[1:]:
            (pair,) = csv.reader(io.StringIO(chunk))
            pairs.append(pair)
        assert pairs == expected

    @pytest.mark.parametrize("argv, splits", [
        (["compare", "--data", FIXTURES / "countries.csv",
          "--config", FIXTURES / "countries_w1.json",
          "--config-b", FIXTURES / "countries_w2.json"], 1),
        (["plot", "--data", FIXTURES / "countries.csv"]
         + [a for k in (1, 2, 3, 4)
            for a in ("--config", FIXTURES / f"countries_w{k}.json")], 1),
        (["compare", "--data", FIXTURES / "students.csv",
          "--config", FIXTURES / "students_config.json",
          "--config-b", FIXTURES / "countries_w1.json"], 2),
    ])
    def test_dataset_split_once_per_criterion_names(self, run_cli,
                                                    monkeypatch, argv,
                                                    splits):
        calls = []
        cells_of = cli._cells

        def cells(text, names):
            calls.append(names)
            return cells_of(text, names)

        monkeypatch.setattr(cli, "_cells", cells)
        run_cli(*argv)
        assert len(calls) == splits

    def test_second_config_error_as_rank_reports_it(self, run_cli,
                                                    tmp_path):
        """The text is split once, but each config still checks its own
        domain, in config order, with the record rank gives."""
        narrow = json.loads(STUDENTS_CONFIG)
        narrow["criteria"][0]["max"] = 50
        config_b = tmp_path / "narrow.json"
        config_b.write_text(json.dumps(narrow))
        data = FIXTURES / "students.csv"
        code, _, err = run_cli("compare", "--data", data, "--config",
                               FIXTURES / "students_config.json",
                               "--config-b", config_b)
        assert code == 1
        assert (code, err) == run_cli("rank", "--data", data,
                                      "--config", config_b)[::2]
        assert json.loads(err)["error"] == "OutOfDomain"

    @pytest.mark.parametrize("rows", [
        ["only,50,3,4"],                              # a single alternative
        ["a,50,3,4", "b,50,3,4", "c,50,3,4"],         # one tie in both
    ])
    def test_undefined_tau_is_null(self, run_cli, tmp_path, rows):
        data = tmp_path / "tied.csv"
        data.write_text("id,Math,Bio,Art\n" + "\n".join(rows) + "\n")
        args = ("compare", "--data", data,
                "--config", FIXTURES / "students_config.json",
                "--config-b", FIXTURES / "students_config_equal.json")
        code, out, _ = run_cli(*args)
        assert code == 0
        doc = json.loads(out, parse_constant=lambda name: pytest.fail(
            f"{name} is not valid JSON"))
        assert doc["kendall_tau"] is None
        assert doc["reversals"] == []
        code, out, _ = run_cli(*args, "--format", "csv")
        assert code == 0 and "# kendall_tau=nan\n" in out


class TestRepeatedFlag:
    """A repeated --data, --config-b or --overlay is refused with a record;
    argparse alone would keep the last value."""

    W1 = FIXTURES / "countries_w1.json"
    DATA = FIXTURES / "countries.csv"
    CASES = {
        ("--data", "rank"): ["rank", "--config", W1, "--data", DATA],
        ("--data", "transform"): ["transform", "--config", W1, "--data",
                                  DATA],
        ("--data", "plot"): ["plot", "--config", W1, "--config", W1,
                             "--grid", "16", "--data", DATA],
        ("--data", "compare"): ["compare", "--config", W1, "--config-b", W1,
                                "--data", DATA],
        ("--config-b", "compare"): [
            "compare", "--config", W1, "--data", DATA,
            "--config-b", FIXTURES / "countries_w2.json"],
        ("--overlay", "plot"): [
            "plot", "--config", FIXTURES / "countries_w3.json",
            "--data", FIXTURES / "countries_2019_subset.csv", "--grid", "16",
            "--overlay", FIXTURES / "countries_2023_synthetic.csv"],
    }

    @pytest.mark.parametrize("flag,command", sorted(CASES))
    def test_refused(self, run_cli, flag, command):
        args = self.CASES[flag, command]
        code, _, err = run_cli(*args)
        assert code == 0, err
        code, out, err = run_cli(*args, flag, FIXTURES / "students.csv")
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "SchemaError",
            "message": f"{command} reads one {flag}, got 2"}


class TestRepeatedConfig:
    """A command that reads one config refuses a second --config."""

    W1, W2 = FIXTURES / "countries_w1.json", FIXTURES / "countries_w2.json"
    DATA = ["--data", FIXTURES / "countries.csv"]
    COMMANDS = {
        "rank": ["rank", *DATA],
        "transform": ["transform", *DATA],
        "boundary": ["boundary"],
        "compare": ["compare", *DATA, "--config-b", W1],
        "plot --overlay": [
            "plot", "--data", FIXTURES / "countries_2019_subset.csv",
            "--overlay", FIXTURES / "countries_2023_synthetic.csv"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_refused(self, run_cli, command):
        args = self.COMMANDS[command]
        code, _, err = run_cli(*args, "--config", self.W1)
        assert code == 0, err
        code, out, err = run_cli(*args, "--config", self.W1,
                                 "--config", self.W2)
        assert code == 1 and out == ""
        record = json.loads(err)
        assert record["error"] == "SchemaError"
        assert record["message"] == f"{command} reads one --config, got 2"


# Each flag that overrides a config key, with the value a test gives it.
OVERRIDES = {"--aggregation": ["I"], "--unweighted": [], "--clamp": [],
             "--tie-tol": ["0.05"]}
DECLARED = {
    "rank": ["--aggregation", "--unweighted", "--clamp", "--tie-tol"],
    "transform": ["--clamp"],
    "boundary": ["--unweighted"],
    "plot": ["--aggregation", "--unweighted", "--clamp"],
    "compare": ["--aggregation", "--unweighted", "--clamp", "--tie-tol"],
}
DECLARED_PAIRS = [(c, f) for c in sorted(DECLARED) for f in DECLARED[c]]
REMOVED_PAIRS = [(c, f) for c in sorted(DECLARED) for f in OVERRIDES
                 if f not in DECLARED[c]]


def parse_exit(capsys, parse, argv) -> tuple:
    """``(exit code, stdout, stderr)`` of a ``parse(argv)`` that exits."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return (exc.value.code, *capsys.readouterr())


# ``main``'s exit code, stdout digest and stderr for each argv of the
# corpus, by argv; "{fixtures}" stands for the fixtures directory.
CORPUS = {tuple(case["argv"]): case for case in json.loads(
    (Path(__file__).parent / "cli_corpus.json").read_text(
        encoding="utf-8"))["cases"]}


def corpus_record(capsys, monkeypatch, argv) -> dict:
    """``main(argv)`` as the corpus records it, at the corpus's 80-column
    help width."""
    monkeypatch.setenv("COLUMNS", "80")
    real = [str(a).replace("{fixtures}", str(FIXTURES)) for a in argv]
    try:
        code = cli.main(real)
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    return {"argv": [str(a).replace(str(FIXTURES), "{fixtures}")
                     for a in argv],
            "code": code,
            "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
            "stderr": err.replace(str(FIXTURES), "{fixtures}")}


def without_config(args: list) -> list[str]:
    """A command line with its ``--config`` flag and value left out."""
    i = args.index("--config")
    return [str(a) for a in args[:i] + args[i + 2:]]


class TestCommandFlags:
    """Each command declares the config-overriding flags it reads, each of
    them changes its output, and any other one is a usage error."""

    S = FIXTURES / "students_config.json"
    DATA = FIXTURES / "students.csv"
    COMMANDS = {
        "rank": ["rank", "--data", DATA, "--config", S],
        "transform": ["transform", "--data", DATA, "--config", S],
        "boundary": ["boundary", "--config", S, "--resolution", "16"],
        "plot": ["plot", "--data", DATA, "--config", S, "--grid", "16"],
        "compare": ["compare", "--data", DATA, "--config", S, "--config-b",
                    FIXTURES / "students_config_equal.json"],
    }

    @pytest.mark.parametrize("command,flag",
                             [p for p in DECLARED_PAIRS
                              if p[1] != "--clamp"])
    def test_declared_flag_changes_output(self, run_cli, command, flag):
        args = self.COMMANDS[command]
        code, plain, err = run_cli(*args)
        assert code == 0, err
        code, out, err = run_cli(*args, flag, *OVERRIDES[flag])
        assert code == 0, err
        assert out != plain

    @pytest.mark.parametrize("command", [c for c, f in DECLARED_PAIRS
                                         if f == "--clamp"])
    def test_clamp_rescues_an_out_of_domain_cell(self, run_cli, tmp_path,
                                                 command):
        """Refused without the flag; with it, the output of the same data
        with the cell at its bound."""
        text = self.DATA.read_text()
        assert "\nS2,49.37," in text
        outside, bound = tmp_path / "outside.csv", tmp_path / "bound.csv"
        outside.write_text(text.replace("\nS2,49.37,", "\nS2,149.37,"))
        bound.write_text(text.replace("\nS2,49.37,", "\nS2,100,"))
        args = self.COMMANDS[command]
        at = args.index("--data") + 1

        def run(data, *flags):
            return run_cli(*args[:at], data, *args[at + 1:], *flags)

        code, out, err = run(outside)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "OutOfDomain"
        code, clamped, err = run(outside, "--clamp")
        assert code == 0, err
        assert clamped == run(bound)[1]

    def test_seven_pairings_are_not_declared(self):
        assert len(DECLARED_PAIRS) == 13 and len(REMOVED_PAIRS) == 7

    @pytest.mark.parametrize("command,flag",
                             REMOVED_PAIRS + [(c, "--force")
                                              for c in sorted(COMMANDS)])
    def test_undeclared_flag_is_a_usage_error(self, capsys, monkeypatch,
                                              command, flag):
        """Refused by the command's own parser, with the usage line and
        the bytes the corpus records."""
        given = [flag, *OVERRIDES.get(flag, [])]
        argv = [*map(str, self.COMMANDS[command]), *given]
        code, out, err = parse_exit(capsys, cli.main, argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"usage: wmsdspace {command} ")
        assert err.endswith(f"\nwmsdspace {command}: error: unrecognized "
                            f"arguments: {' '.join(given)}\n")
        record = corpus_record(capsys, monkeypatch, argv)
        assert CORPUS[tuple(record["argv"])] == record

    @pytest.mark.parametrize("argv", [
        ["--help"], [], ["nope"],
        *([c, "--help"] for c in sorted(COMMANDS)),
        *(without_config(args) for args in COMMANDS.values()),
    ])
    def test_parse_exit_prints_what_the_full_parser_prints(self, capsys,
                                                           monkeypatch, argv):
        """Help, a missing command and a missing required flag: ``main``
        prints the bytes the corpus records."""
        record = corpus_record(capsys, monkeypatch, argv)
        assert CORPUS[tuple(record["argv"])] == record
        if "--help" in argv:
            assert (record["code"], record["stderr"]) == (0, "")
        else:
            assert record["code"] == 2 and "error: " in record["stderr"]
            assert record["stdout_sha256"] == hashlib.sha256().hexdigest()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_command_runs_its_function(self, command, monkeypatch):
        """A command's parser runs ``cmd_<command>`` as the module holds it
        when the parser is built, so a wrapper set over it is the one
        run."""
        argv = [str(a) for a in self.COMMANDS[command][1:]]
        args = cli.build_parser(command).parse_args(argv)
        assert args.run is getattr(cli, f"cmd_{command}")
        monkeypatch.setattr(cli, f"cmd_{command}", lambda args: "wrapped")
        args = cli.build_parser(command).parse_args(argv)
        assert (args.command, args.run(args)) == (command, "wrapped")

    def test_top_level_parser_declares_no_command_flag(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == list(cli._COMMANDS)
        for command in sub.choices.values():
            assert command._actions == []


class TestArgvCorpus:
    """``main`` gives each argv of the corpus the exit code, stdout and
    stderr it records: help, usage errors, bad values and every override
    flag's output.  An option before the command name is refused by the
    top-level parser, which lists every argument it did not read."""

    @pytest.mark.parametrize("argv", list(CORPUS), ids=" ".join)
    def test_recorded(self, capsys, monkeypatch, argv):
        assert corpus_record(capsys, monkeypatch, argv) == CORPUS[argv]


def students_with(criterion: dict | None = None, **keys) -> str:
    """The students config as JSON text, with its first criterion's
    fields updated from ``criterion`` and its top-level ``keys`` set."""
    doc = json.loads(STUDENTS_CONFIG)
    doc["criteria"][0].update(criterion or {})
    return json.dumps({**doc, **keys})


def entry(name: str, v_min=0, v_max=1, weight=1.0) -> dict:
    """A gain criterion's config entry; ``weight=None`` leaves it out."""
    fields = {"name": name, "kind": "gain", "min": v_min, "max": v_max}
    return fields if weight is None else {**fields, "weight": weight}


def schema(message: str, path: str | None = None) -> dict:
    record = {"error": "SchemaError", "message": message}
    return record if path is None else {**record, "path": path}


# A refused input of each kind no other test runs ``main`` on: a config
# text, or None for the students config; a dataset text, or None for
# the students dataset; more arguments; the record written to stderr.
REFUSED = {
    "config-is-a-list": ("[]", None, [],
                         schema("config must be a JSON object")),
    "config-without-criteria": ("{}", None, [], schema(
        "criteria: missing required field", "criteria")),
    "criterion-not-an-object": ('{"criteria": [1]}', None, [], schema(
        "criteria[0]: must be an object", "criteria[0]")),
    "unknown-criterion-field": (students_with({"colour": 1}), None, [],
                                schema("criteria[0]: unknown fields "
                                       "['colour']", "criteria[0]")),
    "empty-name": (students_with({"name": ""}), None, [], schema(
        "criteria[0]: name must be a non-empty string", "criteria[0]")),
    "kind-up": (students_with({"kind": "up"}), None, [], schema(
        "criteria[0].kind: must be 'gain' or 'cost', got 'up'",
        "criteria[0].kind")),
    "aggregation-x": (students_with(aggregation="X"), None, [], schema(
        "aggregation: must be one of I, A, R, got 'X'", "aggregation")),
    "weighted-1": (students_with(weighted=1), None, [], schema(
        "weighted: must be a boolean", "weighted")),
    "clamp-yes": (students_with(clamp="yes"), None, [], schema(
        "clamp: must be a boolean", "clamp")),
    "domain-span-overflows": (students_with({"min": -1e308, "max": 1e308}),
                              None, [], {
        "error": "DegenerateDomain",
        "message": "criterion 'Math': domain span v_max - v_min "
                   "(1e+308 - -1e+308) overflows to infinity"}),
    "min-a-string": (students_with({"min": "0"}), None, [], schema(
        "criteria[0].min: must be a number", "criteria[0].min")),
    "tie-tolerance-negative": (students_with(tie_tolerance=-1), None, [],
                               schema("tie_tolerance: must be a finite "
                                      "non-negative number",
                                      "tie_tolerance")),
    # json.loads reads the NaN literal that json.dumps writes
    "weight-nan": (students_with({"weight": math.nan}), None, [], {
        "error": "NonFiniteWeight",
        "message": "criterion 'Math': weight must be finite"}),
    "empty-dataset": (None, "", [], {
        "error": "HeaderMismatch",
        "message": "dataset is empty; expected a header row"}),
    "cr-in-header-cell": (None, "id,Ma\rth,Bio,Art\nS1,50,3,4\n", [], {
        "error": "MalformedCsv",
        "message": "header: new-line character seen in unquoted field - do "
                   "you need to open the file in universal-newline mode?"}),
    "plot-columns-0": (None, None, ["--columns", "0"],
                       schema("--columns must be positive")),
    # Configs with two faults, of which the first in parse_config's order
    # is reported: every entry's schema, then each criterion's own checks
    # and its name against those before it, then the top-level keys.
    "schema-before-domain": (json.dumps({"criteria": [
        entry("a", 5, 1), entry("b", weight=None)]}), None, [], schema(
            "criteria[1]: missing fields ['weight']", "criteria[1]")),
    "repeat-before-later-domain": (json.dumps({"criteria": [
        entry("a"), entry("a"), entry("b", 5, 1)]}), None, [], {
            "error": "DuplicateName",
            "message": "duplicate criterion name 'a'"}),
    "domain-before-repeat": (json.dumps({"criteria": [
        entry("a"), entry("a", 5, 1)]}), None, [], {
            "error": "DegenerateDomain",
            "message": "criterion 'a': v_min (5.0) must be strictly below "
                       "v_max (1.0)"}),
    "repeat-before-aggregation": (json.dumps({"criteria": [
        entry("a"), entry("a")], "aggregation": "X"}), None, [], {
            "error": "DuplicateName",
            "message": "duplicate criterion name 'a'"}),
}


class TestErrorStream:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_quoted_id_beyond_csv_field_limit(self, run_cli, tmp_path, fmt):
        long_id = "x," + "y" * 140_000
        data = tmp_path / "long.csv"
        data.write_text(f'id,Math,Bio,Art\n"{long_id}",50,3,4\nS2,60,3,4\n')
        limit = csv.field_size_limit()
        code, out, err = run_cli("rank", "--data", data, "--format", fmt,
                                 "--config", FIXTURES / "students_config.json")
        assert code == 0, err
        assert csv.field_size_limit() == limit
        if fmt == "json":
            assert {e["id"] for e in json.loads(out)["entries"]} == {
                long_id, "S2"}
        else:
            assert f'\n"{long_id}",' in out

    @pytest.mark.parametrize("case", list(REFUSED))
    def test_refused_input_record(self, run_cli, tmp_path, case):
        config_text, data_text, extra, record = REFUSED[case]
        config = FIXTURES / "students_config.json"
        data = FIXTURES / "students.csv"
        if config_text is not None:
            config = tmp_path / "config.json"
            config.write_text(config_text)
        if data_text is not None:
            data = tmp_path / "data.csv"
            data.write_text(data_text)
        command = "plot" if extra else "rank"
        code, out, err = run_cli(command, "--data", data, "--config", config,
                                 *extra)
        assert (code, out) == (1, "")
        assert json.loads(err) == record

    # Each command with a dataset cell outside its domain and with a
    # dataset that is not UTF-8; boundary, which reads no dataset, with a
    # config that is not UTF-8.
    @pytest.mark.parametrize("command,fault", [
        (command, fault) for command in ("rank", "transform", "compare",
                                         "plot")
        for fault in ("domain", "utf8")] + [("boundary", "utf8")])
    def test_refused_command_writes_nothing(self, run_cli, tmp_path, command,
                                            fault):
        """A refused command leaves no ``--out`` file and an empty stdout."""
        config = FIXTURES / "students_config.json"
        data = tmp_path / "data.csv"
        data.write_bytes(b"id,Math,Bio,Art\n" + (
            b"S1,150,3,4\n" if fault == "domain" else b"S\xff1,50,3,4\n"))
        if command == "boundary":
            config = tmp_path / "config.json"
            config.write_bytes(STUDENTS_CONFIG.encode().replace(
                b"Math", b"Ma\xffth"))
            args = ["boundary", "--config", config]
        else:
            args = [command, "--data", data, "--config", config]
        if command == "compare":
            args += ["--config-b", config]
        out = tmp_path / "out"
        code, stdout, err = run_cli(*args, "--out", out)
        assert (code, stdout) == (1, "")
        assert not out.exists()
        record = json.loads(err)
        if fault == "domain":
            assert record["error"] == "OutOfDomain"
        else:
            assert "is not UTF-8" in record["message"]

    @pytest.mark.parametrize("argv", [
        ["rank"], ["rank", "--format", "json"], ["transform"],
        ["transform", "--format", "json"], ["compare"],
        ["compare", "--format", "csv"], ["boundary"],
        ["boundary", "--format", "json"],
        ["plot", "--data", FIXTURES / "students.csv",
         "--config", FIXTURES / "students_config.json", "--labels",
         "--isolines", "0.25,0.5,0.75"],
        ["plot", "--data", FIXTURES / "countries.csv", "--columns", "2"]
        + [a for k in (1, 2, 3, 4)
           for a in ("--config", FIXTURES / f"countries_w{k}.json")],
        ["plot", "--data", FIXTURES / "countries_2019_subset.csv",
         "--config", FIXTURES / "countries_w3.json",
         "--overlay", FIXTURES / "countries_2023_synthetic.csv"]])
    def test_out_gets_stdout_bytes(self, tmp_path, monkeypatch, argv):
        """``--out`` gets the bytes a process writes to stdout, and a stdout
        without a descriptor, such as ``io.StringIO``, gets their text.  A
        plot's bytes are the encoded text of ``render_wmsd_plot`` or
        ``render_panel_grid``."""
        if argv[0] == "boundary":
            argv = argv + ["--config", FIXTURES / "countries_w2.json"]
        elif argv[0] != "plot":
            argv = argv + ["--data", FIXTURES / "students.csv",
                           "--config", FIXTURES / "students_config.json"]
        if argv[0] == "compare":
            argv += ["--config-b", FIXTURES / "students_config_equal.json"]
        argv = list(map(str, argv))
        out = tmp_path / "out"
        assert cli.main(argv + ["--out", str(out)]) == 0
        result = run_python("-m", "wmsdspace.cli", *argv)
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == out.read_bytes()
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        assert cli.main(argv) == 0
        assert sys.stdout.getvalue().encode() == out.read_bytes()
        if argv[0] == "plot":
            assert rendered_plot(argv) == out.read_bytes()

    # Recorded from the writer that joined the whole document as one str;
    # "single" draws an isoline and was recorded again when each isoline
    # became one element clipped by the region outline.
    @pytest.mark.parametrize("extra, digest", [
        (["--labels", "--isolines", "0.5"],
         "3490d54abd43b45c42be761cf052dba8ff7b8194b0089b2cddd7847bc8ed7c49"),
        (["--config", FIXTURES / "students_config.json"],
         "f6d8277b539fe3c7ee9ac99c02470d704edc82edeacd867e46a275ee66f260e2"),
        (["--overlay", None, "--labels"],
         "2a3ae0762485bb64f6de642c3a934a8bcbac184ea4693f15bd5b059800e69f6d"),
    ], ids=["single", "panels", "overlay"])
    def test_header_only_dataset_plots_as_before(self, run_cli, tmp_path,
                                                 extra, digest):
        """A header-only dataset draws no marker, and its empty marker
        layers add no piece: the document is byte-identical to the one
        written before plots were pieces."""
        data = tmp_path / "header.csv"
        data.write_text("id,Math,Bio,Art\n")
        code, out, err = run_cli(
            "plot", "--data", data, "--config",
            FIXTURES / "students_config.json",
            *[data if a is None else a for a in extra])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_plot_returns_pieces_of_lines(self, tmp_path):
        """A 2,000-marker plot comes back as many pieces of whole lines,
        which together hold every marker."""
        rng = np.random.default_rng(5)
        data = tmp_path / "many.csv"
        with open(data, "w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(["id", "Math", "Bio", "Art"])
            writer.writerows([f"A{k}", *np.round(row, 2)] for k, row in
                             enumerate(rng.uniform([0, 1, 1], [100, 6, 6],
                                                   (2000, 3))))
        args = cli.build_parser("plot").parse_args(
            ["--data", str(data),
             "--config", str(FIXTURES / "students_config.json")])
        cli._validate_args(args)
        got = cli.cmd_plot(args)
        assert len(got) > 1
        assert all(p.endswith(b"\n") for p in got)
        assert b"".join(got).count(b'class="marker"') == 2000

    def test_header_only_dataset_ranks_as_empty_json(self, run_cli,
                                                     tmp_path):
        data = tmp_path / "header.csv"
        data.write_text("id,Math,Bio,Art\n")
        code, out, err = run_cli("rank", "--data", data, "--format", "json",
                                 "--config", FIXTURES / "students_config.json")
        assert (code, err) == (0, "")
        assert out == json.dumps({"entries": [], "groups": []}, indent=2) + "\n"

    def test_malformed_csv_record(self, students_config):
        """A csv.Error becomes a record with its data row."""
        text = 'id,Math,Bio,Art\n"S1",50,3,4\n\nS2,6\r0,3,4\n'
        with pytest.raises(MalformedCsv) as exc:
            read_matrix(text, students_config)
        record = exc.value.details()
        assert record["error"] == "MalformedCsv" and record["row"] == 2
        assert "\n" not in json.dumps(record)

    def test_record_holds_only_the_error_fields(self):
        """The record has the fields that are set, a point's id as "id",
        and nothing else the exception carries, such as a note."""
        e = SchemaError("must be an object", path="criteria[0]")
        e.__notes__ = ["while reading a config"]  # add_note needs 3.11
        assert e.details() == {"error": "SchemaError",
                               "message": "criteria[0]: must be an object",
                               "path": "criteria[0]"}
        assert UnattainablePoint("outside", point_id="p").details() == {
            "error": "UnattainablePoint", "message": "outside", "id": "p"}
        bad = BadNumber("cannot parse", row=3, column="Bio")
        assert (bad.row, bad.column, bad.point_id, bad.path) == (
            3, "Bio", None, None)
        assert WmsdError("plain").details() == {"error": "WmsdError",
                                                "message": "plain"}

    def test_carriage_returns_in_quoted_ids_kept(self, run_cli, tmp_path):
        data = tmp_path / "cr.csv"
        data.write_bytes(b'id,Math,Bio,Art\n"a\rb",50,3,4\n'
                         b'"c\r\nd",60,3,4\n')
        code, out, err = run_cli("rank", "--data", data, "--format", "json",
                                 "--config", FIXTURES / "students_config.json")
        assert code == 0, err
        assert [e["id"] for e in json.loads(out)["entries"]] == [
            "c\r\nd", "a\rb"]

    def test_crlf_dataset_ranks_like_lf(self, run_cli, tmp_path):
        lf = FIXTURES / "students.csv"
        crlf = tmp_path / "students_crlf.csv"
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert b"\r\n" in crlf.read_bytes()
        outs = [run_cli("rank", "--data", path,
                        "--config", FIXTURES / "students_config.json")
                for path in (lf, crlf)]
        assert outs[0][0] == 0 and outs[0] == outs[1]

    def test_carriage_return_in_unquoted_cell(self, run_cli, tmp_path):
        data = tmp_path / "cr_cell.csv"
        data.write_bytes(b"id,Math,Bio,Art\nS1,6\r0,3,4\n")
        code, out, err = run_cli("rank", "--data", data,
                                 "--config", FIXTURES / "students_config.json")
        assert code == 1 and out == ""
        record = json.loads(err)
        assert record["error"] == "MalformedCsv" and record["row"] == 1

    def test_validation_exit_code_and_record(self, run_cli, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"criteria": []}')
        code, out, err = run_cli("rank", "--data", FIXTURES / "students.csv",
                                 "--config", bad)
        assert code == 1 and out == ""
        record = json.loads(err)
        assert record["error"] == "SchemaError"
        assert err.count("\n") == 1  # single line

    def test_computation_exit_code(self, run_cli, tmp_path):
        config = tmp_path / "many.json"
        config.write_text(json.dumps({"criteria": [
            {"name": f"c{i}", "kind": "gain", "min": 0, "max": 1,
             "weight": 1.0} for i in range(21)]}))
        code, _, err = run_cli("boundary", "--config", config)
        assert code == 2
        assert json.loads(err)["error"] == "TooManyCriteria"

    @pytest.mark.parametrize("command", ["boundary", "plot"])
    def test_past_exact_cap_refused(self, run_cli, tmp_path, command):
        """21 distinct positive weights: one past the exact-envelope cap."""
        names = [f"c{i}" for i in range(21)]
        config = tmp_path / "many.json"
        config.write_text(json.dumps({"criteria": [
            {"name": name, "kind": "gain", "min": 0, "max": 1,
             "weight": 0.3 + 0.035 * i} for i, name in enumerate(names)]}))
        data = tmp_path / "many.csv"
        data.write_text("id," + ",".join(names) + "\nA," + ",".join(
            ["0.5"] * 21) + "\n")
        args = [command, "--config", config]
        if command == "plot":
            args += ["--data", data, "--grid", "16"]
        code, out, err = run_cli(*args)
        assert code == 2 and out == ""
        record = json.loads(err)
        assert record["error"] == "TooManyCriteria"
        assert record["message"].startswith("21 positive weights exceed")
        assert "boundary" not in record["message"].lower()

    def test_io_exit_code(self, run_cli):
        code, _, err = run_cli("rank", "--data", "/nonexistent/file.csv",
                               "--config", FIXTURES / "students_config.json")
        assert code == 3
        assert json.loads(err)["error"] == "IOError"

    def test_out_of_domain_with_coordinates(self, run_cli, tmp_path):
        data = tmp_path / "oob.csv"
        data.write_text("id,Math,Bio,Art\nS1,150,3,4\n")
        code, _, err = run_cli("rank", "--data", data,
                               "--config", FIXTURES / "students_config.json")
        assert code == 1
        record = json.loads(err)
        assert record["error"] == "OutOfDomain"
        assert record["row"] == 1 and record["column"] == "Math"

    @pytest.mark.parametrize("cell,error", [("150", "OutOfDomain"),
                                            ("abc", "BadNumber")])
    def test_rows_after_blank_line_are_data_rows(self, run_cli, tmp_path,
                                                 cell, error):
        data = tmp_path / "blank.csv"
        data.write_text(f"id,Math,Bio,Art\n\nS1,{cell},3,4\n")
        code, _, err = run_cli("rank", "--data", data,
                               "--config", FIXTURES / "students_config.json")
        assert code == 1
        record = json.loads(err)
        assert record["error"] == error
        assert record["row"] == 1 and record["column"] == "Math"

    @pytest.mark.parametrize("command,flag", [
        ("rank", "--data"), ("plot", "--overlay"), ("rank", "--config"),
        ("compare", "--config-b")])
    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"],
                             ids=["plain", "bom"])
    def test_file_not_utf8(self, run_cli, tmp_path, command, flag, bom):
        """A file that is not UTF-8 gives one record naming the file and
        the offset of its first bad byte, counted from the file's start."""
        if flag in ("--data", "--overlay"):
            head, tail = bom + b"id,Math,Bio,Art\nS", b"\xff1,50,3,4\n"
            error = "ValidationError"
        else:
            head, tail = bom + b'{"criteria": "', b'\xe2\x82"}'
            error = "SchemaError"
        bad = tmp_path / "bad"
        bad.write_bytes(head + tail)
        paths = {"--data": FIXTURES / "students.csv",
                 "--config": FIXTURES / "students_config.json", flag: bad}
        code, out, err = run_cli(command, *[a for kv in paths.items()
                                            for a in kv])
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == error
        assert record["message"].startswith(
            f"{bad}: byte {len(head)} is not UTF-8 (")

    def test_field_count_row_skips_blank_lines(self, run_cli, tmp_path):
        data = tmp_path / "short.csv"
        data.write_text("id,Math,Bio,Art\nS1,50,3,4\n\nS2,50,3\n")
        code, _, err = run_cli("rank", "--data", data,
                               "--config", FIXTURES / "students_config.json")
        assert code == 1
        record = json.loads(err)
        assert record["error"] == "HeaderMismatch"
        assert record["message"].startswith("row 2:")

    @pytest.mark.parametrize("clamp", [[], ["--clamp"]])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_refused(self, run_cli, tmp_path, cell, clamp):
        data = tmp_path / "nonfinite.csv"
        data.write_text(f"id,Math,Bio,Art\nS1,50,3,4\nS2,50,{cell},4\n")
        code, out, err = run_cli(
            "rank", "--data", data,
            "--config", FIXTURES / "students_config.json", *clamp)
        assert code == 1 and out == ""
        record = json.loads(err)
        assert record["error"] == "OutOfDomain"
        assert record["row"] == 2 and record["column"] == "Bio"
        assert "not finite" in record["message"]

    def test_clamp_flag_rescues(self, run_cli, tmp_path):
        data = tmp_path / "oob.csv"
        data.write_text("id,Math,Bio,Art\nS1,150,3,4\n")
        code, out, _ = run_cli("rank", "--data", data,
                               "--config", FIXTURES / "students_config.json",
                               "--clamp")
        assert code == 0
        assert "S1" in out


def text(pieces) -> str:
    """The text of a command's output pieces."""
    return b"".join(pieces).decode()


class TestTableWriter:
    """The row-template writer against csv.writer and json.dumps(indent=2)."""

    IDS = ["plain", "a,b", 'say "hi"', "two\nlines", "na\u00efve \u2603", "",
           " pad ", "50%"]
    # -0.000000 and -0.0, 6th-decimal ties and a float repr prints with
    # an exponent
    VALUES = [[-1e-9, 0.5], [-0.0, -4e-7], [2.5e-7, 0.0078125],
              [1.0, -1.5e-6], [0.1234565, 123456.7891235], [3.0, 1e-7],
              [-5e-7, 7.0], [0.25, 1e20]]

    def test_csv(self):
        header = ["id", "x,1", 'y"2']
        got = ",".join(map(cli._csv_field, header)) + "\n" + text(
            cli._pieces("%s,%.6f,%.6f\n",
                        [cli._csv_fields(self.IDS), np.array(self.VALUES)]))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([i, f"{a:.6f}", f"{b:.6f}"]
                         for i, (a, b) in zip(self.IDS, self.VALUES))
        assert got == buf.getvalue()
        assert "plain,-0.000000,0.500000\n" in got

    def test_json(self):
        ids = list(map(cli._json_str, self.IDS))
        item = cli._json_fields([("id", "%s"), ("x%", "%r"), ("\u00e9", "%r")],
                                1)
        got = text(cli._json_array(
            cli._pieces(item, [ids, np.array(self.VALUES)]), 0))
        assert got == json.dumps(
            [{"id": i, "x%": round(a, 6), "\u00e9": round(b, 6)}
             for i, (a, b) in zip(self.IDS, self.VALUES)], indent=2)
        assert '"x%": -0.0,' in got
        doc = ('{\n  "pairs": '
               + text(cli._json_array(cli._pieces(
                   cli._json_pair("%r", 2), [np.array(self.VALUES)]), 1))
               + ',\n  "ints": '
               + text(cli._json_array(cli._pieces(
                   ",\n    %s: %.0f", [ids, np.arange(8)]), 1, "{}"))
               + ',\n  "none": '
               + text(cli._json_array(
                   cli._pieces(",\n    %r", [np.empty(0)]), 1))
               + ',\n  "empty": '
               + text(cli._json_array(
                   cli._pieces(",\n    %s: %.0f", [[], []]), 1, "{}"))
               + "\n}")
        assert doc == json.dumps(
            {"pairs": [[round(a, 6), round(b, 6)] for a, b in self.VALUES],
             "ints": dict(zip(self.IDS, range(8))), "none": [], "empty": {}},
            indent=2)

    @pytest.mark.parametrize("command", ["rank", "transform", "compare"])
    def test_cli_tables(self, run_cli, tmp_path, command):
        """Quoted ids with ties; every table reads back and re-serializes
        to the same bytes."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "Math", "Bio", "Art"])
        writer.writerows([i, 50 + k % 3, 3, 4] for k, i in enumerate(self.IDS))
        data = tmp_path / "quoted.csv"
        data.write_text(buf.getvalue())
        args = [command, "--data", data,
                "--config", FIXTURES / "students_config.json"]
        if command == "compare":
            args += ["--config-b", FIXTURES / "students_config_equal.json"]
        code, out, err = run_cli(*args, "--format", "csv")
        assert code == 0, err
        table = out.split("# kendall_tau=")[0]
        rows = list(csv.reader(io.StringIO(table)))
        again = io.StringIO()
        csv.writer(again, lineterminator="\n").writerows(rows)
        assert again.getvalue() == table
        assert sorted(r[0] for r in rows[1:]) == sorted(self.IDS)
        code, out, err = run_cli(*args, "--format", "json")
        assert code == 0, err
        assert json.dumps(json.loads(out), indent=2) + "\n" == out
        if command == "rank":
            assert [len(g) for g in json.loads(out)["groups"]] == [2, 3, 3]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_compare_quoted_ids_equal_reference(self, run_cli, tmp_path, fmt):
        """compare quotes or escapes each id once and takes the reversal
        pairs' texts from those; the document equals one written by the
        csv and json modules."""
        rows = list(csv.reader(io.StringIO(
            (FIXTURES / "students.csv").read_text())))
        tricky = ['S,1', 'say "S2"', "S3é", 'a,"é"']
        ids = [tricky[k % 4] + str(k) if k % 3 else row[0]
               for k, row in enumerate(rows[1:])]
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [rows[0]] + [[i, *row[1:]] for i, row in zip(ids, rows[1:])])
        data = tmp_path / "tricky.csv"
        data.write_text(buf.getvalue(), encoding="utf-8")
        paths = [FIXTURES / "students_config.json",
                 FIXTURES / "students_config_equal.json"]
        rankings = []
        for path in paths:
            config = parse_config(path.read_text())
            m = read_matrix(data.read_text(encoding="utf-8"), config)
            u = utility_array(m.values, m.criteria)
            w = config.weight_vector
            wm, wsd = plane(u * w.weights, w)
            rankings.append(aggregate.rank_array(
                m.ids, agg_values(config.aggregation, wm, wsd, w.mean_w),
                config.tie_tolerance))
        ra, rb = rankings
        cmp = aggregate.compare_rankings(ra, rb)
        pairs = [[ra.ids[i], ra.ids[j]] for i, j in cmp.reversals.tolist()]
        assert pairs and any('"' in i and "," in i for p in pairs for i in p)
        if fmt == "csv":
            want = io.StringIO()
            writer = csv.writer(want, lineterminator="\n")
            writer.writerow(["id", "score_a", "rank_a", "score_b", "rank_b",
                             "delta"])
            writer.writerows(
                [i, f"{ra.scores[k]:.6f}", ra.ranks[k],
                 f"{rb.scores[cmp.order[k]]:.6f}", rb.ranks[cmp.order[k]],
                 cmp.deltas[k]] for k, i in enumerate(ra.ids))
            want.write(f"# kendall_tau={cmp.kendall_tau:.6f}\n")
            for pair in pairs:
                want.write("# reversal=")
                writer.writerow(pair)
            want = want.getvalue()
        else:
            def entries(r):
                return [{"id": i, "score": round(float(s), 6),
                         "rank": int(k), "group": int(g)}
                        for i, s, k, g in zip(r.ids, r.scores, r.ranks,
                                              r.group_numbers)]
            want = json.dumps({
                "ranking_a": entries(ra), "ranking_b": entries(rb),
                "deltas": dict(zip(ra.ids, cmp.deltas.tolist())),
                "kendall_tau": round(cmp.kendall_tau, 6),
                "reversals": pairs}, indent=2) + "\n"
        code, out, err = run_cli("compare", "--data", data,
                                 "--config", paths[0], "--config-b",
                                 paths[1], "--format", fmt)
        assert code == 0, err
        assert out == want

    @pytest.mark.parametrize("command", ["rank", "transform", "compare"])
    def test_carriage_return_ids_read_back(self, run_cli, tmp_path, command):
        """An id holding a CR is quoted, as csv.writer's default terminator
        quotes it, so the table reads back to the dataset's ids."""
        ids = ["a\rb", "c\r\nd", "plain", "e\r", "\rf"]
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["id", "Math", "Bio", "Art"])
        writer.writerows([i, 50 + k, 3, 4] for k, i in enumerate(ids))
        data = tmp_path / "cr.csv"
        data.write_bytes(buf.getvalue().encode())
        args = [command, "--data", data, "--format", "csv",
                "--config", FIXTURES / "students_config.json"]
        if command == "compare":
            args += ["--config-b", FIXTURES / "students_config_equal.json"]
        code, out, err = run_cli(*args)
        assert code == 0, err
        rows = list(csv.reader(io.StringIO(out.split("# kendall_tau=")[0])))
        assert len(rows) == len(ids) + 1
        assert {len(row) for row in rows} == {len(rows[0])}
        assert sorted(row[0] for row in rows[1:]) == sorted(ids)


class TestGoldenFiles:
    @pytest.mark.parametrize("name", ["w1", "w2", "w3", "w4"])
    def test_country_rank_outputs_frozen(self, run_cli, name):
        golden = FIXTURES / "golden" / f"countries_{name}_rank.csv"
        code, out, _ = run_cli(
            "rank", "--data", FIXTURES / "countries.csv",
            "--config", FIXTURES / f"countries_{name}.json")
        assert code == 0
        assert out == golden.read_text()

    def test_students_transform_frozen(self, run_cli):
        golden = FIXTURES / "golden" / "students_transform.csv"
        code, out, _ = run_cli(
            "transform", "--data", FIXTURES / "students.csv",
            "--config", FIXTURES / "students_config.json")
        assert code == 0
        assert out == golden.read_text()

    # SHA-256 of CLI outputs: the three README plots, recorded from the
    # per-row plot path that preceded the batched core; the boundary
    # tables, recorded from the 2-D vertex dedup and csv.writer path that
    # preceded the 1-D dedup and joined rows; and the rank, transform and
    # compare tables, recorded from the csv.writer and json.dumps writers
    # that preceded the row-template writer; and the seeded documents
    # (paths under SEEDED), recorded from the per-element f-string plot
    # writer and the %-template table writer that preceded the array text
    # writer; and the unweighted-I and aggregation-A panel plots, recorded
    # from the per-marker point objects that preceded the marker columns;
    # and the overlay whose second snapshot lists its ids in reverse order,
    # recorded from the per-id arrow loop that preceded the id match.  The
    # four plots with isolines ("students" and the three seeded ones) were
    # recorded again when each isoline became one element clipped by the
    # region outline, in place of runs of sampled points.
    FROZEN_OUTPUTS = {
        "seeded-plot-labels-isolines": (
            ["plot", "--data", SEEDED / "plot.csv",
             "--config", SEEDED / "plot.json", "--labels",
             "--isolines", "0.1,0.25,0.5,0.75,0.9"],
            "bac99fb9e5a57a3256d44e55f24b40e23cdca19d741a0b1664decbab3de508bc"),
        "seeded-overlay-arrows": (
            ["plot", "--data", SEEDED / "snap_a.csv",
             "--config", SEEDED / "snap.json",
             "--overlay", SEEDED / "snap_b.csv", "--labels",
             "--isolines", "0.3,0.6", "--grid", "96"],
            "1c55e58e11880fb39eb26af1a01203a88e9befc8bbb30dffed5202003c5ae110"),
        "seeded-overlay-reversed-ids": (
            ["plot", "--data", SEEDED / "snap_a.csv",
             "--config", SEEDED / "snap.json",
             "--overlay", SEEDED / "snap_b_reversed.csv", "--labels",
             "--aggregation", "R", "--isolines", "0.25,0.5,0.75",
             "--grid", "64"],
            "979f9be7a1346b6ced9ea0fba02623633e03c3367e96e55d0b884071aa3c515d"),
        "seeded-boundary-np12-csv": (
            ["boundary", "--config", SEEDED / "np12.json", "--format", "csv"],
            "4162f97903824b4c2715294d5884677c689b7b174e04e9658e58af64be493a8c"),
        "rank-countries_w1-json": (
            ["rank", "--data", FIXTURES / "countries.csv",
             "--config", FIXTURES / "countries_w1.json", "--format", "json"],
            "03270b196a60c8ef1c60beaf7b817605cccee00ec2d973fb67da2af7dd795ad8"),
        "transform-students-csv": (
            ["transform", "--data", FIXTURES / "students.csv",
             "--config", FIXTURES / "students_config.json",
             "--format", "csv"],
            "f46ee2bc95816bd5889a09b7c9304f017ea79d1e3b7b99cf4a0a315f002a1b22"),
        "transform-students-json": (
            ["transform", "--data", FIXTURES / "students.csv",
             "--config", FIXTURES / "students_config.json",
             "--format", "json"],
            "e13c1bba36e2fe1e1d2b860909dc4bf36137ba18201d39767573c997f20676fa"),
        "compare-countries_w1_w2-json": (
            ["compare", "--data", FIXTURES / "countries.csv",
             "--config", FIXTURES / "countries_w1.json",
             "--config-b", FIXTURES / "countries_w2.json",
             "--format", "json"],
            "fc9b1e23425a153c3ff7c78f9101db7e5aaef0e4355013f6edb47cf26b6473a0"),
        "compare-countries_w1_w2-csv": (
            ["compare", "--data", FIXTURES / "countries.csv",
             "--config", FIXTURES / "countries_w1.json",
             "--config-b", FIXTURES / "countries_w2.json",
             "--format", "csv"],
            "5bba467f2575c4120b18905dc14660f1aaf8ab783a19d9da9e2aaa0ea7c6a435"),
        "students": (
            ["plot", "--data", FIXTURES / "students.csv",
             "--config", FIXTURES / "students_config.json",
             "--isolines", "0.25,0.5,0.75", "--labels"],
            "5f55e0d1cefa443f91ecafb0da789ea229608d9cb13ff5b37f9cd85b15d278bf"),
        "panels": (
            ["plot", "--data", FIXTURES / "countries.csv"]
            + [a for k in (1, 2, 3, 4)
               for a in ("--config", FIXTURES / f"countries_w{k}.json")]
            + ["--columns", "2"],
            "a796fbf99f40603d38d0993ff6c940c42fa2f6cef3a93b0be2fd01b70e8faad2"),
        "overlay": (
            ["plot", "--data", FIXTURES / "countries_2019_subset.csv",
             "--config", FIXTURES / "countries_w3.json",
             "--overlay", FIXTURES / "countries_2023_synthetic.csv"],
            "c18a1dc22b0d83a45ef2ad13057abb21b1040e19dfd08e65e7763fc7d837e4c8"),
        "students-unweighted-I-labels": (
            ["plot", "--data", FIXTURES / "students.csv",
             "--config", FIXTURES / "students_config.json",
             "--unweighted", "--aggregation", "I", "--labels"],
            "d18f11b3ce5a9513cbab429b2079afb832d80fa73590ff5d4bed06cbd7310af9"),
        "panels-countries_w2_w4-A": (
            ["plot", "--data", FIXTURES / "countries.csv",
             "--config", FIXTURES / "countries_w2.json",
             "--config", FIXTURES / "countries_w4.json",
             "--aggregation", "A"],
            "a31b6dc2ca0a58c83f47c1e729eac6826baab4ab833f60a893659936c179734f"),
        "boundary-countries_w2-csv": (
            ["boundary", "--config", FIXTURES / "countries_w2.json",
             "--resolution", "512", "--format", "csv"],
            "bf7310958a484444d685b23befdf4653890826be90de50ec0e90b491d2f6cf36"),
        "boundary-countries_w2-json": (
            ["boundary", "--config", FIXTURES / "countries_w2.json",
             "--resolution", "512", "--format", "json"],
            "2119c597d078ca709f8a1cbfd5aad3bb6ec64a797ef6d02db9ceb063f166478e"),
        "boundary-students-csv": (
            ["boundary", "--config", FIXTURES / "students_config.json",
             "--resolution", "512", "--format", "csv"],
            "256a2a7cd91262d9f23384399074f6f92dc15cbd33475ba0be9b7017d8196962"),
        "boundary-students-json": (
            ["boundary", "--config", FIXTURES / "students_config.json",
             "--resolution", "512", "--format", "json"],
            "166bbd8e16cf79a397911ad2f913058eafe14198b578767b5da68962d6e4e2de"),
    }

    @pytest.mark.parametrize("name", sorted(FROZEN_OUTPUTS))
    def test_output_bytes_frozen(self, run_cli, tmp_path, name):
        args, digest = self.FROZEN_OUTPUTS[name]
        if any(str(SEEDED) in str(a) for a in args):
            write_seeded_inputs(tmp_path)
        code, out, err = run_cli(*[str(a).replace(str(SEEDED), str(tmp_path))
                                   for a in args])
        assert code == 0, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def rendered_plot(argv: list[str]) -> bytes:
    """The document of a ``plot`` argv as ``render_wmsd_plot`` or
    ``render_panel_grid`` draws it, encoded."""
    from wmsdspace.render import render_panel_grid, render_wmsd_plot

    args = cli.build_parser("plot").parse_args(argv[1:])
    cli._validate_args(args)
    configs = [cli._load_config(p, args) for p in args.config]
    specs = [cli._plot_spec(read_matrix(cli._read_data(args.data), c), c,
                            args) for c in configs]
    if args.overlay is not None:
        snap = read_matrix(cli._read_data(args.overlay), configs[0])
        second = cli._plane_points(snap, configs[0].weights)
        return render_wmsd_plot(specs[0], second).encode()
    if len(specs) == 1:
        return render_wmsd_plot(specs[0]).encode()
    return render_panel_grid(specs, columns=args.columns).encode()


@pytest.mark.parametrize("argv", [
    ["rank", "--data", FIXTURES / "countries.csv",
     "--config", FIXTURES / "countries_w1.json"],
    ["transform", "--data", FIXTURES / "students.csv",
     "--config", FIXTURES / "students_config.json"],
    ["compare", "--data", FIXTURES / "countries.csv",
     "--config", FIXTURES / "countries_w1.json",
     "--config-b", FIXTURES / "countries_w2.json"],
], ids=["rank", "transform", "compare"])
def test_every_score_comes_from_agg_values(monkeypatch, argv):
    """With ``agg_values`` raising in every package namespace, each scoring
    command fails: no second path scores an alternative."""
    def refuse(*args):
        raise RuntimeError("agg_values called")

    scorer = aggregate.agg_values
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "wmsdspace":
            for attr, value in list(vars(module).items()):
                if value is scorer:
                    monkeypatch.setattr(module, attr, refuse)
    with pytest.raises(RuntimeError, match="agg_values called"):
        cli.main(list(map(str, argv)))


class TestBatchedCore:
    """Every command scores all rows with the batched core.

    The outputs are checked against a per-row numpy reference: unrounded
    core values within 1e-12, printed values within half a unit of the
    6th decimal plus 1e-12, ranks and groups exactly.
    """

    M, N = 500, 8
    PRINTED = 0.5e-6 + 1e-12

    @pytest.fixture
    def case(self, tmp_path):
        """Cost criteria, a zero weight, duplicate rows, cells at bounds."""
        rng = np.random.default_rng(20231)
        m, n = self.M, self.N
        lo = np.round(rng.uniform(-50.0, 50.0, n), 1)
        hi = np.round(lo + rng.uniform(1.0, 500.0, n), 1)
        cost = np.isin(np.arange(n), [1, 4, 6])
        weights = []
        for _ in range(2):
            w = np.round(rng.uniform(0.05, 1.0, n), 4)
            w[3] = 0.0
            weights.append(w)
        x = np.round(lo + rng.random((m, n)) * (hi - lo), 4)
        x = np.where(rng.random((m, n)) < 0.03,
                     np.where(rng.random((m, n)) < 0.5, lo, hi), x)
        dst, src = rng.choice(m, (2, 10), replace=False)
        x[dst] = x[src]
        ids = [f"a{i:03d}" for i in range(m)]
        data = tmp_path / "synthetic.csv"
        data.write_text(
            "id," + ",".join(f"c{j + 1}" for j in range(n)) + "\n"
            + "".join(f"{i}," + ",".join(map(repr, row)) + "\n"
                      for i, row in zip(ids, x.tolist())))
        configs = []
        for k, w in enumerate(weights):
            path = tmp_path / f"config_{k}.json"
            path.write_text(json.dumps({"criteria": [
                {"name": f"c{j + 1}", "kind": "cost" if cost[j] else "gain",
                 "min": lo[j], "max": hi[j], "weight": w[j]}
                for j in range(n)]}))
            configs.append(path)
        u = np.array([[(h - v) / (h - lo_) if c else (v - lo_) / (h - lo_)
                       for v, lo_, h, c in zip(row, lo, hi, cost)]
                      for row in x])
        assert (u == 0.0).any() and (u == 1.0).any()
        assert len({tuple(row) for row in x.tolist()}) < m
        return {"ids": ids, "data": data, "configs": configs, "u": u,
                "weights": weights}

    @staticmethod
    def reference(u, raw_weights):
        """Per-row I, A, R, WM, WSD and the weighted rows, one at a time."""
        w = raw_weights / raw_weights.max()
        norm = np.linalg.norm(w)
        mean_w = w.mean()
        s = norm / mean_w
        out = []
        for ur in u:
            v = ur * w
            d_ideal = np.linalg.norm(v - w) / s
            d_anti = np.linalg.norm(v) / s
            dot = float(v @ w)
            out.append([1.0 - d_ideal / mean_w, d_anti / mean_w,
                        d_anti / (d_ideal + d_anti), dot / (norm * s),
                        np.linalg.norm(v - dot / (norm * norm) * w) / s])
        return np.array(out), u * w

    @staticmethod
    def reference_ranking(ids, scores, tol=1e-9):
        """(id, rank, group) in rank order by the leader rule."""
        order = sorted(range(len(ids)), key=lambda i: (-scores[i], i))
        out, leader, lead_rank, group = [], math.inf, 0, 0
        for pos, i in enumerate(order, start=1):
            if leader - scores[i] > tol:
                leader, lead_rank, group = scores[i], pos, group + 1
            out.append((ids[i], lead_rank, group))
        return out

    def check_ranking(self, entries, ids, scores):
        """``entries``: (id, printed score, rank, group) in output order."""
        expected = self.reference_ranking(ids, scores)
        assert [(e[0], e[2], e[3]) for e in entries] == expected
        assert expected[-1][2] < len(ids)  # the duplicates tie
        by_id = dict(zip(ids, scores))
        assert max(abs(e[1] - by_id[e[0]]) for e in entries) <= self.PRINTED

    def test_core_matches_reference(self, case):
        u = case["u"]
        for raw in case["weights"] + [np.ones(self.N)]:
            w = WeightVector(raw)
            ref, v = self.reference(u, raw)
            wm, wsd = plane(v, w)
            got = [agg_values(k, wm, wsd, w.mean_w) for k in AggregationKind]
            got += [wm, wsd]
            assert np.max(np.abs(np.column_stack(got) - ref)) <= 1e-12

    @pytest.mark.parametrize("unweighted", [False, True])
    def test_rank(self, run_cli, case, unweighted):
        flag = ["--unweighted"] if unweighted else []
        code, out, err = run_cli("rank", "--data", case["data"],
                                 "--config", case["configs"][0], *flag)
        assert code == 0, err
        raw = np.ones(self.N) if unweighted else case["weights"][0]
        scores = self.reference(case["u"], raw)[0][:, 2].tolist()
        entries = [(r["id"], float(r["score"]), int(r["rank"]),
                    int(r["group"]))
                   for r in csv.DictReader(io.StringIO(out))]
        self.check_ranking(entries, case["ids"], scores)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_transform(self, run_cli, case, fmt):
        code, out, err = run_cli("transform", "--data", case["data"],
                                 "--config", case["configs"][0],
                                 "--format", fmt)
        assert code == 0, err
        rows = (json.loads(out) if fmt == "json"
                else list(csv.DictReader(io.StringIO(out))))
        assert [r["id"] for r in rows] == case["ids"]
        names = [f"c{j + 1}" for j in range(self.N)]
        u = case["u"]
        weighted, v = self.reference(u, case["weights"][0])
        unweighted, _ = self.reference(u, np.ones(self.N))
        expected = np.column_stack(
            [u, v, u.mean(axis=1), u.std(axis=1), weighted[:, 3:],
             unweighted[:, :3], weighted[:, :3]])
        columns = ([f"u_{c}" for c in names] + [f"v_{c}" for c in names]
                   + ["m", "sd", "wm", "wsd", "i", "a", "r",
                      "i_w", "a_w", "r_w"])
        got = np.array([[float(r[c]) for c in columns] for r in rows])
        assert np.max(np.abs(got - expected)) <= self.PRINTED

    def test_negative_zero_cell_has_zero_utility(self, run_cli, tmp_path):
        """A gain cell ``-0`` at a domain min of 0, and a cost cell 0 at a
        max of -0.0, have utility 0.0, not -0.0, in the transform table."""
        config = tmp_path / "zero.json"
        config.write_text(json.dumps({"criteria": [
            {"name": "a", "kind": "gain", "min": 0, "max": 10, "weight": 1},
            {"name": "b", "kind": "gain", "min": 0, "max": 10, "weight": 1},
            {"name": "c", "kind": "cost", "min": -10, "max": -0.0,
             "weight": 1}]}))
        data = tmp_path / "zero.csv"
        data.write_text("id,a,b,c\nx,-0,5,0\n")
        outputs = {}
        for fmt in ("csv", "json"):
            code, outputs[fmt], err = run_cli(
                "transform", "--data", data, "--config", config,
                "--format", fmt)
            assert (code, err) == (0, "")
        assert outputs["csv"].splitlines()[1].startswith(
            "x,0.000000,0.500000,0.000000,0.000000,0.500000,0.000000,")
        assert "-0.0" not in outputs["csv"] + outputs["json"]
        row = json.loads(outputs["json"])[0]
        assert [row[f"{p}_{c}"] for p in "uv" for c in "abc"] == \
            [0.0, 0.5, 0.0, 0.0, 0.5, 0.0]

    def test_plane_blocks_equal_whole_array(self, case, monkeypatch,
                                            run_cli, tmp_path):
        """Scoring a few rows at a time gives the bits of one pass over the
        whole array, and ``transform`` the bytes of one block: for 0, 1, 7,
        8 and 15 rows in blocks of 7, with ids that need CSV quoting or
        JSON escapes and a cell ``-0`` at a domain min of 0, whose utility
        is 0.0."""
        config = parse_config(case["configs"][0].read_text())
        matrix = read_matrix(case["data"].read_text(), config)
        w = config.weight_vector
        wm, wsd = plane(utility_array(matrix.values, matrix.criteria)
                        * w.weights, w)

        (tmp_path / "edge.json").write_text(json.dumps({"criteria": [
            {"name": "g", "kind": "gain", "min": 0, "max": 10,
             "weight": 0.3},
            {"name": "c,d", "kind": "cost", "min": -5, "max": 5,
             "weight": 1.0}]}))
        edge_ids = ["a,b", 'q"t', "line\nbreak", "tab\there", "back\\slash",
                    "caf\u00e9", "\u2603", "ctl\x01", "plain"]
        edge_ids += [f"r{i}" for i in range(15 - len(edge_ids))]
        cells = [[f"{i * 0.7:.1f}", f"{i * 0.6 - 4:.1f}"]
                 for i in range(15)]
        cells[3][0] = "-0"  # (-0.0 - 0) / 10 is -0.0 unless made +0.0
        outputs = {}
        for rows in (None, 7):  # the budget as it is, then 7 rows of n = 2
            if rows:
                monkeypatch.setattr(model, "_BLOCK_BYTES", rows * 8 * 2)
            for m in (0, 1, 7, 8, 15):
                buf = io.StringIO()
                csv.writer(buf).writerows(
                    [["id", "g", "c,d"]]
                    + [[i, *c] for i, c in zip(edge_ids[:m], cells[:m])])
                data = tmp_path / f"edge_{m}.csv"
                data.write_text(buf.getvalue(), newline="")
                for fmt in ("csv", "json"):
                    code, out, err = run_cli(
                        "transform", "--data", data, "--format", fmt,
                        "--config", tmp_path / "edge.json")
                    assert code == 0, err
                    outputs.setdefault((m, fmt), []).append(out)
        for (m, fmt), (whole, blocks) in outputs.items():
            assert blocks == whole, (m, fmt)
        assert outputs[15, "csv"][0].startswith('id,u_g,"u_c,d",')
        assert '\n"a,b",' in outputs[15, "csv"][0]
        assert '\n"line\nbreak",' in outputs[15, "csv"][0]
        assert "\ntab\there,0.000000,0.720000,0.000000," in \
            outputs[15, "csv"][0]
        assert "-0.0" not in outputs[15, "csv"][0] + outputs[15, "json"][0]
        assert '"id": "ctl\\u0001",' in outputs[15, "json"][0]
        assert json.loads(outputs[15, "json"][0])[4]["id"] == "back\\slash"
        assert outputs[0, "json"][0] == "[]\n"

        monkeypatch.setattr(model, "_BLOCK_BYTES", 7 * 8 * matrix.n)
        ids, wm_blocks, wsd_blocks = cli._plane_points(matrix, w)
        assert ids == matrix.ids
        assert wm_blocks.tobytes() == wm.tobytes()
        assert wsd_blocks.tobytes() == wsd.tobytes()

    def test_compare(self, run_cli, case):
        code, out, err = run_cli("compare", "--data", case["data"],
                                 "--config", case["configs"][0],
                                 "--config-b", case["configs"][1])
        assert code == 0, err
        doc = json.loads(out)
        ranks = []
        for key, raw in zip(("ranking_a", "ranking_b"), case["weights"]):
            scores = self.reference(case["u"], raw)[0][:, 2].tolist()
            entries = [(e["id"], e["score"], e["rank"], e["group"])
                       for e in doc[key]]
            self.check_ranking(entries, case["ids"], scores)
            ranks.append({e["id"]: e["rank"] for e in doc[key]})
        assert doc["deltas"] == {i: ranks[1][i] - ranks[0][i]
                                 for i in ranks[0]}


def test_commands_import_only_what_they_run(tmp_path):
    # rank, transform and compare run on plain CSV, LF or CRLF, which needs
    # no csv module; only plot draws, so only plot loads render.
    crlf = tmp_path / "countries_crlf.csv"
    crlf.write_bytes((FIXTURES / "countries.csv").read_bytes()
                     .replace(b"\n", b"\r\n"))
    code = f"""
import contextlib, io, json, sys
import wmsdspace.cli as cli
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                  or m in ("csv", "wmsdspace.geometry", "wmsdspace.render"))
seen = {{"import": loaded()}}
for name, argv in { {
    "rank": ["rank", "--data", str(FIXTURES / "countries.csv"),
             "--config", str(FIXTURES / "countries_w1.json")],
    "rank crlf": ["rank", "--data", str(crlf),
                  "--config", str(FIXTURES / "countries_w1.json")],
    "transform": ["transform", "--data", str(FIXTURES / "students.csv"),
                  "--config", str(FIXTURES / "students_config.json")],
    "compare": ["compare", "--data", str(FIXTURES / "countries.csv"),
                "--config", str(FIXTURES / "countries_w1.json"),
                "--config-b", str(FIXTURES / "countries_w2.json")],
    "boundary": ["boundary", "--config",
                 str(FIXTURES / "countries_w2.json")],
}!r}.items():
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    seen[name] = loaded()
print(json.dumps(seen))
"""
    seen = json.loads(fresh_python(code))
    assert seen == {"import": [], "rank": [], "rank crlf": [],
                    "transform": [], "compare": [],
                    "boundary": ["wmsdspace.geometry"]}


@pytest.mark.parametrize("preset, module, expected", [
    (None, "wmsdspace.cli", "1"), ("3", "wmsdspace.cli", "3"),
    (None, "wmsdspace", None)])
def test_cli_sets_one_blas_thread_unless_asked(preset, module, expected):
    """``import wmsdspace.cli`` asks OpenBLAS for one thread before numpy
    loads, so numpy starts no thread pool; a value already set is kept,
    and ``import wmsdspace`` alone leaves the environment alone."""
    code = f"""
import json, os, sys
os.environ.pop("OPENBLAS_NUM_THREADS", None)
if {preset!r} is not None:
    os.environ["OPENBLAS_NUM_THREADS"] = {preset!r}
import {module}
threads = None
if sys.platform == "linux" and "numpy" in sys.modules:
    with open("/proc/self/status") as status:
        threads = next(int(line.split()[1]) for line in status
                       if line.startswith("Threads:"))
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), threads]))
"""
    value, threads = json.loads(fresh_python(code))
    assert value == expected
    if threads is not None and preset is None:
        assert threads == 1


def test_defaults_are_the_library_defaults():
    """``--resolution``'s default is the outline geometry caches, so
    ``boundary`` reads the one ``plot`` and the screen read, and a config's
    default tie tolerance is ``rank_array``'s; cli names the outline size
    without importing geometry, which this ties to ``_OUTLINE``."""
    resolution = cli.build_parser("boundary").get_default("resolution")
    assert resolution == geometry._OUTLINE == inspect.signature(
        geometry.envelope).parameters["resolution"].default
    assert f"(default {resolution})" in \
        cli.build_parser("boundary").format_help()
    config = parse_config(json.dumps({"criteria": [
        {"name": "a", "kind": "gain", "min": 0, "max": 1, "weight": 1}]}))
    assert config.tie_tolerance == inspect.signature(
        aggregate.rank_array).parameters["tie_tolerance"].default


def test_commands_define_records_without_dataclasses():
    code = f"""
import contextlib, io, json, sys
import numpy
seen = ["dataclasses" in sys.modules]
import wmsdspace.cli as cli
for argv in {[
    ["rank", "--data", str(FIXTURES / "countries.csv"),
     "--config", str(FIXTURES / "countries_w1.json")],
    ["boundary", "--config", str(FIXTURES / "countries_w2.json")],
    ["plot", "--data", str(FIXTURES / "countries.csv"),
     "--config", str(FIXTURES / "countries_w1.json"), "--isolines", "0.5"],
]!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    seen.append("dataclasses" in sys.modules)
print(json.dumps(seen))
"""
    before, *after = json.loads(fresh_python(code))
    assert after == [before] * 3


def test_first_main_call_freezes_the_heap_once():
    code = f"""
import contextlib, gc, io, json
import wmsdspace.cli as cli
argv = {["rank", "--data", str(FIXTURES / "countries.csv"),
         "--config", str(FIXTURES / "countries_w1.json")]!r}
counts = [gc.get_freeze_count()]
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    counts.append(gc.get_freeze_count())
print(json.dumps(counts))
"""
    before, first, second = json.loads(fresh_python(code))
    assert before == 0 < first == second


def test_frozen_heap_loses_no_output(tmp_path):
    """``python -m wmsdspace.cli`` with buffered streams writes every byte
    to stdout, to ``--out`` and, for a refused run, to stderr."""
    golden = (FIXTURES / "golden" / "countries_w1_rank.csv").read_bytes()
    rank = ["-m", "wmsdspace.cli", "rank",
            "--data", FIXTURES / "countries.csv",
            "--config", FIXTURES / "countries_w1.json"]
    result = run_python(*rank)
    assert (result.returncode, result.stdout, result.stderr) == (0, golden,
                                                                 b"")
    out = tmp_path / "rank.csv"
    result = run_python(*rank, "--out", out)
    assert (result.returncode, result.stdout, result.stderr) == (0, b"", b"")
    assert out.read_bytes() == golden
    bad = tmp_path / "bad.json"
    bad.write_text('{"criteria": []}')
    result = run_python(*rank[:-1], bad)
    assert result.returncode == 1 and result.stdout == b""
    assert json.loads(result.stderr) == {
        "error": "SchemaError", "path": "criteria",
        "message": "criteria: must be a non-empty list"}


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_stdout_is_utf8_whatever_the_locale(tmp_path, monkeypatch, encoding):
    """Stdout gets the bytes ``--out`` writes, also for an id the
    locale's encoding cannot hold."""
    data = tmp_path / "lodz.csv"
    data.write_text("id,Math,Bio,Art\n\u0141\u00f3d\u017a,50,3,4\n"
                    "S2,70,2,2\n", encoding="utf-8")
    rank = ["-m", "wmsdspace.cli", "rank", "--data", data,
            "--config", FIXTURES / "students_config.json"]
    out = tmp_path / "rank.csv"
    assert run_python(*rank, "--out", out).returncode == 0
    monkeypatch.setenv("PYTHONIOENCODING", encoding)
    result = run_python(*rank)
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == out.read_bytes()
    assert "\u0141\u00f3d\u017a".encode("utf-8") in result.stdout


def pipe_output_case(tmp_path, command="rank") -> tuple[list, bytes]:
    """A ``command`` line whose output is over four times a pipe's capacity,
    and that output as ``--out`` writes it.  The dataset holds several
    blocks of rows, so ``transform`` writes several pieces, each larger
    than the pipe."""
    r, w = os.pipe()
    capacity = fcntl.fcntl(r, fcntl.F_GETPIPE_SZ)
    os.close(r)
    os.close(w)
    rows = 4 * capacity // 20 + 1  # each row is at least 20 bytes
    values = np.random.default_rng(7).random((rows, 3)).round(3)
    data = tmp_path / "big.csv"
    data.write_text("id,a,b,c\n" + "".join(
        f"r{i},{x},{y},{z}\n" for i, (x, y, z) in enumerate(values)))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"criteria": [
        {"name": c, "kind": "gain", "min": 0, "max": 1, "weight": 1}
        for c in "abc"]}))
    argv = ["-m", "wmsdspace.cli", command, "--data", data, "--config",
            config]
    out = tmp_path / "out.csv"
    assert run_python(*argv, "--out", out).returncode == 0
    assert out.stat().st_size > 4 * capacity
    return argv, out.read_bytes()


def start_filling_pipe(args, unbuffered: bool, nonblocking: bool):
    """``python ARGS`` writing to a new pipe, returned once the pipe is
    full: ``(process, read end)``.  The test fails if the process exits
    first, or if the pipe is not full within 20 s."""
    r, w = os.pipe()
    os.set_blocking(w, not nonblocking)
    capacity = fcntl.fcntl(r, fcntl.F_GETPIPE_SZ)
    proc = subprocess.Popen([sys.executable, *map(str, args)], stdout=w,
                            stderr=subprocess.PIPE,
                            env=python_env(unbuffered))
    os.close(w)
    deadline = time.monotonic() + 20
    queued = bytearray(4)
    while proc.poll() is None and time.monotonic() < deadline:
        fcntl.ioctl(r, termios.FIONREAD, queued)
        if int.from_bytes(queued, sys.byteorder) >= capacity:
            return proc, r
        time.sleep(0.01)
    proc.kill()
    stderr = proc.communicate()[1]
    os.close(r)
    pytest.fail(f"pipe holds {int.from_bytes(queued, sys.byteorder)} of "
                f"{capacity} bytes, exit code {proc.returncode}, "
                f"stderr {stderr!r}")


@pytest.mark.parametrize("command", ["rank", "transform"])
@pytest.mark.parametrize("unbuffered", [False, True])
def test_full_nonblocking_pipe_gets_every_byte(tmp_path, unbuffered,
                                               command):
    """A non-blocking stdout that fills is waited on, with or without
    ``PYTHONUNBUFFERED``: every byte arrives, not only the pipe-full
    that one write can take, and a piece cut by a short write is resumed
    where it was cut."""
    argv, expected = pipe_output_case(tmp_path, command)
    proc, r = start_filling_pipe(argv, unbuffered, nonblocking=True)
    with os.fdopen(r, "rb") as reader:
        received = reader.read()
    stderr = proc.communicate(timeout=60)[1]
    assert (proc.returncode, stderr) == (0, b"")
    assert received == expected


@pytest.mark.parametrize("command", ["rank", "transform"])
@pytest.mark.parametrize("unbuffered", [False, True])
def test_reader_that_closes_early_is_an_io_error(tmp_path, unbuffered,
                                                 command):
    """A reader that stops reading, as ``| head -1`` does, gives exit 3 and
    one IOError record, not exit 0 after a write that took part of the
    output."""
    argv, _ = pipe_output_case(tmp_path, command)
    proc, r = start_filling_pipe(argv, unbuffered, nonblocking=False)
    os.close(r)
    stderr = proc.communicate(timeout=60)[1]
    assert proc.returncode == 3
    (line,) = stderr.decode().splitlines()
    assert json.loads(line)["error"] == "IOError"


# SHA-256 of stdout for a header-only and a one-row students dataset,
# recorded from the per-cell float() reader that preceded numpy's reader.
SMALL_OUTPUTS = {
    ("rank", 0):
        "55c1807ad2ec634f38af086220bf41f3f948d232fe88ac33db1fbe2bfc7ce857",
    ("rank", 1):
        "66c952dca7cfb5a1c8292f4d207f4e9a327aacc572dfb5d8ddd39ac972622cc8",
    ("transform", 0):
        "0da71d38465370836dbbb45c51818213a468a63ea66939b28c9ea2213ee675ed",
    ("transform", 1):
        "ebc14fa9b94a477a66dcae747628a082e6b5f255134cbdb2070e1b39ec835952",
    ("compare", 0):
        "fff3d4a2e5a2b6fb8c6fa33220d9202342d1fa89a89c46c515011d9b8fc09617",
    ("compare", 1):
        "d9c36e87df7f7e9f7e051ab3e2d781abe3ab5a983b275ba5be21f9be20b69517",
}


@pytest.mark.parametrize("command,rows", sorted(SMALL_OUTPUTS))
def test_small_dataset_writes_no_warning(tmp_path, command, rows):
    """A dataset with no data row or one row runs in a new process with
    nothing on stderr, numpy's empty-input warning included."""
    data = tmp_path / "small.csv"
    data.write_text("id,Math,Bio,Art\n" + "only,50,3,4\n" * rows)
    extra = (["--config-b", FIXTURES / "students_config_equal.json"]
             if command == "compare" else [])
    result = run_python("-m", "wmsdspace.cli", command, "--data", data,
                        "--config", FIXTURES / "students_config.json", *extra)
    assert (result.returncode, result.stderr) == (0, b"")
    assert hashlib.sha256(result.stdout).hexdigest() == \
        SMALL_OUTPUTS[command, rows]


@pytest.mark.parametrize("flag", ["--data", "--config", "--config-b",
                                  "--overlay"])
def test_byte_order_mark_is_ignored(run_cli, tmp_path, flag):
    """A file that starts with a UTF-8 byte-order mark, as spreadsheet
    "CSV UTF-8" exports do, reads like the file without it."""
    args = {"--data": FIXTURES / "students.csv",
            "--config": FIXTURES / "students_config.json"}
    if flag == "--config-b":
        command = "compare"
        args[flag] = FIXTURES / "students_config_equal.json"
    elif flag == "--overlay":
        command = "plot"
        args[flag] = FIXTURES / "students.csv"
    else:
        command = "rank"
    marked = tmp_path / args[flag].name
    marked.write_bytes(b"\xef\xbb\xbf" + args[flag].read_bytes())

    def run(paths):
        return run_cli(command, *[a for item in paths.items() for a in item])

    plain = run(args)
    assert plain[0] == 0 and plain[2] == ""
    assert run({**args, flag: marked}) == plain
