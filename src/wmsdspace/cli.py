"""Command-line interface: rank, transform, boundary, plot, compare.

Datasets are CSV files whose header is ``id`` followed by the criterion
names declared in a JSON config; configs carry the criterion domains,
gain/cost kinds, and raw weights.  All commands are deterministic:
identical inputs produce byte-identical outputs.  Numeric output is
rounded to 6 decimal places.

Every command scores through one loop, :func:`_score_blocks`, which takes
blocks of rows, sized by ``model._BLOCK_BYTES``, through utility space,
weighted space and the plane.  Every score is taken from the (WM, WSD)
point a plot draws, by :func:`agg_values`.  Once all that can refuse it has
run, a command returns UTF-8 pieces that :func:`main` writes as they are
made; ``plot`` builds all of its pieces first, so a refused plot writes none.

Errors are emitted as single-line JSON records on stderr; the exit code
is 0 on success, 1 for validation errors, 2 for refused computations,
and 3 for I/O failures.

Each command declares only the flags it reads, and its parser refuses
any other with a usage error that names the command.  :func:`main`
builds only the parser of the command it is given; the top-level parser,
for help and for an argument list that does not start with a command,
names the commands and declares none of their flags.  A flag that
overrides a config key stores into the :class:`RunConfig` field of that
key and is applied when the config is loaded, so a command sees one
:class:`RunConfig` with its weights, aggregation, tie tolerance and
clamping resolved.

Geometry, rendering and the ``csv`` module are imported inside the
functions that use them, so each command loads only what it runs.
"""

from __future__ import annotations

import argparse
import codecs
import gc
import io
import json
import math
import os
import sys
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

# Before numpy loads: OpenBLAS starts a thread per core at load, for the
# one small BLAS call the program makes.  A value the user set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .aggregate import (
    DEFAULT_TIE_TOLERANCE,
    AggregationKind,
    Ranking,
    agg_values,
    compare_rankings,
    rank_array,
)
from .errors import (
    IdSetMismatch,
    BadNumber,
    HeaderMismatch,
    MalformedCsv,
    SchemaError,
    ValidationError,
    WmsdError,
)
from .model import (
    COST,
    GAIN,
    CriterionSpec,
    DecisionMatrix,
    WeightVector,
    _Value,
    _block_rows,
    _criteria,
)
from ._text import pieces as _pieces
from .spaces import utility_array
from .wmsd import plane

if TYPE_CHECKING:
    from .render import PlotSpec

# Largest plot --grid: it bounds one panel's field to grid * grid / 2
# cells, 524,288 rectangles at 1024 (the students plot's SVG measured
# 26 MB), but not the number of panels in a document.
MAX_GRID = 1024
# Largest boundary --resolution: 65,536 envelope rows are about 1.8 MB of
# CSV, where an uncapped 1e7 wrote 270 MB and 1e8 ran out of memory.
MAX_RESOLUTION = 65536
# Most markers in one plot document, over every panel and both overlay
# snapshots: 100,000 circles are about 7.5 MB of SVG.
MAX_MARKERS = 100_000

_CRITERION_KEYS = {"name", "kind", "min", "max", "weight"}
_CONFIG_KEYS = {"criteria", "aggregation", "weighted", "tie_tolerance",
                "clamp"}


class RunConfig(_Value):
    """Validated run configuration: criteria plus scoring options.  The
    weights are not a field: they follow from the criteria."""

    def __init__(self, criteria: tuple[CriterionSpec, ...],
                 aggregation: AggregationKind = AggregationKind.R,
                 weighted: bool = True,
                 tie_tolerance: float = DEFAULT_TIE_TOLERANCE,
                 clamp: bool = False):
        vars(self).update(criteria=criteria, aggregation=aggregation,
                          weighted=weighted, tie_tolerance=tie_tolerance,
                          clamp=clamp)

    def replace(self, **changes) -> RunConfig:
        """A copy with the given fields changed."""
        return RunConfig(**{**vars(self), **changes})

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.criteria)

    @property
    def weight_vector(self) -> WeightVector:
        """The criteria's raw weights, max-normalized."""
        return WeightVector([c.raw_weight for c in self.criteria])

    @property
    def weights(self) -> WeightVector:
        """The weights to score with: all ones when unweighted."""
        if self.weighted:
            return self.weight_vector
        return WeightVector(np.ones(len(self.criteria)))


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"config is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise SchemaError("config must be a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise SchemaError(f"unknown fields {sorted(unknown)}")
    if "criteria" not in doc:
        raise SchemaError("missing required field", path="criteria")
    raw_criteria = doc["criteria"]
    if not isinstance(raw_criteria, list) or not raw_criteria:
        raise SchemaError("must be a non-empty list", path="criteria")

    fields = []
    for i, entry in enumerate(raw_criteria):
        path = f"criteria[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError("must be an object", path=path)
        missing = _CRITERION_KEYS - set(entry)
        if missing:
            raise SchemaError(f"missing fields {sorted(missing)}", path=path)
        unknown = set(entry) - _CRITERION_KEYS
        if unknown:
            raise SchemaError(f"unknown fields {sorted(unknown)}", path=path)
        if not isinstance(entry["name"], str) or not entry["name"]:
            raise SchemaError("name must be a non-empty string", path=path)
        if entry["kind"] not in (GAIN, COST):
            raise SchemaError(
                f"must be 'gain' or 'cost', got {entry['kind']!r}",
                path=f"{path}.kind")
        v_min, v_max, weight = (
            _config_float(entry[key], "must be a number", f"{path}.{key}")
            for key in ("min", "max", "weight"))
        fields.append((entry["name"], v_min, v_max, entry["kind"], weight))
    # each spec checks itself when built, before the next name is compared
    criteria = _criteria(CriterionSpec(*f) for f in fields)

    aggregation = doc.get("aggregation", "R")
    if aggregation not in ("I", "A", "R"):
        raise SchemaError(f"must be one of I, A, R, "
                          f"got {aggregation!r}", path="aggregation")
    weighted = doc.get("weighted", True)
    if not isinstance(weighted, bool):
        raise SchemaError("must be a boolean", path="weighted")
    clamp = doc.get("clamp", False)
    if not isinstance(clamp, bool):
        raise SchemaError("must be a boolean", path="clamp")
    message = "must be a finite non-negative number"
    tie_tolerance = _config_float(
        doc.get("tie_tolerance", DEFAULT_TIE_TOLERANCE), message,
        "tie_tolerance")
    if not 0 <= tie_tolerance < math.inf:
        raise SchemaError(message, path="tie_tolerance")

    config = RunConfig(criteria=criteria,
                       aggregation=AggregationKind(aggregation),
                       weighted=weighted, tie_tolerance=tie_tolerance,
                       clamp=clamp)
    try:
        config.weight_vector  # refused here, not where a command scores
    except ValidationError as e:
        e.args = (f"criteria[*].weight: {e}",)
        raise
    return config


def _config_float(value, message: str, path: str) -> float:
    """A JSON number as a float; SchemaError with ``message`` for anything
    else, and for an integer too large for a float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SchemaError(message, path=path)
    try:
        return float(value)
    except OverflowError:
        raise SchemaError("number is too large for a float",
                          path=path) from None


def _read_data(path, error: type[WmsdError] = ValidationError) -> str:
    """The text of a UTF-8 file with its line endings untranslated, so a
    carriage return inside a quoted field stays part of the field, and a
    leading byte-order mark dropped.  Bytes that are not UTF-8 raise
    ``error``, naming the file and the first bad byte's offset."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as e:
        offset = e.start + 3 * data.startswith(codecs.BOM_UTF8)
        raise error(f"{path}: byte {offset} is not UTF-8 ({e.reason})"
                    ) from None


def read_matrix(csv_text: str, config: RunConfig) -> DecisionMatrix:
    """Parse a dataset CSV against the configured criteria.

    :func:`_cells` reads it with numpy's C text reader for as long as it
    is plain, and with the csv module from where it is not; both give the
    same cells, and only the csv module raises ingest errors.
    """
    matrices = _read_matrices(csv_text, [config])
    del csv_text  # the split holds the text only until it is parsed
    return next(matrices)


def _read_matrices(csv_text: str, configs: Sequence[RunConfig]
                   ) -> Iterator[DecisionMatrix]:
    """:func:`read_matrix` of one text under each config in turn.  The
    text is read once per distinct tuple of criterion names, and each
    matrix is built when the iteration reaches its config, so errors come
    in config order.  The text is dropped once no read is left."""
    cells = {}
    for config in configs:
        if config.names not in cells:
            cells[config.names] = _cells(csv_text, config.names)
            if {c.names for c in configs} <= cells.keys():
                csv_text = None
        yield DecisionMatrix(*cells[config.names], config.criteria,
                             clamp=config.clamp)


# Characters that send a block to the csv module: a quote and NUL need its
# parsing, and numpy's reader strips \x1c-\x1f around a number where
# ``float()`` refuses it.  numpy refuses any CR that does not end a line.
_NOT_PLAIN = '"\0\x1c\x1d\x1e\x1f'


def _cells(csv_text: str, names: tuple[str, ...]):
    """``(ids, values)`` of a dataset, ``values`` read-only and owning its
    data.  ``np.loadtxt`` reads blocks of lines, bit for bit as ``float()``
    where it accepts a cell, while the header and each block are plain; the
    csv module reads on from the first block that holds a ``_NOT_PLAIN``
    character or that numpy refuses, or from a header that is not plain."""
    n = len(names)
    head = csv_text.find("\n") if "\n" in csv_text else len(csv_text)
    header = csv_text[:head].removesuffix("\r")
    plain = header.split(",") == ["id", *names] and not any(
        c in header for c in _NOT_PLAIN + "\r")
    record = [("id", "O"), ("v", "f8", (n,))]
    # A row per 2n + 1 characters at most, as a row either reader accepts
    # holds n non-empty cells and n commas; untouched rows take no memory.
    ids, values = [], np.empty((len(csv_text) // (2 * n + 1) + 1, n))
    start = head + 1 if plain else 0
    end = len(csv_text) - csv_text.endswith("\n")
    while plain and start < end:
        stop = csv_text.find("\n", start + _block_rows(1), end)  # a char a row
        stop = end if stop < 0 else stop
        chunk = csv_text[start:stop]  # an LF or the end of the text follows
        if any(c in chunk for c in _NOT_PLAIN):
            break
        if chunk.lstrip("\r\n"):  # loadtxt warns on input without data
            try:
                block = np.loadtxt(chunk.split("\n"), delimiter=",",
                                   comments=None, ndmin=1, dtype=record)
            except ValueError:
                break
            values[len(ids):len(ids) + len(block)] = block["v"]
            ids += block["id"].tolist()
        start = stop + 1
    if start < end or not plain:
        _csv_records(csv_text, start, names, ids, values)
    values.resize((len(ids), n), refcheck=False)  # no view of it is alive
    values.flags.writeable = False  # so the matrix keeps it without a copy
    return ids, values


def _csv_records(csv_text: str, start: int, names: tuple[str, ...],
                 ids: list, values: np.ndarray) -> None:
    """Add to ``ids`` and ``values`` the records the csv module reads from
    offset ``start`` (the header first at 0); raises every ingest error.
    ``start`` begins a record, and ``ids`` has one per non-blank line."""
    import csv

    # numpy reads cells of any length, so the csv module must too.  The
    # limit is process-wide, so it is put back.
    limit = csv.field_size_limit()
    csv.field_size_limit(max(limit, len(csv_text)))
    reader = csv.reader(_lines(csv_text, start))
    expected = ["id", *names]
    r = len(ids)  # 1-based data row: blank lines are not counted
    try:
        if not start:
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
                values[r - 1] = list(map(float, record[1:]))
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


def _lines(text: str, start: int) -> Iterator[str]:
    """The lines of ``text`` from offset ``start``, each with its LF."""
    while start < len(text):
        stop = text.find("\n", start) + 1 or len(text)
        yield text[start:stop]
        start = stop


def _load_config(path, args: argparse.Namespace) -> RunConfig:
    """The config at ``path`` with every override flag the command
    declares, when given, applied over the field it stores into."""
    text = _read_data(path, SchemaError)  # line endings translated below
    config = parse_config(io.StringIO(text, newline=None).read())
    changes = {key: value for key, value in vars(args).items()
               if key in vars(config) and value is not None}
    if "aggregation" in changes:
        changes["aggregation"] = AggregationKind(changes["aggregation"])
    return config.replace(**changes)


def _score_blocks(matrix: DecisionMatrix,
                  w: WeightVector) -> Iterator[tuple]:
    """``(rows, u, v, wm, wsd)`` of each block of rows under ``w``: the
    slice of the block, its utility and weighted rows and its plane
    points.  Every command scores through this loop; a block's
    intermediate arrays, of n floats a row, stay in cache."""
    step = _block_rows(8 * matrix.n)
    for a in range(0, matrix.m, step):
        rows = slice(a, a + step)
        u = utility_array(matrix.values[rows], matrix.criteria)
        v = u * w.weights
        yield (rows, u, v, *plane(v, w))


def _plane_points(matrix: DecisionMatrix, w: WeightVector) -> tuple:
    """Columns ``(ids, wm, wsd)``: every alternative's plane point under
    ``w``, from which both its score and its plot marker are taken."""
    wm, wsd = np.empty(matrix.m), np.empty(matrix.m)
    for rows, _, _, block_wm, block_wsd in _score_blocks(matrix, w):
        wm[rows], wsd[rows] = block_wm, block_wsd
    return matrix.ids, wm, wsd


def _ranking(matrix: DecisionMatrix, config: RunConfig) -> Ranking:
    """The alternatives ranked by the config's aggregation and weights."""
    w = config.weights
    ids, wm, wsd = _plane_points(matrix, w)
    return rank_array(ids, agg_values(config.aggregation, wm, wsd, w.mean_w),
                      config.tie_tolerance)


_json_str = json.encoder.encode_basestring_ascii


def _needs_quotes(text: str) -> bool:
    return "," in text or '"' in text or "\n" in text or "\r" in text


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes a field (minimal quoting, with its
    default ``\\r\\n`` terminator, so a CR is quoted as an LF is)."""
    if _needs_quotes(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_fields(texts: Sequence[str]) -> Sequence[str]:
    """:func:`_csv_field` of each text; the texts themselves if none
    needs quotes."""
    if _needs_quotes("".join(texts)):
        return list(map(_csv_field, texts))
    return texts


def _json_array(rows: Iterator[bytes], depth: int,
                brackets: str = "[]") -> Iterable[bytes]:
    """A JSON array, or an object with ``brackets="{}"``, laid out as
    ``json.dumps(indent=2)`` does at nesting ``depth``, from pieces of rows
    that each start ``",\\n"``, of which the first is made now."""
    first = next(rows, None)
    if first is None:
        return [brackets.encode()]
    return chain([brackets[0].encode(), first[1:]], rows,
                 [f"\n{'  ' * depth}{brackets[1]}".encode()])


def _json_fields(fields: Sequence[tuple[str, str]], depth: int) -> str:
    """:func:`_json_array` row of an object at ``depth``, ``(key, spec)``."""
    pad = "  " * depth
    lines = ",\n".join(f"{pad}  {_json_str(key).replace('%', '%%')}: {spec}"
                       for key, spec in fields)
    return f",\n{pad}{{\n{lines}\n{pad}}}"


def _json_pair(spec: str, depth: int) -> str:
    """:func:`_json_array` row of a two-element array at ``depth``."""
    pad = "  " * depth
    return f",\n{pad}[\n{pad}  {spec},\n{pad}  {spec}\n{pad}]"


def _entries_json(ranking: Ranking, ids: Sequence[str],
                  depth: int) -> Iterable[bytes]:
    """A ranking's ``{id, score, rank, group}`` objects as a JSON array;
    ``ids`` are the JSON texts of ``ranking.ids``."""
    fields = [("id", "%s"), ("score", "%r"), ("rank", "%.0f"),
              ("group", "%.0f")]
    return _json_array(_pieces(
        _json_fields(fields, depth + 1),
        [ids, ranking.scores, ranking.ranks, ranking.group_numbers]), depth)


def _groups_json(ranking: Ranking, ids: Sequence[str],
                 depth: int) -> Iterable[bytes]:
    """A ranking's indifference groups as a JSON array of id arrays;
    ``ids`` are the JSON texts of ``ranking.ids``."""
    if not ranking.ids:
        return [b"[]"]
    pad = "  " * (depth + 1)
    starts = np.diff(ranking.ranks, prepend=0) != 0
    ends = np.append(starts[1:], True)
    opens = np.array(["", f"{pad}[\n"], dtype=object)[starts.astype(int)]
    closes = np.array([",\n", f"\n{pad}],\n"], dtype=object)[
        ends.astype(int)]
    closes[-1] = f"\n{pad}]"
    return chain([b"[\n"], _pieces(f"%s{pad}  %s%s", [opens, ids, closes]),
                 [f"\n{'  ' * depth}]".encode()])


def cmd_rank(args: argparse.Namespace) -> Iterable[bytes]:
    config = _load_config(args.config[0], args)
    ranking = _ranking(read_matrix(_read_data(args.data), config), config)
    if args.format == "json":
        ids = list(map(_json_str, ranking.ids))
        return chain([b'{\n  "entries": '], _entries_json(ranking, ids, 1),
                     [b',\n  "groups": '], _groups_json(ranking, ids, 1),
                     [b"\n}\n"])
    return chain([b"id,score,rank,group\n"], _pieces(
        "%s,%.6f,%.0f,%.0f\n", [_csv_fields(ranking.ids), ranking.scores,
                                ranking.ranks, ranking.group_numbers]))


def cmd_transform(args: argparse.Namespace) -> Iterable[bytes]:
    """Full per-alternative coordinate and score table, each block of rows
    formatted when the writer reaches it, as soon as it is scored."""
    config = _load_config(args.config[0], args)
    matrix = read_matrix(_read_data(args.data), config)
    w = config.weight_vector
    unit = WeightVector(np.ones(matrix.n))
    names = config.names
    header = (["id"] + [f"u_{n}" for n in names] + [f"v_{n}" for n in names]
              + ["m", "sd", "wm", "wsd", "i", "a", "r", "i_w", "a_w", "r_w"])
    as_json = args.format == "json"
    if as_json:
        template = _json_fields(
            [("id", "%s")] + [(h, "%r") for h in header[1:]], 1)
    else:
        template = "%s" + ",%.6f" * (len(header) - 1) + "\n"

    def blocks():
        for rows, u, v, wm, wsd in _score_blocks(matrix, w):
            ids = matrix.ids[rows]
            m, sd = plane(u, unit)  # u is its own weighted row
            yield from _pieces(template, [
                list(map(_json_str, ids)) if as_json else _csv_fields(ids),
                u, v, m, sd, wm, wsd,
                *(agg_values(k, m, sd, 1.0) for k in AggregationKind),
                *(agg_values(k, wm, wsd, w.mean_w) for k in AggregationKind)])
    if as_json:
        return chain(_json_array(blocks(), 0), [b"\n"])
    return chain([",".join(map(_csv_field, header)).encode() + b"\n"],
                 blocks())


def cmd_boundary(args: argparse.Namespace) -> Iterable[bytes]:
    from .geometry import envelope, vertex_images

    w = _load_config(args.config[0], args).weights
    wm, wsd = envelope(w, args.resolution)
    vertices = vertex_images(w)
    if args.format == "json":
        item = ",\n    %r"
        return chain([b'{\n  "wm": '], _json_array(_pieces(item, [wm]), 1),
                     [b',\n  "wsd": '], _json_array(_pieces(item, [wsd]), 1),
                     [b',\n  "vertices": '],
                     _json_array(_pieces(_json_pair("%r", 2), [vertices]), 1),
                     [b"\n}\n"])
    return chain([b"section,wm,wsd\n"],
                 _pieces("envelope,%.6f,%.6f\n", [wm, wsd]),
                 _pieces("vertex,%.6f,%.6f\n", [vertices]))


def _plot_spec(matrix: DecisionMatrix, config: RunConfig,
               args: argparse.Namespace) -> PlotSpec:
    from .render import PlotSpec

    w = config.weights
    ids, wm, wsd = _plane_points(matrix, w)
    return PlotSpec(
        weights=w, kind=config.aggregation, ids=ids, wm=wm, wsd=wsd,
        grid=args.grid, show_isolines=tuple(args.isolines),
        labels=args.labels)


def _check_markers(count: int) -> None:
    if count > MAX_MARKERS:
        raise SchemaError(f"plot draws at most {MAX_MARKERS} markers, "
                          f"got {count}")


def cmd_plot(args: argparse.Namespace) -> list[bytes]:
    from .render import _grid_document, _plot_document

    configs = [_load_config(p, args) for p in args.config]
    # The dataset text is not bound here, so it is dropped once parsed.
    if args.overlay is not None:
        config = configs[0]
        matrix_a = read_matrix(_read_data(args.data), config)
        matrix_b = read_matrix(_read_data(args.overlay), config)
        if set(matrix_a.ids) != set(matrix_b.ids):
            diff = sorted(set(matrix_a.ids) ^ set(matrix_b.ids))
            raise IdSetMismatch(
                f"overlay ids differ from dataset ids: {diff}")
        _check_markers(matrix_a.m + matrix_b.m)
        spec = _plot_spec(matrix_a, config, args)
        return _plot_document(spec, _plane_points(matrix_b, spec.weights))

    specs = []
    markers = 0
    matrices = _read_matrices(_read_data(args.data), configs)
    for config, matrix in zip(configs, matrices):
        markers += matrix.m
        _check_markers(markers)
        specs.append(_plot_spec(matrix, config, args))
    if len(specs) == 1:
        return _plot_document(specs[0], None)
    return _grid_document(specs, args.columns)


def cmd_compare(args: argparse.Namespace) -> Iterable[bytes]:
    config_a = _load_config(args.config[0], args)
    config_b = _load_config(args.config_b, args)
    matrix_a, matrix_b = _read_matrices(_read_data(args.data),
                                        [config_a, config_b])
    ra = _ranking(matrix_a, config_a)
    rb = _ranking(matrix_b, config_b)
    cmp = compare_rankings(ra, rb)
    # Each id is quoted or escaped once; ranking_b's ids, in its order,
    # and the two ids of each reversal pair are taken from those texts.
    as_csv = args.format == "csv"
    texts = np.array(_csv_fields(ra.ids) if as_csv
                     else list(map(_json_str, ra.ids)), dtype=object)
    revs = list(texts[cmp.reversals].T)
    if as_csv:
        return chain([b"id,score_a,rank_a,score_b,rank_b,delta\n"],
                     _pieces("%s,%.6f,%.0f,%.6f,%.0f,%.0f\n",
                             [texts, ra.scores, ra.ranks, rb.scores[cmp.order],
                              rb.ranks[cmp.order], cmp.deltas]),
                     _pieces("# kendall_tau=%.6f\n", [[cmp.kendall_tau]]),
                     _pieces("# reversal=%s,%s\n", revs))
    tau = ("null" if math.isnan(cmp.kendall_tau)
           else repr(round(cmp.kendall_tau, 6)))
    return chain([b'{\n  "ranking_a": '], _entries_json(ra, texts, 1),
                 [b',\n  "ranking_b": '],
                 _entries_json(rb, texts[np.argsort(cmp.order)], 1),
                 [b',\n  "deltas": '],
                 _json_array(_pieces(",\n    %s: %.0f", [texts, cmp.deltas]),
                             1, "{}"),
                 [f',\n  "kendall_tau": {tau},\n  "reversals": '.encode()],
                 _json_array(_pieces(_json_pair("%s", 2), revs), 1),
                 [b"\n}\n"])


def _levels(text: str) -> list[float]:
    if not text:
        return []
    try:
        return [float(t) for t in text.split(",")]
    except ValueError:
        raise SchemaError(f"cannot parse isoline levels {text!r}")


# Every flag a command can declare.  A flag that overrides a config key
# stores into the RunConfig field of that key, and is None when not given.
_FLAGS = {
    "--data": dict(action="append", required=True, help="dataset CSV"),
    "--config": dict(action="append", required=True,
                     help="JSON config (repeatable for plot panels)"),
    "--out": dict(help="output file (stdout when omitted)"),
    "--format": None,  # the command's formats; the first is the default
    "--aggregation": dict(choices=["I", "A", "R"]),
    "--unweighted": dict(action="store_const", const=False, dest="weighted",
                         help="score with all criteria equally important"),
    "--clamp": dict(action="store_const", const=True,
                    help="clamp out-of-domain values to the bounds"),
    "--tie-tol": dict(type=float, dest="tie_tolerance", metavar="TIE_TOL"),
    "--resolution": dict(type=int, default=512, help="envelope rows, from 2 "
                         f"to {MAX_RESOLUTION} (default %(default)s)"),
    "--grid": dict(type=int, default=128, help="color-field resolution: "
                   f"cells across, from 16 to {MAX_GRID} (default 128)"),
    "--columns": dict(type=int, default=2,
                      help="panel-grid columns for repeated --config"),
    "--overlay": dict(action="append",
                      help="second snapshot CSV; draws arrows"),
    "--isolines": dict(default="", help="comma-separated aggregation levels"),
    "--labels": dict(action="store_true"),
    "--config-b": dict(action="append", required=True),
}

# Each command, run by ``cmd_<name>``: its line in the command list, its
# output formats and its flags, in the order its usage lists them.
_COMMANDS = {
    "rank": ("score and rank alternatives", ["csv", "json"],
             "--data --config --out --format --aggregation --unweighted "
             "--clamp --tie-tol"),
    "transform": ("full coordinate table per alternative", ["csv", "json"],
                  "--data --config --out --format --clamp"),
    "boundary": ("attainable-region envelope as CSV/JSON", ["csv", "json"],
                 "--config --out --format --unweighted --resolution"),
    "plot": ("SVG plot of the plane", ["svg"],
             "--data --config --out --format --aggregation --unweighted "
             "--clamp --grid --columns --overlay --isolines --labels"),
    "compare": ("compare rankings under two configs", ["json", "csv"],
                "--data --config --out --format --aggregation --unweighted "
                "--clamp --tie-tol --config-b"),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command``, with every flag it declares; without
    ``command``, the top-level parser, which names the commands and
    declares none of their flags.

    A command's ``run`` is the module's ``cmd_<name>`` when its parser is
    built, so a wrapper set over it, as a tracer sets one, is the function
    run."""
    if command is None:
        parser = argparse.ArgumentParser(
            prog="wmsdspace",
            description="TOPSIS rankings with 2-D (WM, WSD) explanations.")
        sub = parser.add_subparsers(dest="command", required=True)
        for name, (line, _, _) in _COMMANDS.items():
            sub.add_parser(name, help=line, add_help=False)
        return parser
    _, formats, flags = _COMMANDS[command]
    p = argparse.ArgumentParser(
        prog=f"wmsdspace {command}", description=None if command != "plot"
        else (f"SVG plot of the plane: at most {MAX_MARKERS} markers per "
              "document, over every panel and both overlay snapshots."))
    p.set_defaults(command=command, run=globals()[f"cmd_{command}"])
    for flag in flags.split():
        p.add_argument(flag, **(_FLAGS[flag] or dict(
            choices=sorted(formats), default=formats[0])))
    return p


def _validate_args(args: argparse.Namespace) -> None:
    """Refuse what the parser lets through, and unwrap each single-value
    flag: argparse appends every repeat of a flag, so a repeat can be
    refused here with a record rather than kept silently."""
    if len(args.config) > 1 and (args.command != "plot"
                                 or args.overlay is not None):
        command = "plot --overlay" if args.command == "plot" else args.command
        raise SchemaError(f"{command} reads one --config, "
                          f"got {len(args.config)}")
    for dest in ("data", "config_b", "overlay"):
        values = getattr(args, dest, None)
        if values is None:
            continue
        if len(values) > 1:
            flag = "--" + dest.replace("_", "-")
            raise SchemaError(f"{args.command} reads one {flag}, "
                              f"got {len(values)}")
        setattr(args, dest, values[0])
    for dest, low, high in (("grid", 16, MAX_GRID),
                            ("resolution", 2, MAX_RESOLUTION)):
        value = getattr(args, dest, low)
        if not low <= value <= high:
            bound = f"least {low}" if value < low else f"most {high}"
            raise SchemaError(f"--{dest} must be at {bound}")
    if getattr(args, "columns", 1) < 1:
        raise SchemaError("--columns must be positive")
    if getattr(args, "isolines", None) is not None:
        args.isolines = _levels(args.isolines)
    if getattr(args, "tie_tolerance", None) is not None \
            and not 0 <= args.tie_tolerance < math.inf:
        raise SchemaError("--tie-tol must be a finite non-negative number")


def _batches(pieces: Iterable[bytes]) -> Iterator[bytes]:
    """Pieces in runs of 64 KiB or more, but the last: only such a first run
    fills a 64 KiB pipe, which unbatched pieces left blocked short of full."""
    batch, size = [], 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= 1 << 16:
            yield b"".join(batch)
            batch, size = [], 0
    yield b"".join(batch)


def _write(pieces: Iterable[bytes], out: str | None) -> None:
    """The pieces to the file ``out``, created once the first run of them
    is made, or to stdout whatever the locale's encoding.  A run goes to
    stdout's descriptor until every byte is written: a write may take only
    part of it, and one to a full non-blocking pipe waits until the pipe
    can take more.  A stdout with no descriptor, such as ``io.StringIO``,
    is given the text."""
    runs = _batches(pieces)
    runs = chain([next(runs)], runs)
    if out is not None:
        with open(out, "wb") as f:
            f.writelines(runs)
        return
    try:
        fd = sys.stdout.fileno()
    except OSError:  # io.UnsupportedOperation
        sys.stdout.writelines(map(bytes.decode, runs))
        return
    sys.stdout.flush()
    for run in runs:
        data = memoryview(run)
        while data:
            try:
                data = data[os.write(fd, data):]
            except BlockingIOError:
                import select

                select.select([], [fd], [])


def main(argv=None) -> int:
    """Run one command; return its exit code.

    The first call in a process freezes every object alive at that moment
    (numpy, the standard library and this package, as imported) into the
    collector's permanent generation, so neither a full collection during
    the command nor interpreter exit traverses them.  Later calls freeze
    nothing more, so a caller that runs many commands in one process keeps
    only what was alive at its first call out of collection.
    """
    if gc.get_freeze_count() == 0:
        gc.freeze()
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        args = build_parser(argv[0]).parse_args(argv[1:])
    else:  # --help, no command, an unknown one or an option before it
        args = build_parser().parse_args(argv)
    try:
        _validate_args(args)
        _write(args.run(args), args.out)
    except WmsdError as e:
        sys.stderr.write(json.dumps(e.details(), sort_keys=True) + "\n")
        return 1 if isinstance(e, ValidationError) else 2
    except OSError as e:
        sys.stderr.write(json.dumps(
            {"error": "IOError", "message": str(e)}, sort_keys=True) + "\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
