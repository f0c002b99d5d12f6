"""Command-line interface: rank, transform, boundary, plot, compare.

Datasets are CSV files whose header is ``id`` followed by the criterion
names declared in a JSON config; configs carry the criterion domains,
gain/cost kinds, and raw weights.  All commands are deterministic:
identical inputs produce byte-identical outputs.  Numeric output is
rounded to 6 decimal places.

Errors are emitted as single-line JSON records on stderr; the exit code
is 0 on success, 1 for validation errors, 2 for refused computations,
and 3 for I/O failures.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .aggregate import (
    AggregationKind,
    Ranking,
    agg_rows,
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
from .geometry import boundary, plane_coordinates
from .model import (
    COST,
    GAIN,
    CriterionSpec,
    DecisionMatrix,
    WeightVector,
    normalize_weights,
    uniform_weights,
    validate_criteria,
)
from .render import (
    PlotSpec,
    SOLID,
    render_overlay,
    render_panel_grid,
    render_wmsd_plot,
)
from ._text import _CHUNK_ROWS, rows as _rows
from .spaces import utility_array
from .wmsd import WmsdPoint, mean_sd, plane

DEFAULT_TIE_TOLERANCE = 1e-9
# Largest plot --grid: the field has grid * grid / 2 cells, so 1024 gives
# 524,288 rectangles (about 40 MB of SVG).
MAX_GRID = 1024

_CRITERION_KEYS = {"name", "kind", "min", "max", "weight"}
_CONFIG_KEYS = {"criteria", "aggregation", "weighted", "tie_tolerance",
                "clamp"}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration: criteria plus scoring options."""

    criteria: tuple[CriterionSpec, ...]
    weight_vector: WeightVector
    aggregation: AggregationKind = AggregationKind.R
    weighted: bool = True
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE
    clamp: bool = False

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.criteria)


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

    specs = []
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
                f"kind must be 'gain' or 'cost', got {entry['kind']!r}",
                path=f"{path}.kind")
        v_min, v_max, weight = (
            _config_float(entry[key], f"{key} must be a number",
                          f"{path}.{key}")
            for key in ("min", "max", "weight"))
        specs.append(CriterionSpec(
            name=entry["name"], v_min=v_min, v_max=v_max,
            kind=entry["kind"], raw_weight=weight))

    validate_criteria(specs)

    aggregation = doc.get("aggregation", "R")
    if aggregation not in ("I", "A", "R"):
        raise SchemaError(f"aggregation must be one of I, A, R, "
                          f"got {aggregation!r}", path="aggregation")
    weighted = doc.get("weighted", True)
    if not isinstance(weighted, bool):
        raise SchemaError("weighted must be a boolean", path="weighted")
    clamp = doc.get("clamp", False)
    if not isinstance(clamp, bool):
        raise SchemaError("clamp must be a boolean", path="clamp")
    message = "tie_tolerance must be a finite non-negative number"
    tie_tolerance = _config_float(
        doc.get("tie_tolerance", DEFAULT_TIE_TOLERANCE), message,
        "tie_tolerance")
    if not 0 <= tie_tolerance < math.inf:
        raise SchemaError(message, path="tie_tolerance")

    try:
        weight_vector = normalize_weights([c.raw_weight for c in specs])
    except ValidationError as e:
        e.args = (f"criteria[*].weight: {e}",)
        raise
    return RunConfig(criteria=tuple(specs), weight_vector=weight_vector,
                     aggregation=AggregationKind(aggregation),
                     weighted=weighted, tie_tolerance=tie_tolerance,
                     clamp=clamp)


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


def read_matrix(csv_text: str, config: RunConfig) -> DecisionMatrix:
    """Parse a dataset CSV against the configured criteria.

    Plain text (no ``"``, CR or NUL) with the expected header is split on
    commas in one pass and its cells converted with ``float()``.  Other
    text, and any text with a ragged row or a cell ``float()`` rejects,
    goes through :func:`_read_matrix_csv`, which is the only path that
    raises ingest errors; both give the same matrix.
    """
    split = _split_plain(csv_text, config.names)
    if split is None:
        return _read_matrix_csv(csv_text, config)
    ids, values = split
    return DecisionMatrix.from_array(ids, values, config.criteria,
                                     clamp=config.clamp)


def _split_plain(csv_text: str, names: tuple[str, ...]):
    """``(ids, values)`` of plain CSV text, or None to use the csv module."""
    if '"' in csv_text or "\r" in csv_text or "\0" in csv_text:
        return None
    header, _, body = csv_text.partition("\n")
    if header.split(",") != ["id", *names]:
        return None
    lines = body.split("\n")
    if "" in lines:
        lines = [line for line in lines if line]
    n = len(names)
    if set(map(str.count, lines, repeat(","))) - {n}:
        return None
    ids = []
    values = np.empty((len(lines), n))
    for a in range(0, len(lines), _CHUNK_ROWS):
        cells = ",".join(lines[a:a + _CHUNK_ROWS]).split(",")
        ids += cells[::n + 1]
        del cells[::n + 1]
        try:
            block = np.fromiter(map(float, cells), float, len(cells))
        except ValueError:
            return None
        values[a:a + _CHUNK_ROWS] = block.reshape(-1, n)
    return ids, values


def _read_matrix_csv(csv_text: str, config: RunConfig) -> DecisionMatrix:
    """Parse a dataset with the csv module; raises every ingest error."""
    # The plain path reads cells of any length, so this one must too.  The
    # limit is process-wide, so it is put back.
    limit = csv.field_size_limit()
    csv.field_size_limit(max(limit, len(csv_text)))
    try:
        ids, values = _csv_cells(csv_text, config.names)
    finally:
        csv.field_size_limit(limit)
    return DecisionMatrix.from_array(ids, values, config.criteria,
                                     clamp=config.clamp)


def _csv_cells(csv_text: str, names: tuple[str, ...]):
    """``(ids, values)`` of a dataset read with the csv module."""
    reader = csv.reader(io.StringIO(csv_text))
    try:
        header = next(reader, None)
    except csv.Error as e:
        raise MalformedCsv(f"header: {e}") from None
    if header is None:
        raise HeaderMismatch("dataset is empty; expected a header row")
    expected = ["id", *names]
    if header != expected:
        raise HeaderMismatch(
            f"header {header} does not match expected {expected}")
    ids, rows = [], []
    r = 0  # 1-based data row: blank lines are not counted
    try:
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
    return ids, np.array(rows, dtype=float).reshape(len(ids), len(names))


def _scores(matrix: DecisionMatrix, w: WeightVector,
            kind: AggregationKind, weighted: bool) -> np.ndarray:
    """Scores of all alternatives, in matrix order, as one array."""
    if not weighted:
        w = uniform_weights(matrix.n)
    u = utility_array(matrix.values, matrix.criteria)
    return agg_rows(kind, u * w.weights, w)


_json_str = json.encoder.encode_basestring_ascii


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes a field (minimal quoting)."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_fields(texts: Sequence[str]) -> Sequence[str]:
    """:func:`_csv_field` of each text; the texts themselves if none
    needs quotes."""
    joined = "".join(texts)
    if "," in joined or '"' in joined or "\n" in joined:
        return list(map(_csv_field, texts))
    return texts


def _json_block(item: str, columns: Sequence, depth: int,
                brackets: str = "[]") -> str:
    """A JSON array, or an object with ``brackets="{}"``, laid out as
    ``json.dumps(indent=2)`` does at nesting ``depth``, with one ``item``
    per row; ``%r`` floats print as ``repr(round(x, 6))``."""
    body = _rows(item + ",\n", columns)
    if not body:
        return brackets
    return f"{brackets[0]}\n{body[:-2]}\n{'  ' * depth}{brackets[1]}"


def _json_fields(fields: Sequence[tuple[str, str]], depth: int) -> str:
    """Row template of a JSON object at ``depth`` from ``(key, format)``."""
    pad = "  " * depth
    lines = ",\n".join(f"{pad}  {_json_str(key).replace('%', '%%')}: {spec}"
                       for key, spec in fields)
    return f"{pad}{{\n{lines}\n{pad}}}"


def _json_pair(spec: str, depth: int) -> str:
    """Row template of a two-element JSON array at ``depth``."""
    pad = "  " * depth
    return f"{pad}[\n{pad}  {spec},\n{pad}  {spec}\n{pad}]"


def _entries_json(ranking: Ranking, depth: int) -> str:
    """A ranking's ``{id, score, rank, group}`` objects as a JSON array."""
    fields = [("id", "%s"), ("score", "%r"), ("rank", "%d"), ("group", "%d")]
    return _json_block(
        _json_fields(fields, depth + 1),
        [list(map(_json_str, ranking.ids)), ranking.scores, ranking.ranks,
         ranking.group_numbers], depth)


def _groups_json(ranking: Ranking, depth: int) -> str:
    """A ranking's indifference groups as a JSON array of id arrays."""
    if not ranking.ids:
        return "[]"
    pad = "  " * (depth + 1)
    starts = np.diff(ranking.ranks, prepend=0) != 0
    ends = np.append(starts[1:], True)
    opens = np.array(["", f"{pad}[\n"], dtype=object)[starts.astype(int)]
    closes = np.array([",\n", f"\n{pad}],\n"], dtype=object)[
        ends.astype(int)]
    closes[-1] = f"\n{pad}]"
    body = _rows(f"%s{pad}  %s%s", [opens, list(map(_json_str, ranking.ids)),
                                    closes])
    return f"[\n{body}\n{'  ' * depth}]"


def cmd_rank(matrix: DecisionMatrix, config: RunConfig,
             kind: AggregationKind, weighted: bool, tie_tolerance: float,
             fmt: str) -> str:
    ranking = rank_array(
        matrix.ids, _scores(matrix, config.weight_vector, kind, weighted),
        tie_tolerance)
    if fmt == "json":
        return (f'{{\n  "entries": {_entries_json(ranking, 1)},\n'
                f'  "groups": {_groups_json(ranking, 1)}\n}}\n')
    return "id,score,rank,group\n" + _rows(
        "%s,%.6f,%d,%d\n", [_csv_fields(ranking.ids), ranking.scores,
                            ranking.ranks, ranking.group_numbers])


def cmd_transform(matrix: DecisionMatrix, config: RunConfig,
                  fmt: str) -> str:
    """Full per-alternative coordinate and score table."""
    w = config.weight_vector
    names = config.names
    header = (["id"] + [f"u_{n}" for n in names] + [f"v_{n}" for n in names]
              + ["m", "sd", "wm", "wsd", "i", "a", "r", "i_w", "a_w", "r_w"])
    u = utility_array(matrix.values, matrix.criteria)
    v = u * w.weights
    ones = uniform_weights(matrix.n)  # u * ones.weights is u itself
    table = np.column_stack(
        [u, v, *mean_sd(u), *plane(v, w)]
        + [agg_rows(k, u, ones) for k in AggregationKind]
        + [agg_rows(k, v, w) for k in AggregationKind])
    if fmt == "json":
        item = _json_fields([("id", "%s")] + [(h, "%r") for h in header[1:]],
                            1)
        return _json_block(item, [list(map(_json_str, matrix.ids)), table],
                           0) + "\n"
    return ",".join(map(_csv_field, header)) + "\n" + _rows(
        "%s" + ",%.6f" * (len(header) - 1) + "\n",
        [_csv_fields(matrix.ids), table])


def cmd_boundary(config: RunConfig, resolution: int, fmt: str) -> str:
    env = boundary(config.weight_vector, resolution)
    if fmt == "json":
        return (f'{{\n  "wm": {_json_block("    %r", [env.wm], 1)},\n'
                f'  "wsd": {_json_block("    %r", [env.wsd], 1)},\n'
                f'  "vertices": '
                f'{_json_block(_json_pair("%r", 2), [env.vertex_images], 1)}'
                f'\n}}\n')
    return ("section,wm,wsd\n"
            + _rows("envelope,%.6f,%.6f\n", [env.wm, env.wsd])
            + _rows("vertex,%.6f,%.6f\n", [env.vertex_images]))


def _plot_points(matrix: DecisionMatrix, w: WeightVector,
                 style: str) -> tuple:
    wm, wsd = plane_coordinates(
        utility_array(matrix.values, matrix.criteria), w)
    return tuple((alt_id, WmsdPoint(a, b), style) for alt_id, a, b
                 in zip(matrix.ids, wm.tolist(), wsd.tolist()))


def _plot_spec(matrix: DecisionMatrix, config: RunConfig,
               kind: AggregationKind, weighted: bool,
               args: argparse.Namespace) -> PlotSpec:
    w = config.weight_vector if weighted else uniform_weights(len(config.criteria))
    return PlotSpec(
        weights=w, kind=kind, points=_plot_points(matrix, w, SOLID),
        grid=args.grid, show_isolines=tuple(args.isolines),
        labels=args.labels, force=args.force)


def _load_config(path, args) -> RunConfig:
    return _apply_overrides(
        parse_config(Path(path).read_text(encoding="utf-8")), args)


def cmd_plot(args: argparse.Namespace) -> str:
    configs = [_load_config(p, args) for p in args.config]
    data_text = Path(args.data).read_text(encoding="utf-8")

    if args.overlay is not None:
        config = configs[0]
        kind = _effective_kind(args, config)
        weighted = _effective_weighted(args, config)
        w = config.weight_vector if weighted \
            else uniform_weights(len(config.criteria))
        matrix_a = read_matrix(data_text, config)
        matrix_b = read_matrix(Path(args.overlay).read_text(encoding="utf-8"),
                               config)
        if set(matrix_a.ids) != set(matrix_b.ids):
            diff = sorted(set(matrix_a.ids) ^ set(matrix_b.ids))
            raise IdSetMismatch(
                f"overlay ids differ from dataset ids: {diff}")
        base = PlotSpec(weights=w, kind=kind, points=(), grid=args.grid,
                        show_isolines=tuple(args.isolines),
                        labels=args.labels, force=args.force)
        snap_a = [(pid, p) for pid, p, _ in _plot_points(matrix_a, w, SOLID)]
        snap_b = [(pid, p) for pid, p, _ in _plot_points(matrix_b, w, SOLID)]
        return render_overlay(base, snap_a, snap_b)

    specs = []
    for config in configs:
        matrix = read_matrix(data_text, config)
        kind = _effective_kind(args, config)
        weighted = _effective_weighted(args, config)
        specs.append(_plot_spec(matrix, config, kind, weighted, args))
    if len(specs) == 1:
        return render_wmsd_plot(specs[0])
    return render_panel_grid(specs, columns=args.columns)


def cmd_compare(args: argparse.Namespace) -> str:
    config_a = _load_config(args.config[0], args)
    config_b = _load_config(args.config_b, args)
    data_text = Path(args.data).read_text(encoding="utf-8")
    matrix_a = read_matrix(data_text, config_a)
    matrix_b = read_matrix(data_text, config_b)

    rankings = []
    for matrix, config in ((matrix_a, config_a), (matrix_b, config_b)):
        kind = _effective_kind(args, config)
        weighted = _effective_weighted(args, config)
        tie = args.tie_tol if args.tie_tol is not None else config.tie_tolerance
        rankings.append(rank_array(
            matrix.ids,
            _scores(matrix, config.weight_vector, kind, weighted), tie))
    ra, rb = rankings
    cmp = compare_rankings(ra, rb)

    # b's row of each id, in a's order; deltas are cmp.deltas as an array
    b_at = dict(zip(rb.ids, range(len(rb.ids))))
    b_order = np.array([b_at[i] for i in ra.ids], dtype=np.intp)
    ranks_b = rb.ranks[b_order]
    deltas = ranks_b - ra.ranks
    if args.format == "csv":
        revs = list(zip(*cmp.reversals)) or [(), ()]
        return ("id,score_a,rank_a,score_b,rank_b,delta\n"
                + _rows("%s,%.6f,%d,%.6f,%d,%d\n",
                        [_csv_fields(ra.ids), ra.scores, ra.ranks,
                         rb.scores[b_order], ranks_b, deltas])
                + _rows("# kendall_tau=%.6f\n", [[cmp.kendall_tau]])
                + _rows("# reversal=%s,%s\n", revs))
    tau = ("null" if math.isnan(cmp.kendall_tau)
           else repr(round(cmp.kendall_tau, 6)))
    revs = [list(map(_json_str, c)) for c in zip(*cmp.reversals)] or [[], []]
    deltas_json = _json_block("    %s: %d",
                              [list(map(_json_str, ra.ids)), deltas], 1, "{}")
    return (f'{{\n  "ranking_a": {_entries_json(ra, 1)},\n'
            f'  "ranking_b": {_entries_json(rb, 1)},\n'
            f'  "deltas": {deltas_json},\n'
            f'  "kendall_tau": {tau},\n'
            f'  "reversals": {_json_block(_json_pair("%s", 2), revs, 1)}'
            f'\n}}\n')


def _effective_kind(args, config: RunConfig) -> AggregationKind:
    if getattr(args, "aggregation", None):
        return AggregationKind(args.aggregation)
    return config.aggregation


def _effective_weighted(args, config: RunConfig) -> bool:
    if getattr(args, "unweighted", False):
        return False
    return config.weighted


def _levels(text: str) -> list[float]:
    if not text:
        return []
    try:
        return [float(t) for t in text.split(",")]
    except ValueError:
        raise SchemaError(f"cannot parse isoline levels {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wmsdspace",
        description="TOPSIS rankings with 2-D (WM, WSD) explanations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=True, fmt=("csv", "json"), default_fmt="csv"):
        if data:
            p.add_argument("--data", required=True, help="dataset CSV")
        p.add_argument("--config", action="append", required=True,
                       help="JSON config (repeatable for plot panels)")
        p.add_argument("--out", default=None, help="output file (stdout "
                       "when omitted)")
        p.add_argument("--format", choices=fmt, default=default_fmt)
        p.add_argument("--aggregation", choices=["I", "A", "R"], default=None)
        p.add_argument("--unweighted", action="store_true",
                       help="score with all criteria equally important")
        p.add_argument("--clamp", action="store_true",
                       help="clamp out-of-domain values to the bounds")
        p.add_argument("--tie-tol", type=float, default=None, dest="tie_tol")

    p_rank = sub.add_parser("rank", help="score and rank alternatives")
    common(p_rank)

    p_tr = sub.add_parser("transform",
                          help="full coordinate table per alternative")
    common(p_tr)

    p_bd = sub.add_parser("boundary",
                          help="attainable-region envelope as CSV/JSON")
    common(p_bd, data=False)
    p_bd.add_argument("--resolution", type=int, default=512)

    p_plot = sub.add_parser("plot", help="SVG plot of the plane")
    common(p_plot, fmt=("svg",), default_fmt="svg")
    p_plot.add_argument("--grid", type=int, default=128,
                        help="color-field resolution: cells across, from "
                             f"16 to {MAX_GRID} (default 128)")
    p_plot.add_argument("--columns", type=int, default=2,
                        help="panel-grid columns for repeated --config")
    p_plot.add_argument("--overlay", default=None,
                        help="second snapshot CSV; draws arrows")
    p_plot.add_argument("--isolines", type=_levels, default=[],
                        help="comma-separated aggregation levels")
    p_plot.add_argument("--labels", action="store_true")
    p_plot.add_argument("--force", action="store_true",
                        help="plot points even if unattainable")

    p_cmp = sub.add_parser("compare",
                           help="compare rankings under two configs")
    common(p_cmp, fmt=("csv", "json"), default_fmt="json")
    p_cmp.add_argument("--config-b", required=True, dest="config_b")
    return parser


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    clamp = config.clamp or getattr(args, "clamp", False)
    if clamp == config.clamp:
        return config
    return RunConfig(criteria=config.criteria,
                     weight_vector=config.weight_vector,
                     aggregation=config.aggregation, weighted=config.weighted,
                     tie_tolerance=config.tie_tolerance, clamp=clamp)


def _validate_args(args: argparse.Namespace) -> None:
    if getattr(args, "grid", 16) < 16:
        raise SchemaError("--grid must be at least 16")
    if getattr(args, "grid", 16) > MAX_GRID:
        raise SchemaError(f"--grid must be at most {MAX_GRID}")
    if getattr(args, "columns", 1) < 1:
        raise SchemaError("--columns must be positive")
    if getattr(args, "resolution", 2) < 2:
        raise SchemaError("--resolution must be at least 2")
    if getattr(args, "tie_tol", None) is not None \
            and not 0 <= args.tie_tol < math.inf:
        raise SchemaError("--tie-tol must be a finite non-negative number")


def _dispatch(args: argparse.Namespace) -> str:
    _validate_args(args)
    if args.command == "plot":
        return cmd_plot(args)
    if args.command == "compare":
        return cmd_compare(args)

    config = _load_config(args.config[0], args)
    if args.command == "boundary":
        return cmd_boundary(config, args.resolution, args.format)

    matrix = read_matrix(Path(args.data).read_text(encoding="utf-8"), config)
    kind = _effective_kind(args, config)
    weighted = _effective_weighted(args, config)
    if args.command == "rank":
        tie = args.tie_tol if args.tie_tol is not None else config.tie_tolerance
        return cmd_rank(matrix, config, kind, weighted, tie, args.format)
    if args.command == "transform":
        return cmd_transform(matrix, config, args.format)
    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = _dispatch(args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            Path(args.out).write_text(text, encoding="utf-8")
    except ValidationError as e:
        sys.stderr.write(json.dumps(e.details(), sort_keys=True) + "\n")
        return 1
    except WmsdError as e:
        sys.stderr.write(json.dumps(e.details(), sort_keys=True) + "\n")
        return 2
    except OSError as e:
        sys.stderr.write(json.dumps(
            {"error": "IOError", "message": str(e)}, sort_keys=True) + "\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
