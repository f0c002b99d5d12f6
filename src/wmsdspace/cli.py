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
from pathlib import Path

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
from .spaces import utility_array
from .wmsd import WmsdPoint, mean_sd, plane

DEFAULT_TIE_TOLERANCE = 1e-9

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
        for key in ("min", "max", "weight"):
            if not isinstance(entry[key], (int, float)) \
                    or isinstance(entry[key], bool):
                raise SchemaError(f"{key} must be a number",
                                  path=f"{path}.{key}")
        specs.append(CriterionSpec(
            name=entry["name"], v_min=float(entry["min"]),
            v_max=float(entry["max"]), kind=entry["kind"],
            raw_weight=float(entry["weight"])))

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
    tie_tolerance = doc.get("tie_tolerance", DEFAULT_TIE_TOLERANCE)
    if not isinstance(tie_tolerance, (int, float)) \
            or isinstance(tie_tolerance, bool) or tie_tolerance < 0:
        raise SchemaError("tie_tolerance must be a non-negative number",
                          path="tie_tolerance")

    try:
        weight_vector = normalize_weights([c.raw_weight for c in specs])
    except ValidationError as e:
        e.args = (f"criteria[*].weight: {e}",)
        raise
    return RunConfig(criteria=tuple(specs), weight_vector=weight_vector,
                     aggregation=AggregationKind(aggregation),
                     weighted=weighted, tie_tolerance=float(tie_tolerance),
                     clamp=clamp)


def read_matrix(csv_text: str, config: RunConfig) -> DecisionMatrix:
    """Parse a dataset CSV against the configured criteria."""
    reader = csv.reader(io.StringIO(csv_text))
    try:
        header = next(reader)
    except StopIteration:
        raise HeaderMismatch("dataset is empty; expected a header row")
    expected = ["id", *config.names]
    if header != expected:
        raise HeaderMismatch(
            f"header {header} does not match expected {expected}")
    rows = []
    r = 0  # 1-based data row: blank lines are not counted
    for record in reader:
        if not record:
            continue
        r += 1
        if len(record) != len(expected):
            raise HeaderMismatch(
                f"row {r}: expected {len(expected)} fields, "
                f"got {len(record)}")
        try:
            rows.append((record[0], list(map(float, record[1:]))))
        except ValueError:
            for name, cell in zip(config.names, record[1:]):
                try:
                    float(cell)
                except ValueError:
                    raise BadNumber(f"row {r}, column {name!r}: "
                                    f"cannot parse {cell!r} as a number",
                                    row=r, column=name) from None
    return DecisionMatrix.from_rows(rows, config.criteria, clamp=config.clamp)


def _scores(matrix: DecisionMatrix, w: WeightVector,
            kind: AggregationKind, weighted: bool) -> np.ndarray:
    """Scores of all alternatives, in matrix order, as one array."""
    if not weighted:
        w = uniform_weights(matrix.n)
    u = utility_array(matrix.values, matrix.criteria)
    return agg_rows(kind, u * w.weights, w)


def _r6(x: float) -> float:
    return round(float(x), 6)


def _ranking_rows(ranking: Ranking) -> list[dict]:
    return [{"id": i, "score": _r6(s), "rank": r, "group": g}
            for i, s, r, g in zip(ranking.ids, ranking.scores.tolist(),
                                  ranking.ranks.tolist(),
                                  ranking.group_numbers.tolist())]


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def cmd_rank(matrix: DecisionMatrix, config: RunConfig,
             kind: AggregationKind, weighted: bool, tie_tolerance: float,
             fmt: str) -> str:
    ranking = rank_array(
        matrix.ids, _scores(matrix, config.weight_vector, kind, weighted),
        tie_tolerance)
    if fmt == "json":
        return _json_text({"entries": _ranking_rows(ranking),
                           "groups": [list(g) for g in ranking.groups]})
    return _csv_text(["id", "score", "rank", "group"],
                     zip(ranking.ids,
                         [f"{x:.6f}" for x in ranking.scores.tolist()],
                         ranking.ranks.tolist(),
                         ranking.group_numbers.tolist()))


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
        + [agg_rows(k, v, w) for k in AggregationKind]).tolist()
    if fmt == "json":
        return _json_text([dict(zip(header, [alt_id, *map(_r6, row)]))
                           for alt_id, row in zip(matrix.ids, table)])
    return _csv_text(header, ([alt_id] + [f"{x:.6f}" for x in row]
                              for alt_id, row in zip(matrix.ids, table)))


def cmd_boundary(config: RunConfig, resolution: int, fmt: str) -> str:
    env = boundary(config.weight_vector, resolution)
    wm, wsd = env.wm.tolist(), env.wsd.tolist()
    vertices = env.vertex_images.tolist()
    if fmt == "json":
        return _json_text({
            "wm": [_r6(x) for x in wm],
            "wsd": [_r6(x) for x in wsd],
            "vertices": [[_r6(a), _r6(b)] for a, b in vertices],
        })
    # No field holds a comma, quote or newline, so plain joins give the
    # bytes csv.writer would.
    lines = ["section,wm,wsd"]
    lines += [f"envelope,{a:.6f},{b:.6f}" for a, b in zip(wm, wsd)]
    lines += [f"vertex,{a:.6f},{b:.6f}" for a, b in vertices]
    return "\n".join(lines) + "\n"


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

    if args.format == "csv":
        b_of = {i: (s, r) for i, s, r in zip(rb.ids, rb.scores.tolist(),
                                             rb.ranks.tolist())}
        rows = [[i, f"{s:.6f}", r, f"{b_of[i][0]:.6f}", b_of[i][1],
                 cmp.deltas[i]] for i, s, r in
                zip(ra.ids, ra.scores.tolist(), ra.ranks.tolist())]
        text = _csv_text(
            ["id", "score_a", "rank_a", "score_b", "rank_b", "delta"], rows)
        text += f"# kendall_tau={cmp.kendall_tau:.6f}\n"
        for a, b in cmp.reversals:
            text += f"# reversal={a},{b}\n"
        return text
    return _json_text({
        "ranking_a": _ranking_rows(ra),
        "ranking_b": _ranking_rows(rb),
        "deltas": {k: v for k, v in cmp.deltas.items()},
        "kendall_tau": (None if math.isnan(cmp.kendall_tau)
                        else _r6(cmp.kendall_tau)),
        "reversals": [list(p) for p in cmp.reversals],
    })


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
                        help="color-field resolution")
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
    if getattr(args, "columns", 1) < 1:
        raise SchemaError("--columns must be positive")
    if getattr(args, "resolution", 2) < 2:
        raise SchemaError("--resolution must be at least 2")
    if getattr(args, "tie_tol", None) is not None and args.tie_tol < 0:
        raise SchemaError("--tie-tol must be non-negative")


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
