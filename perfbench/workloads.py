"""Seeded inputs and command lists for the three benchmark workloads.

Each workload is a list of CLI commands run one after another.  Inputs
are written by :func:`build` into a scratch directory from the seed
alone, so the same seed always gives byte-identical files.  Synthetic
data carries about 1% duplicate rows (exact score ties) and some cells
exactly at a domain bound (utilities of exactly 0 and 1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("fixtures-cli", "bulk-table", "geometry-plot")

# Sizes.  The roadmap's full grid (m = 1e6, n_p = 20) would take over a
# minute per command; these keep one pass of each workload to seconds.
BULK_N = 8
BULK_RANK_M = 100_000
BULK_TRANSFORM_M = 20_000
BULK_COMPARE_M = 1_000
GEO_BOUNDARY_NP = 18
GEO_PLOT_N = 12
GEO_PLOT_M = 2_000
GEO_OVERLAY_M = 1_000
GEO_GRID_M = 500
ISOLINES = "0.25,0.5,0.75"

DUPLICATE_SHARE = 0.01
BOUND_SHARE = 0.02


@dataclass
class Command:
    """One CLI call: its kind, its arguments and how to check its output.

    ``check`` names a function of :mod:`checks` and ``params`` are its
    keyword arguments.  ``out`` is the name, inside the input directory,
    of the file written through ``--out``; without it the command writes
    to stdout.
    """

    kind: str
    argv: list[str]
    check: str
    params: dict = field(default_factory=dict)
    out: str | None = None


def _write_config(path: Path, criteria: list[dict]) -> None:
    path.write_text(json.dumps({"criteria": criteria, "aggregation": "R"},
                               indent=1) + "\n", encoding="utf-8")


def _criteria(rng: np.random.Generator, n: int, n_cost: int = 0,
              zero_weight: bool = False) -> list[dict]:
    """Random domains and kinds; weights distinct and in [0.05, 1]."""
    lo = np.round(rng.uniform(-50.0, 50.0, n), 1)
    span = np.round(rng.uniform(1.0, 500.0, n), 1)
    kinds = np.array(["gain"] * n, dtype=object)
    kinds[rng.choice(n, size=n_cost, replace=False)] = "cost"
    weights = np.round(rng.uniform(0.05, 1.0, n), 4)
    if zero_weight:
        weights[rng.integers(n)] = 0.0
    hi = np.round(lo + span, 1)
    return [{"name": f"c{j + 1}", "kind": str(kinds[j]),
             "min": float(lo[j]), "max": float(hi[j]),
             "weight": float(weights[j])} for j in range(n)]


def _reweight(rng: np.random.Generator, criteria: list[dict]) -> list[dict]:
    """Same criteria under a second weight vector (zeros stay zero)."""
    out = []
    for c in criteria:
        w = c["weight"]
        if w > 0:
            w = float(np.round(np.clip(w * rng.uniform(0.5, 1.5),
                                       0.05, 1.0), 4))
        out.append(dict(c, weight=w))
    return out


def _values(rng: np.random.Generator, criteria: list[dict],
            m: int) -> np.ndarray:
    """Uniform in-domain values with bound cells and duplicate rows."""
    lo = np.array([c["min"] for c in criteria])
    hi = np.array([c["max"] for c in criteria])
    vals = np.round(lo + rng.random((m, lo.size)) * (hi - lo), 4)
    at_bound = rng.random(vals.shape) < BOUND_SHARE
    high = rng.random(vals.shape) < 0.5
    vals = np.where(at_bound, np.where(high, hi, lo), vals)
    n_dup = max(1, int(m * DUPLICATE_SHARE))
    dst = rng.choice(m, size=n_dup, replace=False)
    src = rng.choice(m, size=n_dup, replace=False)
    vals[dst] = vals[src]
    return vals


def _jitter(rng: np.random.Generator, criteria: list[dict],
            vals: np.ndarray) -> np.ndarray:
    """A second snapshot: each cell moved by up to 5% of its domain."""
    lo = np.array([c["min"] for c in criteria])
    hi = np.array([c["max"] for c in criteria])
    moved = vals + rng.uniform(-0.05, 0.05, vals.shape) * (hi - lo)
    return np.round(np.clip(moved, lo, hi), 4)


def _write_csv(path: Path, criteria: list[dict], vals: np.ndarray) -> None:
    lines = ["id," + ",".join(c["name"] for c in criteria)]
    width = len(str(len(vals)))
    for i, row in enumerate(vals.tolist()):
        lines.append(f"a{i:0{width}d}," + ",".join(map(repr, row)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _fixtures_cli(fixtures: Path, d: Path) -> list[Command]:
    """Every README CLI example plus the golden rank files."""
    f = str(fixtures)
    g = fixtures / "golden"
    cmds = []
    for k in (1, 2, 3, 4):
        cmds.append(Command(
            "rank", ["rank", "--data", f"{f}/countries.csv",
                     "--config", f"{f}/countries_w{k}.json"],
            "golden", {"path": str(g / f"countries_w{k}_rank.csv")}))
    cmds += [
        Command("transform",
                ["transform", "--data", f"{f}/students.csv",
                 "--config", f"{f}/students_config.json"],
                "golden", {"path": str(g / "students_transform.csv")}),
        Command("boundary",
                ["boundary", "--config", f"{f}/countries_w2.json",
                 "--resolution", "512"],
                "boundary", {"config": f"{f}/countries_w2.json",
                             "resolution": 512}),
        Command("plot",
                ["plot", "--data", f"{f}/students.csv",
                 "--config", f"{f}/students_config.json",
                 "--isolines", ISOLINES, "--labels",
                 "--out", str(d / "students.svg")],
                "svg", {"markers": 15}, out="students.svg"),
        Command("grid",
                ["plot", "--data", f"{f}/countries.csv"]
                + [a for k in (1, 2, 3, 4)
                   for a in ("--config", f"{f}/countries_w{k}.json")]
                + ["--columns", "2", "--out", str(d / "panels.svg")],
                "svg", {"markers": 48}, out="panels.svg"),
        Command("overlay",
                ["plot", "--data", f"{f}/countries_2019_subset.csv",
                 "--config", f"{f}/countries_w3.json",
                 "--overlay", f"{f}/countries_2023_synthetic.csv",
                 "--out", str(d / "overlay.svg")],
                "svg", {"markers": 8}, out="overlay.svg"),
        Command("compare",
                ["compare", "--data", f"{f}/countries.csv",
                 "--config", f"{f}/countries_w1.json",
                 "--config-b", f"{f}/countries_w2.json"],
                "compare", {"data": f"{f}/countries.csv",
                            "config_a": f"{f}/countries_w1.json",
                            "config_b": f"{f}/countries_w2.json"}),
    ]
    return cmds


def _bulk_table(rng: np.random.Generator, d: Path) -> list[Command]:
    crit_a = _criteria(rng, BULK_N, n_cost=3, zero_weight=True)
    crit_b = _reweight(rng, crit_a)
    _write_config(d / "bulk_a.json", crit_a)
    _write_config(d / "bulk_b.json", crit_b)
    for name, m in (("rank", BULK_RANK_M), ("transform", BULK_TRANSFORM_M),
                    ("compare", BULK_COMPARE_M)):
        _write_csv(d / f"bulk_{name}.csv", crit_a, _values(rng, crit_a, m))
    a, b = str(d / "bulk_a.json"), str(d / "bulk_b.json")
    return [
        Command("rank", ["rank", "--data", str(d / "bulk_rank.csv"),
                         "--config", a],
                "rank", {"data": str(d / "bulk_rank.csv"), "config": a}),
        Command("transform",
                ["transform", "--data", str(d / "bulk_transform.csv"),
                 "--config", a],
                "transform", {"data": str(d / "bulk_transform.csv"),
                              "config": a}),
        Command("compare",
                ["compare", "--data", str(d / "bulk_compare.csv"),
                 "--config", a, "--config-b", b],
                "compare", {"data": str(d / "bulk_compare.csv"),
                            "config_a": a, "config_b": b}),
    ]


def _geometry_plot(rng: np.random.Generator, d: Path) -> list[Command]:
    _write_config(d / "geo_np18.json", _criteria(rng, GEO_BOUNDARY_NP))
    crit_a = _criteria(rng, GEO_PLOT_N, n_cost=4)
    crit_b = _reweight(rng, crit_a)
    _write_config(d / "geo_a.json", crit_a)
    _write_config(d / "geo_b.json", crit_b)
    _write_csv(d / "geo_plot.csv", crit_a,
               _values(rng, crit_a, GEO_PLOT_M))
    snap = _values(rng, crit_a, GEO_OVERLAY_M)
    _write_csv(d / "geo_snap_a.csv", crit_a, snap)
    _write_csv(d / "geo_snap_b.csv", crit_a, _jitter(rng, crit_a, snap))
    _write_csv(d / "geo_grid.csv", crit_a, _values(rng, crit_a, GEO_GRID_M))
    a, b = str(d / "geo_a.json"), str(d / "geo_b.json")
    np18 = str(d / "geo_np18.json")
    return [
        Command("boundary",
                ["boundary", "--config", np18, "--resolution", "512"],
                "boundary", {"config": np18, "resolution": 512}),
        Command("plot",
                ["plot", "--data", str(d / "geo_plot.csv"), "--config", a,
                 "--isolines", ISOLINES, "--out", str(d / "geo_plot.svg")],
                "svg", {"markers": GEO_PLOT_M}, out="geo_plot.svg"),
        Command("overlay",
                ["plot", "--data", str(d / "geo_snap_a.csv"), "--config", a,
                 "--overlay", str(d / "geo_snap_b.csv"),
                 "--out", str(d / "geo_overlay.svg")],
                "svg", {"markers": 2 * GEO_OVERLAY_M},
                out="geo_overlay.svg"),
        Command("grid",
                ["plot", "--data", str(d / "geo_grid.csv"),
                 "--config", a, "--config", b, "--config", a, "--config", b,
                 "--columns", "2", "--out", str(d / "geo_grid.svg")],
                "svg", {"markers": 4 * GEO_GRID_M}, out="geo_grid.svg"),
    ]


def build(workload: str, seed: int, fixtures: Path,
          d: Path) -> list[Command]:
    """Write the workload's inputs into ``d``; return its command list."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "fixtures-cli":
        return _fixtures_cli(fixtures, d)
    if workload == "bulk-table":
        return _bulk_table(rng, d)
    return _geometry_plot(rng, d)
