"""Output checks, written independently of the package under test.

Scores, plane coordinates, ranks, Kendall tau-b and reversal counts are
recomputed here with plain numpy from the input files, so a check never
shares code with what it checks.  Every check raises
:class:`CheckFailed` with a short reason, or returns ``None``.
"""

from __future__ import annotations

import csv
import io
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

SCORE_TOL = 1e-6
TIE_TOL = 1e-9
# Printed values carry 6 decimals, so a quadratic form of them may be
# off by a few 1e-6 times mean(w).
DISC_TOL = 4e-6


class CheckFailed(Exception):
    pass


def _require(ok, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


class Problem:
    """A config and optional dataset, scored by textbook TOPSIS."""

    def __init__(self, config: str, data: str | None = None):
        doc = json.loads(Path(config).read_text(encoding="utf-8"))
        crit = doc["criteria"]
        self.kind = doc.get("aggregation", "R")
        self.weighted = doc.get("weighted", True)
        raw = np.array([c["weight"] for c in crit], dtype=float)
        self.w = raw / raw.max()
        self.lo = np.array([c["min"] for c in crit], dtype=float)
        self.hi = np.array([c["max"] for c in crit], dtype=float)
        self.cost = np.array([c["kind"] == "cost" for c in crit])
        if data is not None:
            rows = list(csv.reader(io.StringIO(
                Path(data).read_text(encoding="utf-8"))))[1:]
            rows = [r for r in rows if r]
            self.ids = [r[0] for r in rows]
            x = np.array([r[1:] for r in rows], dtype=float)
            span = self.hi - self.lo
            self.u = np.where(self.cost, (self.hi - x) / span,
                              (x - self.lo) / span)

    @property
    def mean_w(self) -> float:
        return float(self.w.mean())

    def plane(self, w: np.ndarray):
        """(WM, WSD) of every row under weights ``w``."""
        v = self.u * w
        s = np.linalg.norm(w) / w.mean()
        dots = v @ w
        wm = dots / (np.linalg.norm(w) * s)
        rej = v - np.outer(dots / (w @ w), w)
        return wm, np.linalg.norm(rej, axis=1) / s

    def scores(self, w: np.ndarray | None = None, kind: str | None = None):
        """I, A or R of every row; unweighted when ``w`` is all ones."""
        w = self.w if w is None else w
        kind = kind or self.kind
        v = self.u * w
        s = np.linalg.norm(w) / w.mean()
        d_ideal = np.linalg.norm(v - w, axis=1) / s
        d_anti = np.linalg.norm(v, axis=1) / s
        if kind == "I":
            return 1.0 - d_ideal / w.mean()
        if kind == "A":
            return d_anti / w.mean()
        return d_anti / (d_ideal + d_anti)

    def ranking(self):
        """Reference score, competition rank and group of every row.

        Ranks follow the leader rule: a row joins the current group
        while the group leader's score exceeds its own by at most
        ``TIE_TOL``.
        """
        sc = self.scores(self.w if self.weighted else np.ones_like(self.w))
        order = np.argsort(-sc, kind="stable")
        rank = np.empty(sc.size, dtype=np.int64)
        group = np.empty(sc.size, dtype=np.int64)
        leader = np.inf
        r = g = 0
        for pos, (i, s) in enumerate(zip(order.tolist(),
                                         sc[order].tolist()), start=1):
            if leader - s > TIE_TOL:
                leader, r, g = s, pos, g + 1
            rank[i], group[i] = r, g
        return sc, rank, group


def _check_ranking_rows(ids: list[str], scores, ranks, groups,
                        p: Problem) -> dict[str, int]:
    """Printed rows, in output order, against the reference ranking."""
    ref_score, ref_rank, ref_group = p.ranking()
    pos = {alt_id: i for i, alt_id in enumerate(p.ids)}
    _require(len(ids) == len(pos) and set(ids) == set(pos),
             "ids differ from the dataset")
    idx = np.array([pos[alt_id] for alt_id in ids])
    err = np.abs(np.asarray(scores, dtype=float) - ref_score[idx])
    _require(err.max() <= SCORE_TOL,
             f"score of {ids[int(err.argmax())]} is off by {err.max():.3g}")
    _require(np.all(np.diff(ref_score[idx]) <= 1e-12),
             "rows are out of score order")
    bad = np.flatnonzero((np.asarray(ranks) != ref_rank[idx])
                         | (np.asarray(groups) != ref_group[idx]))
    _require(bad.size == 0, f"{bad.size} rows with a wrong rank or group, "
             f"first {ids[bad[0]] if bad.size else ''}")
    return dict(zip(p.ids, ref_rank.tolist()))


def golden(stdout: Path, path: str) -> None:
    _require(stdout.read_bytes() == Path(path).read_bytes(),
             f"output differs from {Path(path).name}")


def rank(stdout: Path, data: str, config: str) -> None:
    rows = list(csv.reader(io.StringIO(stdout.read_text(encoding="utf-8"))))
    _require(rows[0] == ["id", "score", "rank", "group"], "bad header")
    ids, scores, ranks, groups = zip(*rows[1:])
    _check_ranking_rows(list(ids), np.array(scores, dtype=float),
                        np.array(ranks, dtype=np.int64),
                        np.array(groups, dtype=np.int64),
                        Problem(config, data))


def transform(stdout: Path, data: str, config: str) -> None:
    p = Problem(config, data)
    rows = list(csv.reader(io.StringIO(stdout.read_text(encoding="utf-8"))))
    _require([r[0] for r in rows[1:]] == p.ids, "ids or order differ")
    got = np.array([r[1:] for r in rows[1:]], dtype=float)
    ones = np.ones_like(p.w)
    m, sd = p.plane(ones)
    wm, wsd = p.plane(p.w)
    ref = np.column_stack(
        [p.u, p.u * p.w, m, sd, wm, wsd]
        + [p.scores(ones, k) for k in "IAR"]
        + [p.scores(p.w, k) for k in "IAR"])
    _require(got.shape == ref.shape, f"shape {got.shape} vs {ref.shape}")
    err = np.abs(got - ref)
    bad = np.unravel_index(np.argmax(err), err.shape)
    _require(err.max() <= SCORE_TOL,
             f"row {bad[0] + 1} column {rows[0][bad[1] + 1]} is off by "
             f"{err.max():.3g}")


def tau_b_and_reversals(ra: np.ndarray, rb: np.ndarray):
    """Kendall tau-b and the count of strictly reversed pairs, O(m^2)."""
    iu = np.triu_indices(ra.size, k=1)
    sa = np.sign(ra[:, None] - ra[None, :])[iu]
    sb = np.sign(rb[:, None] - rb[None, :])[iu]
    n0 = sa.size
    n1 = np.count_nonzero(sa == 0)
    n2 = np.count_nonzero(sb == 0)
    prod = sa * sb
    s = np.count_nonzero(prod > 0) - np.count_nonzero(prod < 0)
    return s / np.sqrt((n0 - n1) * (n0 - n2)), np.count_nonzero(prod < 0)


def compare(stdout: Path, data: str, config_a: str, config_b: str) -> None:
    doc = json.loads(stdout.read_text(encoding="utf-8"))
    ranks = []
    for key, cfg in (("ranking_a", config_a), ("ranking_b", config_b)):
        rows = doc[key]
        ranks.append(_check_ranking_rows(
            [e["id"] for e in rows], [e["score"] for e in rows],
            [e["rank"] for e in rows], [e["group"] for e in rows],
            Problem(cfg, data)))
    ra, rb = ranks
    ids = list(ra)
    for alt_id in ids:
        _require(doc["deltas"][alt_id] == rb[alt_id] - ra[alt_id],
                 f"delta of {alt_id}")
    tau, n_rev = tau_b_and_reversals(np.array([ra[i] for i in ids]),
                                     np.array([rb[i] for i in ids]))
    _require(abs(doc["kendall_tau"] - tau) <= SCORE_TOL,
             f"kendall_tau {doc['kendall_tau']} vs reference {tau:.6f}")
    pairs = {tuple(p) for p in doc["reversals"]}
    _require(len(pairs) == len(doc["reversals"]) == n_rev,
             f"{len(doc['reversals'])} reversals vs reference {n_rev}")
    for a, b in pairs:
        _require(ra[a] < ra[b] and rb[a] > rb[b], f"({a}, {b}) not reversed")


def boundary(stdout: Path, config: str, resolution: int) -> None:
    """Envelope inside the Thales disc, vertex images on its circle."""
    p = Problem(config)
    half = p.mean_w / 2.0
    rows = list(csv.reader(io.StringIO(stdout.read_text(encoding="utf-8"))))
    _require(rows[0] == ["section", "wm", "wsd"], "bad header")
    env = np.array([r[1:] for r in rows[1:] if r[0] == "envelope"], float)
    vtx = np.array([r[1:] for r in rows[1:] if r[0] == "vertex"], float)
    _require(len(env) + len(vtx) == len(rows) - 1, "unknown section")
    _require(len(env) == resolution, f"{len(env)} envelope rows")
    _require(np.allclose(env[:, 0], np.linspace(0, p.mean_w, resolution),
                         rtol=0, atol=SCORE_TOL), "envelope WM grid")
    _require(env[0, 1] == 0 and env[-1, 1] == 0 and env[:, 1].min() >= 0,
             "envelope WSD must be >= 0 and vanish at both ends")
    _require(np.all((env[:, 0] - half) ** 2 + env[:, 1] ** 2
                    <= half * half + DISC_TOL * p.mean_w),
             "envelope leaves the Thales disc")
    _require(np.all(np.abs((vtx[:, 0] - half) ** 2 + vtx[:, 1] ** 2
                           - half * half) <= DISC_TOL * p.mean_w),
             "vertex image off the Thales circle")
    # Vertex WM values are mean(w) * q / |w|^2 over the subset sums q of
    # the squared positive weights; both sets must cover each other.
    sums = np.zeros(1)
    for x in np.sort(p.w[p.w > 0]) ** 2:
        sums = np.concatenate([sums, sums + x])
    ref = np.unique(p.mean_w * sums / sums.max())
    got = np.unique(vtx[:, 0])
    for a, b in ((got, ref), (ref, got)):
        i = np.clip(np.searchsorted(b, a), 1, b.size - 1)
        gap = np.minimum(np.abs(a - b[i - 1]), np.abs(a - b[i]))
        _require(gap.max() <= SCORE_TOL, "vertex WM set differs from the "
                 "subset sums of the squared weights")


def svg(out: Path, markers: int) -> None:
    root = ET.fromstring(out.read_bytes())
    _require(root.tag == "{http://www.w3.org/2000/svg}svg", "not an SVG")
    found = sum(1 for e in root.iter("{http://www.w3.org/2000/svg}circle")
                if e.get("class") == "marker")
    _require(found == markers, f"{found} markers, expected {markers}")
