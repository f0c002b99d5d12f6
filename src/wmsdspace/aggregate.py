"""TOPSIS aggregations, rankings with ties, and ranking comparison.

Three classic aggregations are supported, each scaled to [0, 1] and
maximized: I (closeness to the ideal), A (distance from the anti-ideal),
and R (relative closeness, the usual TOPSIS score).  Every aggregation
exists in three equivalent forms: unweighted on utility points, weighted
on weighted points, and as a function of the (WM, WSD) plane coordinates
plus mean(w).  The weighted form with all-ones weights equals the
unweighted form, and the plane form equals the weighted form for any
point, both up to floating noise.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import IdSetMismatch, NonFiniteScore
from .model import WeightVector
from .spaces import _coords
from .wmsd import WmsdPoint


class AggregationKind(str, enum.Enum):
    I = "I"
    A = "A"
    R = "R"

    def __str__(self) -> str:
        return self.value


def agg_values(kind: AggregationKind, wm, wsd, mean_w: float):
    """Vectorized aggregation over plane coordinates.

    ``wm`` and ``wsd`` may be scalars or arrays.  R's denominator is
    always positive: both distances vanish only if the anti-ideal and
    ideal images coincide, which mean(w) > 0 rules out.
    """
    kind = AggregationKind(kind)
    d_anti = np.hypot(wm, wsd)
    d_ideal = np.hypot(mean_w - np.asarray(wm, dtype=float), wsd)
    if kind is AggregationKind.I:
        return 1.0 - d_ideal / mean_w
    if kind is AggregationKind.A:
        return d_anti / mean_w
    return d_anti / (d_ideal + d_anti)


def agg_from_wmsd(kind: AggregationKind, p: WmsdPoint, mean_w: float) -> float:
    """Aggregation value of a plane point; equals the weighted form."""
    return float(agg_values(kind, p.wm, p.wsd, mean_w))


def agg_unweighted(kind: AggregationKind, u) -> float:
    """Aggregation of a utility point under equally important criteria."""
    kind = AggregationKind(kind)
    uc = _coords(u)
    root_n = math.sqrt(uc.size)
    d_ideal = float(np.linalg.norm(uc - 1.0)) / root_n
    d_anti = float(np.linalg.norm(uc)) / root_n
    if kind is AggregationKind.I:
        return 1.0 - d_ideal
    if kind is AggregationKind.A:
        return d_anti
    return d_anti / (d_ideal + d_anti)


def agg_weighted(kind: AggregationKind, v, w: WeightVector) -> float:
    """Aggregation of a weighted point, from distances in the box.

    This direct route is the primary scoring path; the plane form exists
    for cross-validation and rendering.
    """
    kind = AggregationKind(kind)
    vc = _coords(v)
    d_ideal = float(np.linalg.norm(vc - w.weights)) / w.s
    d_anti = float(np.linalg.norm(vc)) / w.s
    if kind is AggregationKind.I:
        return 1.0 - d_ideal / w.mean_w
    if kind is AggregationKind.A:
        return d_anti / w.mean_w
    return d_anti / (d_ideal + d_anti)


@dataclass(frozen=True)
class RankEntry:
    id: str
    score: float
    rank: int


@dataclass(frozen=True)
class Ranking:
    """Scores sorted non-increasing, with competition ranks (1, 2, 2, 4).

    ``groups`` partitions the ids into indifference groups in rank order;
    ids whose scores differ from the group leader by at most the tie
    tolerance share the leader's rank.
    """

    entries: tuple[RankEntry, ...]
    groups: tuple[tuple[str, ...], ...]

    def position(self, alt_id: str) -> int:
        for e in self.entries:
            if e.id == alt_id:
                return e.rank
        raise KeyError(alt_id)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.entries)


def rank(scores: Mapping[str, float] | Sequence[tuple[str, float]],
         tie_tolerance: float = 1e-9) -> Ranking:
    """Order alternatives by score, grouping near-equal scores as ties.

    Exact ties keep their input order.  A new group starts when a score
    drops more than ``tie_tolerance`` below the group leader's score.
    """
    items = list(scores.items()) if isinstance(scores, Mapping) else list(scores)
    for alt_id, score in items:
        if not math.isfinite(score):
            raise NonFiniteScore(f"score of {alt_id!r} is {score}")
    order = sorted(range(len(items)), key=lambda i: (-items[i][1], i))

    entries: list[RankEntry] = []
    groups: list[tuple[str, ...]] = []
    group: list[str] = []
    leader_score = math.inf
    leader_rank = 1
    for pos, i in enumerate(order, start=1):
        alt_id, score = items[i]
        if leader_score - score > tie_tolerance:
            if group:
                groups.append(tuple(group))
            group = []
            leader_score = score
            leader_rank = pos
        group.append(alt_id)
        entries.append(RankEntry(id=alt_id, score=score, rank=leader_rank))
    if group:
        groups.append(tuple(group))
    return Ranking(entries=tuple(entries), groups=tuple(groups))


@dataclass(frozen=True)
class RankingComparison:
    """Per-id rank shifts between two rankings of the same ids.

    ``deltas`` maps id to (rank in second) - (rank in first); positive
    means the alternative dropped.  ``reversals`` lists pairs whose strict
    relative order flips; pairs tied in either ranking do not count.
    ``kendall_tau`` is the tau-b correlation of the two rank vectors,
    which corrects for tied pairs (Knight 1966, as in scipy).  Of the
    n0 = m(m-1)/2 pairs, n1 are tied in the first ranking, n2 in the
    second and n3 in both; the discordant pairs are the reversals, so
    tau-b = (n0 - n1 - n2 + n3 - 2 * len(reversals))
    / sqrt((n0 - n1) * (n0 - n2)), and NaN when the denominator is 0
    (fewer than two ids, or a ranking that is one tie).
    """

    deltas: dict[str, int]
    kendall_tau: float
    reversals: tuple[tuple[str, str], ...]


def compare_rankings(r1: Ranking, r2: Ranking) -> RankingComparison:
    """Compare two rankings over the same set of alternatives."""
    ids1 = set(r1.ids)
    ids2 = set(r2.ids)
    if ids1 != ids2:
        missing = sorted(ids1 ^ ids2)
        raise IdSetMismatch(f"rankings cover different ids: {missing}")

    rank1 = {e.id: e.rank for e in r1.entries}
    rank2 = {e.id: e.rank for e in r2.entries}
    ordered = list(r1.ids)
    deltas = {alt_id: rank2[alt_id] - rank1[alt_id] for alt_id in ordered}

    reversals = []
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            d1 = rank1[a] - rank1[b]
            d2 = rank2[a] - rank2[b]
            if d1 * d2 < 0:
                pair = (a, b) if d1 < 0 else (b, a)
                reversals.append(pair)

    ranks = np.array([[rank1[i], rank2[i]] for i in ordered],
                     dtype=np.int64).reshape(-1, 2)
    n0 = len(ordered) * (len(ordered) - 1) // 2
    n1 = _tied_pairs(ranks[:, 0])
    n2 = _tied_pairs(ranks[:, 1])
    n3 = _tied_pairs(ranks)
    denom = (n0 - n1) * (n0 - n2)
    if denom == 0:
        tau = math.nan
    else:
        tau = (n0 - n1 - n2 + n3 - 2 * len(reversals)) / math.sqrt(denom)
        tau = min(1.0, max(-1.0, tau))
    return RankingComparison(deltas=deltas, kendall_tau=tau,
                             reversals=tuple(reversals))


def _tied_pairs(keys: np.ndarray) -> int:
    """Number of unordered pairs of equal entries (rows, for 2-D keys)."""
    counts = np.unique(keys, axis=0, return_counts=True)[1]
    return int((counts * (counts - 1) // 2).sum())
