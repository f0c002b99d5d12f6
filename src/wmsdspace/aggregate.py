"""TOPSIS aggregations, rankings with ties, and ranking comparison.

Three classic aggregations are supported, each scaled to [0, 1] and
maximized: I (closeness to the ideal), A (distance from the anti-ideal),
and R (relative closeness, the usual TOPSIS score).  One batched core,
:func:`agg_rows`, scores every row of an (m, n) array of weighted points
from its distances to the anti-ideal and ideal corners of the box;
unweighted scoring is that core under all-ones weights.
:func:`agg_values` gives the same aggregations from the (WM, WSD) plane
coordinates plus mean(w), equal to the core up to floating noise; the
renderer uses it to color the plane.  Rankings are computed on score
arrays by :func:`rank_array`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IdSetMismatch, NonFiniteScore
from .model import WeightVector, _frozen
from .spaces import _row_norms

# Pair differences per block in :func:`_reversals`: a few MB of arrays
# whatever the number of alternatives.
_PAIR_BLOCK = 1 << 18


class AggregationKind(str, enum.Enum):
    I = "I"
    A = "A"
    R = "R"

    def __str__(self) -> str:
        return self.value


def _combine(kind: AggregationKind, d_anti, d_ideal, mean_w: float):
    """I, A or R from the scaled distances to the anti-ideal and ideal."""
    if kind is AggregationKind.I:
        return 1.0 - d_ideal / mean_w
    if kind is AggregationKind.A:
        return d_anti / mean_w
    return d_anti / (d_ideal + d_anti)


def agg_rows(kind: AggregationKind, v: np.ndarray,
             w: WeightVector) -> np.ndarray:
    """Aggregation of every row of an (m, n) array of weighted points.

    The distances to the anti-ideal (all zeros) and the ideal (``w``
    itself) are measured in the box and divided by ``s``.  This is the
    primary scoring path; under :func:`uniform_weights` it is the
    unweighted aggregation of utility rows, bit for bit.
    """
    d_ideal = _row_norms(v - w.weights) / w.s
    d_anti = _row_norms(v) / w.s
    return _combine(AggregationKind(kind), d_anti, d_ideal, w.mean_w)


def agg_values(kind: AggregationKind, wm, wsd, mean_w: float):
    """Vectorized aggregation over plane coordinates.

    ``wm`` and ``wsd`` may be scalars or arrays.  R's denominator is
    always positive: both distances vanish only if the anti-ideal and
    ideal images coincide, which mean(w) > 0 rules out.
    """
    d_anti = np.hypot(wm, wsd)
    d_ideal = np.hypot(mean_w - np.asarray(wm, dtype=float), wsd)
    return _combine(AggregationKind(kind), d_anti, d_ideal, mean_w)


@dataclass(frozen=True, eq=False)
class Ranking:
    """Scores sorted non-increasing, with competition ranks (1, 2, 2, 4).

    ``ids``, ``scores`` and ``ranks`` are aligned and in rank order.  Ids
    whose scores differ from their group leader's by at most the tie
    tolerance share the leader's rank, so each indifference group is a
    run of equal ranks; ``group_numbers`` numbers the runs from 1.
    """

    ids: tuple[str, ...]
    scores: np.ndarray
    ranks: np.ndarray

    @property
    def group_numbers(self) -> np.ndarray:
        starts = np.diff(self.ranks, prepend=0) != 0
        return np.cumsum(starts)

    @property
    def groups(self) -> tuple[tuple[str, ...], ...]:
        """The ids partitioned into indifference groups, in rank order."""
        starts = np.flatnonzero(np.diff(self.ranks, prepend=0)).tolist()
        return tuple(self.ids[a:b]
                     for a, b in zip(starts, starts[1:] + [len(self.ids)]))

    def position(self, alt_id: str) -> int:
        try:
            return int(self.ranks[self.ids.index(alt_id)])
        except ValueError:
            raise KeyError(alt_id) from None


def rank_array(ids: Sequence[str], scores: np.ndarray,
               tie_tolerance: float = 1e-9) -> Ranking:
    """Order alternatives by score, grouping near-equal scores as ties.

    ``scores[k]`` is the score of ``ids[k]``.  Exact ties keep their
    input order.  A new group starts when a score drops more than
    ``tie_tolerance`` below the group leader's score.  The tolerance
    must be finite.
    """
    if not math.isfinite(tie_tolerance):
        raise ValueError(f"tie_tolerance must be finite, got {tie_tolerance}")
    scores = np.asarray(scores, dtype=float)
    bad = ~np.isfinite(scores)
    if bad.any():
        k = int(np.argmax(bad))
        raise NonFiniteScore(f"score of {ids[k]!r} is {float(scores[k])}")
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    # A score more than the tolerance below its predecessor is more than
    # the tolerance below any earlier leader, so it starts a group.  Only
    # runs of close gaps need the sequential leader rule.
    start = np.ones(ranked.size, dtype=bool)
    start[1:] = ranked[:-1] - ranked[1:] > tie_tolerance
    close = np.flatnonzero(~start)
    if close.size:
        firsts = close[np.diff(close, prepend=-2) != 1]
        lasts = close[np.append(np.diff(close) != 1, True)]
        vals = ranked.tolist()
        late = []
        for first, last in zip(firsts.tolist(), lasts.tolist()):
            leader = vals[first - 1]  # the group start just before the run
            for pos in range(first, last + 1):
                if leader - vals[pos] > tie_tolerance:
                    leader = vals[pos]
                    late.append(pos)
        start[late] = True
    ranks = np.maximum.accumulate(
        np.where(start, np.arange(1, ranked.size + 1), 0))
    ranks.flags.writeable = False
    return Ranking(ids=tuple(np.array(ids, dtype=object)[order].tolist()),
                   scores=_frozen(ranked), ranks=ranks)


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

    rank1 = dict(zip(r1.ids, r1.ranks.tolist()))
    rank2 = dict(zip(r2.ids, r2.ranks.tolist()))
    ordered = list(r1.ids)
    deltas = {alt_id: rank2[alt_id] - rank1[alt_id] for alt_id in ordered}

    ranks = np.array([[rank1[i], rank2[i]] for i in ordered],
                     dtype=np.int64).reshape(-1, 2)
    reversals = _reversals(ordered, ranks)
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
                             reversals=reversals)


def _reversals(ids: Sequence[str], ranks: np.ndarray
               ) -> tuple[tuple[str, str], ...]:
    """Pairs ``i < j`` whose two ranks order them strictly and oppositely,
    in row-major order, each as (better in the first ranking, other).

    Rows are taken ``_PAIR_BLOCK // m`` at a time, so each block of pair
    differences holds about ``_PAIR_BLOCK`` entries.
    """
    m = len(ids)
    ids_arr = np.array(ids, dtype=object)
    step = max(1, _PAIR_BLOCK // max(m, 1))
    firsts, seconds = [], []
    for a in range(0, m, step):
        b = min(a + step, m)
        d1 = ranks[a:b, None, 0] - ranks[None, a:, 0]
        d2 = ranks[a:b, None, 1] - ranks[None, a:, 1]
        flip = (d1 * d2 < 0) & (np.arange(a, m) > np.arange(a, b)[:, None])
        i, j = np.nonzero(flip)
        lead = d1[i, j] < 0
        i += a
        j += a
        firsts.append(ids_arr[np.where(lead, i, j)])
        seconds.append(ids_arr[np.where(lead, j, i)])
    if not firsts:
        return ()
    return tuple(zip(np.concatenate(firsts).tolist(),
                     np.concatenate(seconds).tolist()))


def _tied_pairs(keys: np.ndarray) -> int:
    """Number of unordered pairs of equal entries (rows, for 2-D keys)."""
    counts = np.unique(keys, axis=0, return_counts=True)[1]
    return int((counts * (counts - 1) // 2).sum())
