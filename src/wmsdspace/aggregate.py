"""TOPSIS aggregations, rankings with ties, and ranking comparison.

Three classic aggregations are supported, each scaled to [0, 1] and
maximized: I (closeness to the ideal), A (distance from the anti-ideal),
and R (relative closeness, the usual TOPSIS score).  Every one of them
is a function of an alternative's (WM, WSD) plane coordinates and
mean(w) alone, so :func:`agg_values` scores the output of
:func:`wmsdspace.wmsd.plane`; unweighted scoring is the same under
all-ones weights.  Rankings are computed on score arrays by
:func:`rank_array` and compared by :func:`compare_rankings`.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from typing import Sequence

import numpy as np

from .errors import (
    DuplicateName,
    IdSetMismatch,
    LengthMismatch,
    NonFiniteScore,
    ValidationError,
)
from .model import _Record, _block_rows

# Scores within this of their group leader's share its rank by default.
DEFAULT_TIE_TOLERANCE = 1e-9


class AggregationKind(str, enum.Enum):
    I = "I"
    A = "A"
    R = "R"

    def __str__(self) -> str:
        return self.value


def agg_values(kind: AggregationKind, wm, wsd, mean_w: float):
    """Aggregation of plane points: the library's one scoring path.

    ``wm`` and ``wsd`` may be scalars or arrays.  The distances to the
    anti-ideal and ideal images, divided by ``s``, are
    hypot(WM, WSD) and hypot(mean(w) - WM, WSD).  R's denominator is
    always positive: both distances vanish only if the anti-ideal and
    ideal images coincide, which mean(w) > 0 rules out.
    """
    kind = AggregationKind(kind)
    wm = np.asarray(wm, dtype=float)
    if kind is AggregationKind.A:
        return np.hypot(wm, wsd) / mean_w
    d_ideal = np.hypot(mean_w - wm, wsd)
    if kind is AggregationKind.I:
        return 1.0 - d_ideal / mean_w
    d_anti = np.hypot(wm, wsd)
    return d_anti / (d_ideal + d_anti)


class Ranking(_Record):
    """Scores sorted non-increasing, with competition ranks (1, 2, 2, 4).

    ``ids``, ``scores`` and ``ranks`` are aligned and in rank order.  Ids
    whose scores differ from their group leader's by at most the tie
    tolerance share the leader's rank, so each indifference group is a
    run of equal ranks; ``group_numbers`` numbers the runs from 1.
    """

    def __init__(self, ids: tuple[str, ...], scores: np.ndarray,
                 ranks: np.ndarray):
        vars(self).update(ids=ids, scores=scores, ranks=ranks)

    @property
    def group_numbers(self) -> np.ndarray:
        starts = np.diff(self.ranks, prepend=0) != 0
        return np.cumsum(starts)

    def position(self, alt_id: str) -> int:
        """The rank of ``alt_id``; an id held more than once has none."""
        try:
            k = self.ids.index(alt_id)
        except ValueError:
            raise KeyError(alt_id) from None
        if self.ids.count(alt_id) > 1:
            raise DuplicateName(f"id {alt_id!r} occurs more than once in "
                                f"the ranking")
        return int(self.ranks[k])


def rank_array(ids: Sequence[str], scores: np.ndarray,
               tie_tolerance: float = DEFAULT_TIE_TOLERANCE) -> Ranking:
    """Order alternatives by score, grouping near-equal scores as ties.

    ``scores[k]`` is the score of ``ids[k]``, and scores of any shape
    but ``(len(ids),)`` are refused.  Exact ties keep their input order.
    A new group starts when a score drops more than ``tie_tolerance``
    below the group leader's score.  The tolerance must be finite and
    non-negative.  Repeated ids are kept, each with its own score and
    rank; :meth:`Ranking.position` and :func:`compare_rankings` refuse
    them.
    """
    if not 0 <= tie_tolerance < math.inf:
        raise ValidationError(f"tie_tolerance must be finite and "
                              f"non-negative, got {tie_tolerance}")
    scores = np.asarray(scores, dtype=float)
    if scores.shape != (len(ids),):
        raise LengthMismatch(
            f"{len(ids)} ids and scores of shape {scores.shape}")
    bad = ~np.isfinite(scores)
    if bad.any():
        k = int(np.argmax(bad))
        raise NonFiniteScore(f"score of {ids[k]!r} is {float(scores[k])}")
    # numpy's default sort is the fastest and not stable, so each run of
    # equal scores is put back in input order afterwards.
    order = np.argsort(-scores)
    ranked = scores[order]
    # same[p]: position p holds the score of position p - 1
    same = np.concatenate([[False], ranked[1:] == ranked[:-1], [False]])
    if same.any():
        tied = np.flatnonzero(same[:-1] | same[1:])
        run = np.cumsum(~same[:-1])[tied]
        order[tied] = order[tied][np.lexsort((order[tied], run))]
        ranked[tied] = scores[order[tied]]  # 0.0 and -0.0 are equal
    # A score more than the tolerance below its predecessor is more than
    # the tolerance below any earlier leader, so it starts a group.  Only
    # runs of close gaps need the sequential leader rule.
    start = np.ones(ranked.size, dtype=bool)
    start[1:] = ranked[:-1] - ranked[1:] > tie_tolerance
    close = np.flatnonzero(~start)
    if close.size:
        firsts = close[np.diff(close, prepend=-2) != 1]
        lasts = close[np.append(np.diff(close) != 1, True)]
        # The first score of a run is close to its leader, the group start
        # just before the run, so a run of one gap needs no check.
        longer = lasts > firsts
        late = []
        for first, last in zip(firsts[longer].tolist(),
                               lasts[longer].tolist()):
            leader, *vals = ranked[first - 1:last + 1].tolist()
            for pos, val in enumerate(vals, first):
                if leader - val > tie_tolerance:
                    leader = val
                    late.append(pos)
        start[late] = True
    ranks = np.maximum.accumulate(
        np.where(start, np.arange(1, ranked.size + 1), 0))
    ranks.flags.writeable = ranked.flags.writeable = False
    return Ranking(ids=tuple(np.array(ids, dtype=object)[order].tolist()),
                   scores=ranked, ranks=ranks)


class RankingComparison(_Record):
    """Per-id rank shifts between two rankings of the same ids.

    Rows are those of the first ranking.  ``order[k]`` is the row of the
    second ranking that holds the id of row k, and ``deltas[k]`` is that
    id's (rank in second) - (rank in first); positive means it dropped.
    ``reversals`` has one row ``(i, j)`` per pair whose strict relative
    order flips, ``i`` the one better in the first ranking; pairs tied
    in either ranking do not count.
    ``kendall_tau`` is the tau-b correlation of the two rank vectors,
    which corrects for tied pairs (Knight 1966, as in scipy).  Of the
    n0 = m(m-1)/2 pairs, n1 are tied in the first ranking, n2 in the
    second and n3 in both; the discordant pairs are the reversals, so
    tau-b = (n0 - n1 - n2 + n3 - 2 * len(reversals))
    / sqrt((n0 - n1) * (n0 - n2)), and NaN when the denominator is 0
    (fewer than two ids, or a ranking that is one tie).
    """

    def __init__(self, order: np.ndarray, deltas: np.ndarray,
                 kendall_tau: float, reversals: np.ndarray):
        vars(self).update(order=order, deltas=deltas,
                          kendall_tau=kendall_tau, reversals=reversals)


def compare_rankings(r1: Ranking, r2: Ranking) -> RankingComparison:
    """Compare two rankings that hold the same ids, each once."""
    row2 = dict(zip(r2.ids, range(len(r2.ids))))
    # With no miss and equal lengths, every entry of row2 was popped.
    order = np.array([row2.pop(i, -1) for i in r1.ids], dtype=np.intp)
    if len(r1.ids) != len(r2.ids) or (order < 0).any():
        raise _id_mismatch(r1.ids, r2.ids)
    ranks = np.column_stack([r1.ranks, r2.ranks[order]])
    deltas = ranks[:, 1] - ranks[:, 0]
    reversals = _reversals(ranks)
    n0 = len(ranks) * (len(ranks) - 1) // 2
    n1 = _tied_pairs(ranks[:, 0])
    n2 = _tied_pairs(ranks[:, 1])
    # Ranks run from 1 to m, so one key per pair of ranks.
    n3 = _tied_pairs(ranks[:, 0] * (len(ranks) + 1) + ranks[:, 1])
    denom = (n0 - n1) * (n0 - n2)
    if denom == 0:
        tau = math.nan
    else:
        tau = (n0 - n1 - n2 + n3 - 2 * len(reversals)) / math.sqrt(denom)
        tau = min(1.0, max(-1.0, tau))
    for a in (order, deltas, reversals):
        a.flags.writeable = False
    return RankingComparison(order=order, deltas=deltas, kendall_tau=tau,
                             reversals=reversals)


def _reversals(ranks: np.ndarray) -> np.ndarray:
    """Row pairs ``i < j`` whose two ranks order them strictly and
    oppositely, in row-major order, each as (better in the first
    ranking, other).

    Rows must come in the first ranking's order, as
    :func:`compare_rankings` passes them: ``ranks[:, 0]`` never
    decreases, so row ``i`` is the better one of a reversed pair, and
    the pair is reversed exactly when ``ranks[i, 0] < ranks[j, 0]`` and
    ``ranks[i, 1] > ranks[j, 1]``.  Rows are taken in blocks whose
    pairs, one rank's bytes each, fit the budget ``model._BLOCK_BYTES``.
    """
    m = len(ranks)
    step = _block_rows(ranks.itemsize * m)
    pairs = [np.empty((0, 2), dtype=np.intp)]
    for a in range(0, m, step):
        # A column j <= i fails the first test: ranks[:, 0] never decreases.
        flip = ((ranks[a:a + step, None, 0] < ranks[None, a:, 0])
                & (ranks[a:a + step, None, 1] > ranks[None, a:, 1]))
        pairs.append(np.argwhere(flip) + a)
    return np.concatenate(pairs)


def _id_mismatch(ids1: tuple[str, ...],
                 ids2: tuple[str, ...]) -> IdSetMismatch:
    """The error for rankings that do not hold the same ids, each once."""
    missing = sorted(set(ids1) ^ set(ids2))
    if missing:
        return IdSetMismatch(f"rankings cover different ids: {missing}")
    for ids, which in ((ids1, "first"), (ids2, "second")):
        repeated = [i for i, count in Counter(ids).items() if count > 1]
        if repeated:
            return IdSetMismatch(f"id {repeated[0]!r} occurs more than once "
                                 f"in the {which} ranking")


def _tied_pairs(keys: np.ndarray) -> int:
    """Number of unordered pairs of equal entries of a 1-D array."""
    counts = np.unique(keys, return_counts=True)[1]
    return int((counts * (counts - 1) // 2).sum())
