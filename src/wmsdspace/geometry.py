"""Attainable region of the (WM, WSD) plane and aggregation isolines.

For a fixed weight vector only a bounded region of the plane is
attainable: WM ranges over [0, mean(w)] and, at each WM, WSD ranges from
0 (the image of the main diagonal of the weighted box) up to an envelope
that depends on the weights.

The envelope is computed exactly.  Fixing WM fixes the dot product
``v . w = c``, so the maximal WSD at that WM maximizes ``|v|^2`` over the
slice of the weighted hyperrectangle cut by the hyperplane ``v . w = c``.
A convex function attains its maximum at a vertex of the slice polytope,
and every such vertex lies on an edge of the hyperrectangle, i.e. all
coordinates sit at a bound (0 or w_i) except at most one.  An edge is
therefore characterized by its free index ``j`` and the subset sum
``q = sum(w_i^2)`` over coordinates held at their upper bound, and along
it ``v . w = q + alpha * w_j`` and ``|v|^2 = q + alpha^2`` with
``alpha in [0, w_j]``.  For fixed ``c`` the candidate value
``q + ((c - q) / w_j)^2`` is convex in ``q``, so only the smallest and
largest feasible subset sums need to be inspected; with the subset sums
of each "all but j" weight multiset precomputed and sorted, evaluating the
envelope at any WM costs two binary searches per distinct weight value.
:func:`isoline` needs none of it: each level set is a circle centered on
the WM axis, given by its center and radius.

:func:`attainable` screens points before it evaluates the envelope.  In
units of mean(w)^2 the squared envelope is X(tau) at tau = WM / mean(w),
and X has slope at most 2: sliding the maximizing box point v toward the
ideal corner w (or toward 0) by a fraction lam moves tau by
lam (1 - tau) (or lam tau) and keeps (1 - lam)^2 of X(tau) <= tau (1 - tau),
since |v|^2 <= v . w in the box.  The computed envelope is within E
(:func:`_envelope_error`) of X, so the outline, the envelope at
``_OUTLINE`` evenly spaced WM values, bounds it from below and above at
every WM.  A point the acceptance test takes against the lower bound is
inside, one it refuses against the upper bound is outside, and only the
points between are evaluated: every answer is the exact envelope's.

A vertex of the box has its dot product with ``w`` equal to its squared
norm, so its image depends only on its subset sum ``q``: every vertex
image lies on the Thales semicircle over the segment from the anti-ideal
to the ideal image.  :func:`vertex_images` therefore works on the sorted
1-D array of subset sums: it rounds WM and WSD to 12 places, keeps the
order of the sorted sums, in which WM never decreases, and drops each row
equal to its predecessor, without forming or sorting a 2-D array of rows.

The edge tables of the two most recently used weight vectors are kept in
a ``functools.lru_cache``, at most 2 x 88 MiB at ``EXACT_LIMIT``.

The exact path enumerates 2^(n_p - 1) subset sums per distinct positive
weight and is capped at ``EXACT_LIMIT`` positive weights; beyond the cap
every function here that needs the edge tables raises
:class:`wmsdspace.errors.TooManyCriteria`.  A weight whose square
underflows to 0 adds exactly 0 to every dot product and squared norm, so
it is left out of the tables and does not count toward the cap.
"""

from __future__ import annotations

import functools
import math
import numpy as np

from .aggregate import AggregationKind
from .errors import LevelOutOfRange, TooManyCriteria
from .model import WeightVector, _Record

EXACT_LIMIT = 20
# WM values of the cached outline: ``envelope(w, _OUTLINE)`` and the
# screen of :func:`attainable` read one evaluation per weight vector.
_OUTLINE = 512
_EPS = float(np.finfo(float).eps)


class _EdgeTables(_Record):
    """Subset-sum machinery for one multiset of positive weights.

    ``norm2`` is the full subset sum, used instead of a separately
    computed squared norm so that ratios q / norm2 hit exactly 1.0 at the
    top vertex.  ``outlines`` maps mean(w) to the envelope at the
    ``_OUTLINE`` WM values from 0 to mean(w); weight vectors that differ
    only in zero weights share the tables, not the outline.
    """

    def __init__(self, norm2: float,
                 per_free: tuple[tuple[float, np.ndarray], ...],
                 vertex_sums: np.ndarray):
        vars(self).update(norm2=norm2, per_free=per_free,
                          vertex_sums=vertex_sums, outlines={})


def _subset_sums(values: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Fill ``sums`` (2^len(values) slots) with the sorted sums of all
    subsets of ``values`` (ascending input order) and return it.

    The sums double in place: after value k the first 2^(k+1) slots hold
    the sums of values 0..k, the upper half the lower half plus value k,
    so each sum adds its values in input order.
    """
    sums[0] = 0.0
    for k, x in enumerate(values.tolist()):
        np.add(sums[:1 << k], x, out=sums[1 << k:2 << k])
    sums.sort()
    return sums


def _edge_tables(w: WeightVector) -> _EdgeTables:
    # A square underflowing to 0 is dropped: the envelope divides by its root.
    sq = np.sort(w.weights) ** 2
    sq = sq[sq > 0]
    if sq.size > EXACT_LIMIT:
        raise TooManyCriteria(
            f"{sq.size} positive weights exceed the exact-envelope cap of "
            f"{EXACT_LIMIT}; drop criteria")
    # Keyed by the positive squares in ascending order: weight vectors that
    # differ only in order or in zero weights share one entry, and every
    # float derived from it is bit-identical under permutation.
    return _cached_tables(sq.tobytes())


# Two entries: a command reuses at most two weight vectors (a panel grid
# that alternates them), and at ``EXACT_LIMIT`` one entry takes 88 MiB.
# One block holds every table, so a large one is mapped in a few huge
# pages; each table is sorted on its own, as merge-doubling with subset
# masks and one argsort filtered per weight were slower at n_p = 16-20.
@functools.lru_cache(maxsize=2)
def _cached_tables(key: bytes) -> _EdgeTables:
    sq = np.frombuffer(key)
    _, first = np.unique(sq, return_index=True)
    half = 1 << (sq.size - 1)
    block = np.empty((first.size + 2) * half)
    per_free = tuple(
        (float(sq[idx]), _subset_sums(np.delete(sq, idx),
                                      block[i * half:(i + 1) * half]))
        for i, idx in enumerate(first.tolist()))
    vertex_sums = _subset_sums(sq, block[first.size * half:])
    return _EdgeTables(norm2=float(vertex_sums[-1]),
                       per_free=per_free, vertex_sums=vertex_sums)


def envelope_wsd(w: WeightVector, wm) -> np.ndarray:
    """Exact maximal WSD attainable at each of the given WM values.

    WM values are clipped into [0, mean(w)] before evaluation.
    """
    wm_arr = np.atleast_1d(np.asarray(wm, dtype=float))
    tables = _edge_tables(w)
    norm2 = tables.norm2
    mean_w = w.mean_w
    tau = np.clip(wm_arr / mean_w, 0.0, 1.0)  # normalized dot product
    c = tau * norm2

    best = np.full(c.shape, -np.inf)
    for wj2, qs in tables.per_free:
        wj = math.sqrt(wj2)
        i_lo = np.searchsorted(qs, c - wj2, side="left")
        i_hi = np.searchsorted(qs, c, side="right") - 1
        valid = i_lo <= i_hi
        for idx in (i_lo, i_hi):
            q = qs[np.clip(idx, 0, qs.size - 1)]
            alpha = np.clip((c - q) / wj, 0.0, wj)
            cand = q + alpha * alpha
            best = np.where(valid, np.maximum(best, cand), best)
    # The diagonal point v = tau * w is always attainable; use it where
    # no edge candidate was found (cannot happen in exact math).
    best = np.where(np.isneginf(best), c * tau, best)
    return mean_w * np.sqrt(np.maximum(best / norm2 - tau * tau, 0.0))


def vertex_images(w: WeightVector) -> np.ndarray:
    """Deduplicated (WM, WSD) images of the weighted box's vertices.

    A vertex has every coordinate at 0 or w_i, so its dot product and
    squared norm coincide: both equal the subset sum q of the squared
    weights held high, giving WM = mean(w) * q / |w|^2 and
    WSD = mean(w) * sqrt(t (1 - t)) with t = q / |w|^2, 1 - t taken from the
    complement's sum (the sums reversed), so it keeps its digits near t = 1.
    Both are rounded to 12 decimal places; rows are sorted by (WM, WSD) and
    duplicates dropped.  Every step from a subset sum to its rounded WM is
    monotone, so the sorted sums give the rows in WM order; only a run of
    equal rounded WM in which WSD falls (t > 1/2) is sorted again.
    """
    tables = _edge_tables(w)
    t = tables.vertex_sums / tables.norm2
    wm = np.round(w.mean_w * t, 12)
    wsd = np.round(w.mean_w * np.sqrt(t * t[::-1]), 12)
    tie = wm[1:] == wm[:-1]
    falls = np.flatnonzero(tie & (wsd[1:] < wsd[:-1]))
    if falls.size:
        run = np.cumsum(np.concatenate([[True], ~tie]))
        idx = np.flatnonzero(np.isin(run, run[falls]))
        wsd[idx] = wsd[idx[np.lexsort((wsd[idx], run[idx]))]]
    keep = np.ones(wm.size, dtype=bool)
    keep[1:] = ~tie | (wsd[1:] != wsd[:-1])
    rows = np.column_stack([wm[keep], wsd[keep]])
    rows.flags.writeable = False
    return rows


def envelope(w: WeightVector, resolution: int = _OUTLINE
             ) -> tuple[np.ndarray, np.ndarray]:
    """Exact upper envelope on a uniform WM grid from 0 to mean(w), as
    ``(wm, wsd)``; both ends sit on WSD = 0."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    grid = np.linspace(0.0, w.mean_w, resolution)
    vals = (_outline(w) if resolution == _OUTLINE
            else envelope_wsd(w, grid)).copy()
    vals[0] = 0.0
    vals[-1] = 0.0
    return grid, vals


def _outline(w: WeightVector) -> np.ndarray:
    """The envelope at the ``_OUTLINE`` evenly spaced WM values from 0 to
    mean(w), read-only, evaluated once and cached with the edge tables."""
    tables = _edge_tables(w)
    vals = tables.outlines.get(w.mean_w)
    if vals is None:
        vals = envelope_wsd(w, np.linspace(0.0, w.mean_w, _OUTLINE))
        vals.flags.writeable = False
        tables.outlines[w.mean_w] = vals
    return vals


def _envelope_error(n_p: int) -> float:
    """Bound E on |env^2 / mean(w)^2 - X(tau)|, where ``env`` is what
    :func:`envelope_wsd` computes at a WM whose rounded, clipped
    WM / mean(w) is tau, and X is the exact squared envelope of the box
    whose squared sides are the rounded squares (N their sum).

    With u = eps / 2, every table sum and ``norm2`` is within n_p u N of
    exact and c = tau norm2 within (n_p + 1) u N of tau N.  So each
    candidate is, within (n_p + 3) u N, the squared norm of an edge point
    whose dot product with w is within (2 n_p + 4) u N of tau N; with the
    slope 2 of X and of tau^2 it exceeds (X(tau) + tau^2) N by at most
    (10 n_p + 20) u N.  The best point of the exact slice is found as
    closely: its table sum lies inside the searched window, or it sits at
    a box vertex T with sum near c.  If T's float sum exceeds c, T less
    its largest weight, whose square that sum added last, passes that
    weight's window; otherwise T plus its largest missing weight does,
    unless every missing square is below the window error, and then
    X(tau) <= 1 - tau < (n_p + 1)(n_p + 2) eps.  The final division,
    square, difference and root add under 3 u.
    """
    return (n_p + 3) * (n_p + 4) * _EPS


def _screen(w: WeightVector, tau: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Floats ``lo <= env <= hi`` around the envelope that
    :func:`envelope_wsd` computes at each rounded, clipped
    tau = WM / mean(w), read from the cached outline: in units of
    mean(w)^2, the squared envelope at tau is within
    2 E + 2 |tau - tau_k| of the outline value at tau_k squared, for the
    outline values on both sides of tau, and 4 eps covers the roundings
    of this function.
    """
    mean_w = w.mean_w
    outline = _outline(w)
    grid_tau = np.clip(np.linspace(0.0, mean_w, _OUTLINE) / mean_w, 0.0, 1.0)
    k0 = np.minimum((tau * (_OUTLINE - 1)).astype(np.intp), _OUTLINE - 2)
    margin = 2.0 * _envelope_error(w.n_p) + 4.0 * _EPS
    scale = mean_w * mean_w
    lo2, hi2 = -np.inf, np.inf
    for k in (k0, k0 + 1):
        g = outline[k]
        band = scale * (2.0 * np.abs(tau - grid_tau[k]) + margin)
        lo2 = np.maximum(lo2, g * g - band)
        hi2 = np.minimum(hi2, g * g + band)
    return np.sqrt(np.maximum(lo2, 0.0)), np.sqrt(hi2)


def _accepted(wsd: np.ndarray, env: np.ndarray, tol: float,
              slack: float) -> np.ndarray:
    """The envelope test of :func:`attainable`; monotone in ``env``."""
    return (wsd <= env + tol) | (wsd * wsd <= env * env + slack)


def attainable(w: WeightVector, wm, wsd, tol: float = 1e-9) -> np.ndarray:
    """Whether each plane point lies inside the attainable region.

    True where WM is within [0, mean(w)] and WSD is within
    [0, envelope(WM)], each extended by ``tol``, or where WSD^2 is within
    (4n + 9) eps mean(w)^2 of envelope(WM)^2.  That slack bounds the
    rounding of tau = WM / mean(w), in which the squared envelope has
    slope at most 2, and of the squared envelope itself; near either end
    of the WM range, where the envelope is the root of a difference that
    cancels, it is far wider than ``tol``.
    ``wm`` and ``wsd`` are scalars or arrays that broadcast together;
    the result has their broadcast shape, at least 1-D.  The envelope is
    evaluated only for the points the outline screen leaves undecided,
    in WM order.
    """
    wm, wsd = np.broadcast_arrays(np.atleast_1d(np.asarray(wm, dtype=float)),
                                  np.asarray(wsd, dtype=float))
    shape = wm.shape
    wm, wsd = wm.ravel(), wsd.ravel()
    mean_w = w.mean_w
    slack = (4 * w.n + 9) * _EPS * mean_w ** 2
    inside = (wm >= -tol) & (wm <= mean_w + tol) & (wsd >= -tol)
    # Each rounding step of the test is monotone, so a point accepted
    # against lo is accepted against the envelope and a point refused
    # against hi is refused against it.
    tau = np.clip(np.where(inside, wm, 0.0) / mean_w, 0.0, 1.0)
    lo, hi = _screen(w, tau)
    inside &= _accepted(wsd, hi, tol, slack)
    band = np.flatnonzero(inside & ~_accepted(wsd, lo, tol, slack))
    if band.size:
        band = band[np.argsort(wm[band])]
        inside[band] = _accepted(wsd[band], envelope_wsd(w, wm[band]), tol,
                                 slack)
    return inside.reshape(shape)


class Isoline(_Record):
    """One level set of an aggregation, unclipped: ``shape`` "arc" is the
    circle of ``radius`` centered at (``center_wm``, 0), "segment" R's
    neutral line WM = ``center_wm`` and "point" (``center_wm``, 0)."""

    def __init__(self, kind: AggregationKind, level: float, shape: str,
                 center_wm: float, radius: float):
        vars(self).update(kind=kind, level=level, shape=shape,
                          center_wm=center_wm, radius=radius)


def isoline(kind: AggregationKind, level: float, w: WeightVector) -> Isoline:
    """Analytic level set of an aggregation in the plane.

    Each kind and level gives a center on the WM axis and a radius: A's
    circle is centered at the anti-ideal image (0, 0) with radius
    level * mean(w), I's at the ideal image (mean(w), 0) with radius
    (1 - level) * mean(w), and R's is the Apollonius circle of those two
    points with distance ratio level / (1 - level), of radius 0 at R's
    levels 0 and 1.  Radius 0 is a point, and R's level 0.5 (within
    1e-9) the vertical line WM = mean(w) / 2.  Only mean(w) is read.
    """
    kind = AggregationKind(kind)
    if not (math.isfinite(level) and 0.0 <= level <= 1.0):
        raise LevelOutOfRange(f"level must be in [0, 1], got {level}")
    mean_w = w.mean_w
    shape = "arc"
    if kind is AggregationKind.A:
        center, radius = 0.0, level * mean_w
    elif kind is AggregationKind.I:
        center, radius = mean_w, (1.0 - level) * mean_w
    elif abs(level - 0.5) < 1e-9:
        shape, center, radius = "segment", mean_w * 0.5, 0.0
    elif level in (0.0, 1.0):
        center, radius = (mean_w if level else 0.0), 0.0  # -0.0 gives +0.0
    else:
        k = level / (1.0 - level)
        k2 = k * k
        center, radius = k2 * mean_w / (k2 - 1.0), k * mean_w / abs(k2 - 1.0)
    if shape == "arc" and radius == 0.0:
        shape, radius = "point", 0.0
    return Isoline(kind=kind, level=level, shape=shape, center_wm=center,
                   radius=radius)
