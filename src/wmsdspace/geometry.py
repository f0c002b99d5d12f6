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
:func:`attainable` tests a whole array of plane points against the region
with one envelope evaluation; :func:`is_attainable` and the isoline
clipping are views of it.

A vertex of the box has its dot product with ``w`` equal to its squared
norm, so its image depends only on its subset sum ``q``: every vertex
image lies on the Thales semicircle over the segment from the anti-ideal
to the ideal image.  :func:`vertex_images` therefore works on the sorted
1-D array of subset sums: it rounds WM and WSD to 12 places, sorts by
(WM, WSD) and drops each row equal to its predecessor, without forming
or sorting a 2-D array of rows.

The edge tables of recently used weight vectors are kept in an LRU cache
bounded by ``CACHE_BYTES``.

The exact path enumerates 2^(n_p - 1) subset sums per distinct positive
weight and is capped at ``EXACT_LIMIT`` positive weights; beyond the cap
:func:`boundary_sampled` provides a Monte-Carlo fallback that
underestimates the envelope and reports a crude looseness figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .aggregate import AggregationKind
from .errors import LevelOutOfRange, TooManyCriteria
from .model import WeightVector, _frozen
from .wmsd import WmsdPoint, plane

EXACT_LIMIT = 20
# Upper bound on the bytes of edge tables kept between calls; one
# n_p = 20 weight vector with distinct weights takes about 88 MiB.  The most recently built
# entry is kept even when it alone exceeds the bound.
CACHE_BYTES = 256 * 2**20


@dataclass(frozen=True, eq=False)
class _EdgeTables:
    """Subset-sum machinery for one multiset of positive weights.

    ``sq`` holds the squared weights in ascending order (the canonical
    order makes every derived float bit-identical under permutation of
    the input weights).  ``norm2`` is the full subset sum, used instead
    of a separately computed squared norm so that ratios q / norm2 hit
    exactly 1.0 at the top vertex.
    """

    sq: np.ndarray
    norm2: float
    per_free: tuple[tuple[float, np.ndarray], ...]
    vertex_sums: np.ndarray

    @property
    def nbytes(self) -> int:
        return (self.sq.nbytes + self.vertex_sums.nbytes
                + sum(qs.nbytes for _, qs in self.per_free))


class _TableCache:
    """Least-recently-used edge tables, bounded by the bytes they hold.

    Keys are the bytes of the sorted squared positive weights.  ``hits``
    counts lookups served from the cache and ``nbytes`` the bytes of the
    arrays currently held.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.entries: dict[bytes, _EdgeTables] = {}  # oldest use first
        self.nbytes = 0
        self.hits = 0

    def get(self, key: bytes) -> _EdgeTables | None:
        entry = self.entries.pop(key, None)
        if entry is not None:
            self.entries[key] = entry
            self.hits += 1
        return entry

    def put(self, key: bytes, entry: _EdgeTables) -> None:
        self.entries[key] = entry
        self.nbytes += entry.nbytes
        while self.nbytes > self.limit and len(self.entries) > 1:
            oldest = next(iter(self.entries))
            self.nbytes -= self.entries.pop(oldest).nbytes


_TABLE_CACHE = _TableCache(CACHE_BYTES)


def _subset_sums(values: np.ndarray) -> np.ndarray:
    """Sorted sums of all subsets of ``values`` (ascending input order)."""
    sums = np.zeros(1)
    for x in values:
        sums = np.concatenate([sums, sums + x])
    return np.sort(sums)


def _active_squares(w: WeightVector) -> np.ndarray:
    return np.sort(w.weights[w.weights > 0]) ** 2


def _edge_tables(w: WeightVector) -> _EdgeTables:
    sq = _active_squares(w)
    if sq.size > EXACT_LIMIT:
        raise TooManyCriteria(
            f"{sq.size} positive weights exceed the exact-envelope cap of "
            f"{EXACT_LIMIT}; drop criteria or use boundary_sampled")
    key = sq.tobytes()
    entry = _TABLE_CACHE.get(key)
    if entry is None:
        entry = _build_tables(sq)
        _TABLE_CACHE.put(key, entry)
    return entry


def _build_tables(sq: np.ndarray) -> _EdgeTables:
    per_free = []
    _, first = np.unique(sq, return_index=True)
    for idx in first:
        per_free.append((float(sq[idx]), _subset_sums(np.delete(sq, idx))))
    vertex_sums = _subset_sums(sq)
    return _EdgeTables(sq=sq, norm2=float(vertex_sums[-1]),
                       per_free=tuple(per_free), vertex_sums=vertex_sums)


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
    WSD = mean(w) * sqrt(t (1 - t)) with t = q / |w|^2.  Both are rounded
    to 12 decimal places; rows are sorted by (WM, WSD) and duplicates
    dropped.  WM is monotone in the sorted subset sums but WSD is not
    within rounded WM ties, hence the two-key sort.
    """
    tables = _edge_tables(w)
    t = tables.vertex_sums / tables.norm2
    wm = np.round(w.mean_w * t, 12)
    wsd = np.round(w.mean_w * np.sqrt(np.maximum(t * (1.0 - t), 0.0)), 12)
    order = np.lexsort((wsd, wm))
    wm, wsd = wm[order], wsd[order]
    keep = np.ones(wm.size, dtype=bool)
    keep[1:] = (wm[1:] != wm[:-1]) | (wsd[1:] != wsd[:-1])
    return _frozen(np.column_stack([wm[keep], wsd[keep]]))


@dataclass(frozen=True, eq=False)
class BoundaryEnvelope:
    """Sampled outline of the attainable region for one weight vector.

    ``wm`` is a uniform grid from 0 to mean(w); ``wsd`` holds the upper
    envelope at each grid point.  The lower boundary is the segment
    WSD = 0.  ``method`` is "exact" for the edge-enumeration path and
    "sampled" for the Monte-Carlo fallback, whose ``looseness`` reports
    the largest jump between adjacent envelope estimates (a crude bound
    on how far the estimate may sit below the true envelope).
    """

    wm: np.ndarray
    wsd: np.ndarray
    vertex_images: np.ndarray
    weights: WeightVector
    method: str = "exact"
    looseness: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "wm", _frozen(self.wm))
        object.__setattr__(self, "wsd", _frozen(self.wsd))


def envelope(w: WeightVector, resolution: int = 512
             ) -> tuple[np.ndarray, np.ndarray]:
    """Exact upper envelope on a uniform WM grid from 0 to mean(w), as
    ``(wm, wsd)``; both ends sit on WSD = 0."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    grid = np.linspace(0.0, w.mean_w, resolution)
    vals = envelope_wsd(w, grid)
    vals[0] = 0.0
    vals[-1] = 0.0
    return grid, vals


def boundary(w: WeightVector, resolution: int = 512) -> BoundaryEnvelope:
    """The :func:`envelope` plus the box's :func:`vertex_images`."""
    grid, vals = envelope(w, resolution)
    return BoundaryEnvelope(wm=grid, wsd=vals, vertex_images=vertex_images(w),
                            weights=w)


def attainable(w: WeightVector, wm, wsd, tol: float = 1e-9) -> np.ndarray:
    """Whether each plane point lies inside the attainable region.

    True where WM is within [0, mean(w)] and WSD is within
    [0, envelope(WM)], each extended by ``tol``.  ``wm`` and ``wsd`` are
    scalars or equal-shape arrays; the envelope is evaluated once for all
    points.  Returns a 1-D boolean array.
    """
    wm = np.atleast_1d(np.asarray(wm, dtype=float))
    wsd = np.atleast_1d(np.asarray(wsd, dtype=float))
    inside = (wm >= -tol) & (wm <= w.mean_w + tol) & (wsd >= -tol)
    return inside & (wsd <= envelope_wsd(w, wm) + tol)


def is_attainable(p: WmsdPoint | tuple, w: WeightVector,
                  tol: float = 1e-9) -> bool:
    """Whether one plane point lies inside the attainable region (see
    :func:`attainable`)."""
    wm_v, wsd_v = (p.wm, p.wsd) if isinstance(p, WmsdPoint) else (p[0], p[1])
    return bool(attainable(w, wm_v, wsd_v, tol)[0])


@dataclass(frozen=True, eq=False)
class Isoline:
    """One level set of an aggregation, clipped to the attainable region.

    ``shape`` is "arc" (circle centered on the WM axis), "segment" (the
    vertical neutrality line of R at level 0.5), or "point" (degenerate
    levels).  ``points`` holds the clipped samples as (WM, WSD) rows; it
    may be empty when the whole level set falls outside the region.
    """

    kind: AggregationKind
    level: float
    shape: str
    center_wm: float
    radius: float
    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _frozen(self.points))


def _clip_attainable(pts: np.ndarray, w: WeightVector,
                     tol: float = 1e-9) -> np.ndarray:
    if pts.size == 0:
        return pts.reshape(0, 2)
    return pts[attainable(w, pts[:, 0], pts[:, 1], tol)]


def isoline(kind: AggregationKind, level: float, w: WeightVector,
            samples: int = 181) -> Isoline:
    """Analytic level set of an aggregation in the plane.

    A-levels are circular arcs centered at the anti-ideal image (0, 0)
    with radius level * mean(w); I-levels are arcs centered at the ideal
    image (mean(w), 0) with radius (1 - level) * mean(w); R-levels are
    arcs of the Apollonius circle of those two points with distance ratio
    level / (1 - level), except level 0.5, whose locus is the vertical
    segment WM = mean(w) / 2.  Levels 0 and 1 degenerate to single
    points where the construction would divide by zero.
    """
    kind = AggregationKind(kind)
    if not (math.isfinite(level) and 0.0 <= level <= 1.0):
        raise LevelOutOfRange(f"level must be in [0, 1], got {level}")
    mean_w = w.mean_w

    def _point(x: float) -> Isoline:
        return Isoline(kind=kind, level=level, shape="point", center_wm=x,
                       radius=0.0, points=np.array([[x, 0.0]]))

    def _arc(center: float, radius: float) -> Isoline:
        if radius == 0.0:
            return _point(center)
        t = np.linspace(0.0, math.pi, samples)
        pts = np.column_stack([center + radius * np.cos(t),
                               radius * np.sin(t)])
        return Isoline(kind=kind, level=level, shape="arc", center_wm=center,
                       radius=radius, points=_clip_attainable(pts, w))

    if kind is AggregationKind.A:
        return _arc(0.0, level * mean_w)
    if kind is AggregationKind.I:
        return _arc(mean_w, (1.0 - level) * mean_w)

    # R: endpoints first, then the neutral vertical, then Apollonius.
    if level == 0.0:
        return _point(0.0)
    if level == 1.0:
        return _point(mean_w)
    if abs(level - 0.5) < 1e-9:
        x = mean_w * 0.5
        top = float(envelope_wsd(w, x)[0])
        ys = np.linspace(0.0, top, samples)
        pts = np.column_stack([np.full(samples, x), ys])
        return Isoline(kind=kind, level=level, shape="segment", center_wm=x,
                       radius=0.0, points=_frozen(pts))
    k = level / (1.0 - level)
    k2 = k * k
    center = k2 * mean_w / (k2 - 1.0)
    radius = k * mean_w / abs(k2 - 1.0)
    return _arc(center, radius)


def uniform_utilities(n: int, count: int, rng: np.random.Generator,
                      bound_bias: float = 0.0) -> np.ndarray:
    """Random utility points, optionally biased toward the box corners.

    With ``bound_bias`` b, each coordinate is snapped to 0 or 1 with
    probability b each and drawn uniformly otherwise.  Used to exercise
    the envelope: corner-heavy samples reach the extreme configurations
    that define it.
    """
    u = rng.random((count, n))
    if bound_bias > 0.0:
        mode = rng.random((count, n))
        u = np.where(mode < bound_bias, 0.0, u)
        u = np.where(mode >= 1.0 - bound_bias, 1.0, u)
    return u


def edge_sweep_utilities(w: WeightVector, per_edge: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Jittered sweeps along every edge of the utility hypercube.

    For each edge (one free coordinate, the other active coordinates held
    at 0 or 1) the free coordinate takes ``per_edge`` stratified-random
    values, guaranteeing samples near every part of the envelope.
    Zero-weight coordinates are filled uniformly; they do not move the
    image.  Requires n_p within the exact-enumeration cap.
    """
    active = np.flatnonzero(w.weights > 0)
    n_p = active.size
    if n_p > EXACT_LIMIT:
        raise TooManyCriteria(f"{n_p} positive weights exceed {EXACT_LIMIT}")
    rows = []
    for j in active:
        rest = [i for i in active if i != j]
        for mask in range(1 << len(rest)):
            u = rng.random((per_edge, w.n))  # zero-weight coords: any value
            for bit, i in enumerate(rest):
                u[:, i] = 1.0 if (mask >> bit) & 1 else 0.0
            u[:, j] = (np.arange(per_edge) + rng.random(per_edge)) / per_edge
            rows.append(u)
    return np.vstack(rows)


def plane_coordinates(u: np.ndarray, w: WeightVector
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (WM, WSD) for a batch of utility rows."""
    return plane(u * w.weights, w)


def boundary_sampled(w: WeightVector, resolution: int = 512,
                     samples: int = 200_000,
                     seed: int = 0) -> BoundaryEnvelope:
    """Monte-Carlo envelope for weight vectors beyond the exact cap.

    Estimates the envelope as the per-bin maximum WSD over random utility
    points (uniform, corner-biased, and random edge sweeps).  The
    estimate can only sit below the true envelope; ``looseness`` reports
    the largest jump between adjacent bins as a rough scale of the error.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    rng = np.random.default_rng(seed)
    n = w.n
    third = samples // 3
    batches = [
        uniform_utilities(n, third, rng),
        uniform_utilities(n, third, rng, bound_bias=0.45),
    ]
    # Random edges: all active coordinates at random bounds, one free.
    active = np.flatnonzero(w.weights > 0)
    k = samples - 2 * third
    u = np.where(rng.random((k, n)) < 0.5, 0.0, 1.0)
    free = rng.choice(active, size=k)
    u[np.arange(k), free] = rng.random(k)
    batches.append(u)

    wm, wsd = plane_coordinates(np.vstack(batches), w)
    grid = np.linspace(0.0, w.mean_w, resolution)
    step = grid[1] - grid[0]
    idx = np.clip(np.rint(wm / step).astype(int), 0, resolution - 1)
    vals = np.zeros(resolution)
    np.maximum.at(vals, idx, wsd)
    vals[0] = 0.0
    vals[-1] = 0.0
    looseness = float(np.max(np.abs(np.diff(vals)))) if resolution > 1 else 0.0
    return BoundaryEnvelope(wm=grid, wsd=vals,
                            vertex_images=np.empty((0, 2)), weights=w,
                            method="sampled", looseness=looseness)
