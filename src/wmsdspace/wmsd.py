"""Weight-scaled mean and standard deviation of weighted points.

Projecting a weighted point ``v`` onto the weight vector ``w`` splits it
into a component along the main diagonal of the weighted space and an
orthogonal remainder.  Dividing the two component lengths by the scaling
coefficient ``s`` yields the weight-scaled mean (WM) and weight-scaled
standard deviation (WSD): the coordinates of the alternative in the 2-D
explanation plane.  With all weights equal to 1 they reduce to the plain
mean and population standard deviation of the utility coordinates.
:func:`plane` computes both coordinates for every row of an (m, n)
array; :func:`project`, :func:`wm`, :func:`wsd` and :func:`wmsd_point`
are its one-point views.

The distances of ``v`` to the anti-ideal and ideal images are pure
functions of (WM, WSD, mean(w)):

    d_anti  = sqrt(WM**2 + WSD**2)
    d_ideal = sqrt((mean(w) - WM)**2 + WSD**2)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch
from .model import WeightVector, _frozen
from .spaces import _coords, _row_dots, _row_norms


@dataclass(frozen=True)
class WmsdPoint:
    """Position of one alternative in the (WM, WSD) plane."""

    wm: float
    wsd: float

    def as_tuple(self) -> tuple[float, float]:
        return (self.wm, self.wsd)


@dataclass(frozen=True, eq=False)
class ProjectionPair:
    """Projection of a point onto the weights and the rejection from them.

    ``proj + rej`` reconstructs the original point and ``proj . rej`` is
    zero up to floating noise.
    """

    proj: np.ndarray
    rej: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "proj", _frozen(self.proj))
        object.__setattr__(self, "rej", _frozen(self.rej))


def _split(v: np.ndarray, w: WeightVector):
    """Dot products of the rows of ``v`` with ``w``, their projections
    onto ``w`` and the rejections from it."""
    dots = _row_dots(v, w.weights)
    proj = np.outer(dots / (w.norm * w.norm), w.weights)
    return dots, proj, v - proj


def plane(v: np.ndarray, w: WeightVector) -> tuple[np.ndarray, np.ndarray]:
    """(WM, WSD) of every row of an (m, n) array of weighted points.

    WM is the projection length divided by ``s``; since both ``v`` and
    ``w`` are non-negative it equals ``(v . w) / (norm(w) * s)``, which
    avoids one vector norm.  WSD is the length of the explicit rejection
    vector divided by ``s``, rather than the subtractive form
    sqrt(|v|^2/s^2 - WM^2), which loses precision when the rejection is
    small.
    """
    dots, _, rej = _split(v, w)
    return dots / (w.norm * w.s), _row_norms(rej) / w.s


def mean_sd(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population standard deviation of every row of ``u``.

    Equal to :func:`plane` under all-ones weights up to floating noise;
    the variance uses the divide-by-n convention, never n-1.
    """
    mean = u.mean(axis=1)
    return mean, np.sqrt(((u - mean[:, None]) ** 2).mean(axis=1))


def _row(v, w: WeightVector) -> np.ndarray:
    vc = _coords(v)
    if vc.size != w.n:
        raise LengthMismatch(f"point of length {vc.size} under {w.n} weights")
    return vc.reshape(1, -1)


def project(v, w: WeightVector) -> ProjectionPair:
    """Split ``v`` into its component along ``w`` and the remainder."""
    _, proj, rej = _split(_row(v, w), w)
    return ProjectionPair(proj=proj[0], rej=rej[0])


def wmsd_point(v, w: WeightVector) -> WmsdPoint:
    """Both plane coordinates of one weighted point (see :func:`plane`)."""
    wm_a, wsd_a = plane(_row(v, w), w)
    return WmsdPoint(wm=float(wm_a[0]), wsd=float(wsd_a[0]))


def wm(v, w: WeightVector) -> float:
    """Weight-scaled mean of one weighted point."""
    return wmsd_point(v, w).wm


def wsd(v, w: WeightVector) -> float:
    """Weight-scaled standard deviation of one weighted point."""
    return wmsd_point(v, w).wsd


def msd(u) -> WmsdPoint:
    """Mean and population standard deviation of a utility point."""
    mean, sd = mean_sd(_coords(u).reshape(1, -1))
    return WmsdPoint(wm=float(mean[0]), wsd=float(sd[0]))


def ia_distances(p: WmsdPoint, mean_w: float) -> tuple[float, float]:
    """Distances to the anti-ideal and ideal images from plane coordinates.

    Returns ``(d_anti, d_ideal)``; these equal the scaled distances of the
    underlying weighted point to the all-zeros corner and to the weight
    vector itself.
    """
    d_anti = math.hypot(p.wm, p.wsd)
    d_ideal = math.hypot(mean_w - p.wm, p.wsd)
    return (d_anti, d_ideal)
