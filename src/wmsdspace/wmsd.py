"""Weight-scaled mean and standard deviation of weighted points.

Projecting a weighted point ``v`` onto the weight vector ``w`` splits it
into a component along the main diagonal of the weighted space and an
orthogonal remainder.  Dividing the two component lengths by the scaling
coefficient ``s`` yields the weight-scaled mean (WM) and weight-scaled
standard deviation (WSD): the coordinates of the alternative in the 2-D
explanation plane.  ``w`` is a :class:`WeightVector`, whose constructor
max-normalizes the weights (the largest is exactly 1), so WM lies in
[0, mean(w)] and WSD in [0, mean(w)/2], the scale of the paper's
WMSD-space.  With all weights equal to 1 they reduce to the plain
mean and population standard deviation of the utility coordinates, so
``plane(u, WeightVector(np.ones(n)))`` is the unweighted pair.
:func:`plane` computes both coordinates for every row of an (m, n) array.

The distances of ``v`` to the anti-ideal and ideal images are pure
functions of (WM, WSD, mean(w)):

    d_anti  = sqrt(WM**2 + WSD**2)
    d_ideal = sqrt((mean(w) - WM)**2 + WSD**2)

which is how :func:`wmsdspace.aggregate.agg_values` scores every
alternative from its plane point.
"""

from __future__ import annotations

import numpy as np

from .model import WeightVector


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of ``a`` with ``b`` (a vector or rows)."""
    return np.einsum("ij,ij->i", a, np.broadcast_to(b, a.shape))


def plane(v: np.ndarray, w: WeightVector) -> tuple[np.ndarray, np.ndarray]:
    """(WM, WSD) of every row of an (m, n) array of weighted points.

    WM is the projection length divided by ``s``; since both ``v`` and
    ``w`` are non-negative it equals ``(v . w) / (norm(w) * s)``, which
    avoids one vector norm.  WSD is the length of the explicit rejection
    vector divided by ``s``, rather than the subtractive form
    sqrt(|v|^2/s^2 - WM^2), which loses precision when the rejection is
    small.
    """
    dots = _row_dots(v, w.weights)
    rej = v - np.outer(dots / (w.norm * w.norm), w.weights)
    return dots / (w.norm * w.s), np.sqrt(_row_dots(rej, rej)) / w.s
