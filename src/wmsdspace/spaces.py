"""Utility space and weighted utility space, row by row.

Raw criterion values are min-max rescaled into the unit hypercube
(utility space): after rescaling every criterion is gain-like with 0 the
worst and 1 the best value.  Applying the weights element-wise, as
``u * w.weights`` on an (m, n) array of utility rows, maps the hypercube
onto a hyperrectangle (weighted space) whose extreme corners, the
all-zeros point and the weight vector itself, are the images of the
anti-ideal and ideal alternatives.

Distances in weighted space are Euclidean divided by the weight scaling
coefficient ``s``, so they range over [0, mean(w)] inside the
hyperrectangle and reduce to Euclidean divided by sqrt(n) when all
weights are 1.  The distances to both corners are functions of a row's
plane coordinates alone (see :func:`wmsdspace.wmsd.plane`), so no
distance is measured in the box itself.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .model import COST, CriterionSpec


def utility_array(values: np.ndarray,
                  criteria: Sequence[CriterionSpec]) -> np.ndarray:
    """Min-max rescale an (m, n) array of in-domain raw values into [0, 1].

    Column j is rescaled by criterion j: gain criteria map v_min to 0
    and v_max to 1; cost criteria map v_min to 1 and v_max to 0.
    """
    lo = np.array([c.v_min for c in criteria])
    hi = np.array([c.v_max for c in criteria]) + 0.0  # a -0.0 max is 0.0
    cost = np.array([c.kind == COST for c in criteria])
    # values + (0.0 - lo) is values - lo, but 0.0 where that is -0.0
    return np.where(cost, hi - values, values + (0.0 - lo)) / (hi - lo)
