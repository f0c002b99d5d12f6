"""Utility space, weighted utility space, and the three distances.

Raw criterion values are min-max rescaled into the unit hypercube
(utility space): after rescaling every criterion is gain-like with 0 the
worst and 1 the best value.  Applying the weights element-wise maps the
hypercube onto a hyperrectangle (weighted space) whose extreme corners,
the all-zeros point and the weight vector itself, are the images of the
anti-ideal and ideal alternatives.

Distances: plain Euclidean; Euclidean divided by sqrt(n), which ranges
over [0, 1] inside the hypercube; and Euclidean divided by the weight
scaling coefficient ``s``, which ranges over [0, mean(w)] inside the
hyperrectangle and reduces to the sqrt(n) form when all weights are 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import LengthMismatch, OutOfDomain, WeightMismatch
from .model import COST, CriterionSpec, DecisionMatrix, WeightVector, _frozen


@dataclass(frozen=True, eq=False)
class UtilityPoint:
    """An alternative's image in the unit hypercube."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _frozen(self.coords))


@dataclass(frozen=True, eq=False)
class WeightedPoint:
    """An alternative's image in the weighted hyperrectangle."""

    coords: np.ndarray
    weights: WeightVector

    def __post_init__(self):
        object.__setattr__(self, "coords", _frozen(self.coords))


def _coords(p) -> np.ndarray:
    if isinstance(p, (UtilityPoint, WeightedPoint)):
        return p.coords
    return np.asarray(p, dtype=float)


def utility_array(values: np.ndarray,
                  criteria: Sequence[CriterionSpec]) -> np.ndarray:
    """Min-max rescale an (m, n) array of in-domain raw values into [0, 1].

    Column j is rescaled by criterion j: gain criteria map v_min to 0
    and v_max to 1; cost criteria map v_min to 1 and v_max to 0.
    """
    lo = np.array([c.v_min for c in criteria])
    hi = np.array([c.v_max for c in criteria])
    cost = np.array([c.kind == COST for c in criteria])
    return np.where(cost, hi - values, values - lo) / (hi - lo)


def to_utility(value: float, spec: CriterionSpec, clamp: bool = False) -> float:
    """Min-max rescale one raw value (see :func:`utility_array`)."""
    if not spec.contains(value):
        if not clamp:
            raise OutOfDomain(
                f"criterion {spec.name!r}: value {value} outside "
                f"[{spec.v_min}, {spec.v_max}]", column=spec.name)
        value = min(max(value, spec.v_min), spec.v_max)
    return float(utility_array(np.array([[float(value)]]), [spec])[0, 0])


def matrix_to_utility(matrix: DecisionMatrix) -> list[UtilityPoint]:
    """Rescale every alternative; order is preserved."""
    return [UtilityPoint(u)
            for u in utility_array(matrix.values, matrix.criteria)]


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of ``a`` with ``b`` (a vector or rows)."""
    return np.einsum("ij,ij->i", a, np.broadcast_to(b, a.shape))


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (m, n) array."""
    return np.sqrt(_row_dots(a, a))


def to_weighted(u, w: WeightVector) -> WeightedPoint:
    """Element-wise product of a utility point with the weights."""
    uc = _coords(u)
    if uc.size != w.n:
        raise LengthMismatch(
            f"utility point has {uc.size} coordinates, weights have {w.n}")
    return WeightedPoint(uc * w.weights, w)


def euclid(a, b) -> float:
    """Euclidean distance between two points of equal length."""
    ac, bc = _coords(a), _coords(b)
    if ac.size != bc.size:
        raise LengthMismatch(f"points of length {ac.size} and {bc.size}")
    return float(np.linalg.norm(ac - bc))


def rescaled_euclid(a, b) -> float:
    """Euclidean distance divided by sqrt(n); in [0, 1] on the hypercube."""
    ac, bc = _coords(a), _coords(b)
    if ac.size != bc.size:
        raise LengthMismatch(f"points of length {ac.size} and {bc.size}")
    return float(np.linalg.norm(ac - bc) / math.sqrt(ac.size))


def weighted_rescaled_euclid(a, b, w: WeightVector) -> float:
    """Euclidean distance divided by ``s``; in [0, mean(w)] on the box.

    Both points must belong to the weighted space generated by ``w``;
    zero-weight coordinates contribute nothing because their weighted
    coordinates are identically zero.
    """
    for p in (a, b):
        if isinstance(p, WeightedPoint) and not p.weights.matches(w):
            raise WeightMismatch(
                "point was built from a different weight vector")
    ac, bc = _coords(a), _coords(b)
    if ac.size != bc.size or ac.size != w.n:
        raise LengthMismatch(
            f"points of length {ac.size} and {bc.size} under {w.n} weights")
    return float(np.linalg.norm(ac - bc) / w.s)
