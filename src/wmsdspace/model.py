"""Criteria, decision matrices, and normalized weight vectors.

A ranking problem is described by a list of :class:`CriterionSpec` (name,
bounded real domain, gain/cost direction, raw weight), a
:class:`DecisionMatrix` of raw values, and a :class:`WeightVector` derived
from the raw weights.  Weights are always re-scaled at construction so that
the largest entry is exactly 1; the derived statistics (positive count
``n_p``, Euclidean norm, arithmetic mean, scaling coefficient
``s = norm / mean``) are what every downstream computation consumes.

All types are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    AllZeroWeights,
    DegenerateDomain,
    DuplicateName,
    LengthMismatch,
    NegativeWeight,
    NonFiniteBound,
    NonFiniteWeight,
    OutOfDomain,
)

GAIN = "gain"
COST = "cost"


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CriterionSpec:
    """One criterion: a bounded real domain with a preference direction.

    For a gain criterion the least preferred value is ``v_min`` and the
    most preferred is ``v_max``; for a cost criterion the roles swap.
    ``raw_weight`` is the weight as supplied by the user, before
    max-normalization.
    """

    name: str
    v_min: float
    v_max: float
    kind: str  # GAIN or COST
    raw_weight: float = 1.0


def validate_criteria(specs: Sequence[CriterionSpec]) -> Sequence[CriterionSpec]:
    """Check every criterion invariant; return the specs unchanged.

    Raises DegenerateDomain, NonFiniteBound, NegativeWeight, or
    DuplicateName on the first violation found.
    """
    if len(specs) == 0:
        raise DegenerateDomain("criteria list is empty")
    seen = set()
    for spec in specs:
        if spec.kind not in (GAIN, COST):
            raise DegenerateDomain(
                f"criterion {spec.name!r}: kind must be 'gain' or 'cost', "
                f"got {spec.kind!r}")
        if not (math.isfinite(spec.v_min) and math.isfinite(spec.v_max)):
            raise NonFiniteBound(
                f"criterion {spec.name!r}: domain bounds must be finite")
        if not spec.v_min < spec.v_max:
            raise DegenerateDomain(
                f"criterion {spec.name!r}: v_min ({spec.v_min}) must be "
                f"strictly below v_max ({spec.v_max})")
        if not math.isfinite(spec.raw_weight):
            raise NonFiniteWeight(
                f"criterion {spec.name!r}: weight must be finite")
        if spec.raw_weight < 0:
            raise NegativeWeight(
                f"criterion {spec.name!r}: weight must be non-negative, "
                f"got {spec.raw_weight}")
        if spec.name in seen:
            raise DuplicateName(f"duplicate criterion name {spec.name!r}")
        seen.add(spec.name)
    return specs


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Max-normalized criteria weights plus derived statistics.

    ``weights`` always satisfies: all entries in [0, 1], the maximum entry
    exactly 1, and at least one positive entry.  ``mean_w`` is the
    arithmetic mean over *all* entries, zeros included.  ``s`` is the
    scaling coefficient ``norm / mean_w`` that normalizes weighted
    distances; for the all-ones vector it equals sqrt(n).
    """

    raw: np.ndarray
    weights: np.ndarray
    n_p: int
    norm: float
    mean_w: float
    s: float

    @property
    def n(self) -> int:
        return self.weights.size

    def __repr__(self) -> str:  # compact; raw vector omitted
        ws = ", ".join(f"{w:g}" for w in self.weights)
        return f"WeightVector([{ws}], n_p={self.n_p}, s={self.s:.6g})"


def normalize_weights(raw: Sequence[float] | np.ndarray) -> WeightVector:
    """Re-scale raw weights so the maximum entry is exactly 1.

    The raw weights must be finite, non-negative, and not all zero.
    Division by the maximum maps the largest entry to exactly 1.0 and is
    idempotent: normalizing an already-normalized vector changes nothing.
    """
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise LengthMismatch("weights must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteWeight("weights must all be finite")
    if np.any(arr < 0):
        raise NegativeWeight("weights must all be non-negative")
    top = float(arr.max())
    if top == 0.0:
        raise AllZeroWeights("at least one weight must be positive")
    weights = arr / top
    norm = float(np.linalg.norm(weights))
    mean_w = float(weights.mean())
    return WeightVector(
        raw=_frozen(arr),
        weights=_frozen(weights),
        n_p=int(np.count_nonzero(weights > 0)),
        norm=norm,
        mean_w=mean_w,
        s=norm / mean_w,
    )


def uniform_weights(n: int) -> WeightVector:
    """The all-ones weight vector of length ``n``."""
    return normalize_weights(np.ones(n))


@dataclass(frozen=True, eq=False)
class DecisionMatrix:
    """m alternatives by n criteria of raw, in-domain values."""

    ids: tuple[str, ...]
    values: np.ndarray  # shape (m, n), read-only
    criteria: tuple[CriterionSpec, ...] = field(repr=False)

    @property
    def m(self) -> int:
        return len(self.ids)

    @property
    def n(self) -> int:
        return len(self.criteria)

    @classmethod
    def from_array(
        cls,
        ids: Sequence[str],
        values: np.ndarray,
        criteria: Sequence[CriterionSpec],
        clamp: bool = False,
    ) -> "DecisionMatrix":
        """Build and validate a matrix from ids and an (m, n) value array.

        Every value must be finite and lie inside its criterion's domain.
        With ``clamp=True`` finite out-of-domain values are mapped to the
        nearest bound instead of raising :class:`OutOfDomain`; NaN and
        infinite values are refused either way.  Ids must be distinct.
        Of several faults the first in row-major order is reported: a bad
        cell in a row before the first repeated id, else the repeat.
        """
        validate_criteria(criteria)
        ids = tuple(ids)
        m, n = len(ids), len(criteria)
        data = np.asarray(values, dtype=float)
        if data.shape != (m, n):
            raise LengthMismatch(
                f"values have shape {data.shape}, expected {(m, n)}")
        stop, row_fault = m, None
        if len(set(ids)) < m:
            seen = set()
            for stop, alt_id in enumerate(ids):
                if alt_id in seen:
                    break
                seen.add(alt_id)
            row_fault = DuplicateName(f"duplicate alternative id {alt_id!r}")

        lo = np.array([c.v_min for c in criteria])
        hi = np.array([c.v_max for c in criteria])
        head = data[:stop]
        finite = np.isfinite(head)
        bad = ~finite if clamp else ~finite | (head < lo) | (head > hi)
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), n)
            spec, v = criteria[j], float(head[i, j])
            problem = ("is not finite" if not finite[i, j] else
                       f"outside [{spec.v_min}, {spec.v_max}]")
            raise OutOfDomain(
                f"alternative {ids[i]!r}, criterion {spec.name!r}: "
                f"value {v} {problem}", row=i + 1, column=spec.name)
        if row_fault is not None:
            raise row_fault
        if clamp:
            data = np.where(data < lo, lo, np.where(data > hi, hi, data))
        return cls(ids=ids, values=_frozen(data), criteria=tuple(criteria))

    def weight_vector(self) -> WeightVector:
        """Weights taken from the criteria, max-normalized."""
        return normalize_weights([c.raw_weight for c in self.criteria])

