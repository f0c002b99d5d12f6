"""Criteria, decision matrices, and normalized weight vectors.

A ranking problem is described by a list of :class:`CriterionSpec` (name,
bounded real domain, gain/cost direction, raw weight), a
:class:`DecisionMatrix` of raw values, and a :class:`WeightVector` built
from the raw weights.  Each constructor checks its own input and raises
a :class:`ValidationError` record for the first broken rule, so no record
can break the WMSD-space's preconditions: a criterion has a finite domain
with ``v_min < v_max`` and a finite, non-negative raw weight; a matrix has
distinct criterion names, distinct ids and every cell finite and inside
its domain.  ``WeightVector(raw)`` refuses raw weights that are not
finite, non-negative and not all zero, and re-scales them so that the
largest entry is exactly 1, the scale the WMSD-space is defined on; it
derives its statistics (positive count ``n_p``, Euclidean norm, arithmetic
mean, scaling coefficient ``s = norm / mean``), which every downstream
computation consumes.

All types are immutable after construction and safe to share across
threads.  They are plain classes on :class:`_Record`, as are the other
records of the package, with their methods written out in source: methods
generated with ``exec`` at import would be compiled again by every
process, a few milliseconds of each command's start.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

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
# Bytes of each transient array of every row-blocked loop (scoring, text
# output, compare's pair scan, ingest), so its working set stays in cache.
_BLOCK_BYTES = 1 << 18


def _block_rows(row_bytes: int) -> int:
    """Rows per block of a loop whose arrays take ``row_bytes`` a row."""
    return max(1, _BLOCK_BYTES // max(row_bytes, 1))


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` read-only: a copy, unless ``a`` is read-only and owns its data."""
    a = np.asarray(a, dtype=float)
    if a.flags.writeable or not a.flags.owndata:
        a = a.copy()
        a.flags.writeable = False
    return a


class _Record:
    """A record whose fields are the attributes ``__init__`` sets, in that
    order.  Fields are read-only: assigning or deleting an attribute
    raises ``AttributeError``.  ``repr`` shows every field; equality and
    hashing are by identity (see :class:`_Value`)."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


class _Value(_Record):
    """A record that compares and hashes by the tuple of its fields."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(vars(self).values()) == tuple(vars(other).values())

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))


class CriterionSpec(_Value):
    """One criterion: a bounded real domain with a preference direction.

    For a gain criterion the least preferred value is ``v_min`` and the
    most preferred is ``v_max``; for a cost criterion the roles swap.
    ``raw_weight`` is the weight as supplied by the user, before
    max-normalization.  The first broken rule, in this order, is refused:
    a kind other than 'gain' or 'cost' (:class:`DegenerateDomain`), a
    bound that is not finite (:class:`NonFiniteBound`), ``v_min`` not
    strictly below ``v_max`` or a span ``v_max - v_min`` that overflows
    (:class:`DegenerateDomain`), a weight that is not finite
    (:class:`NonFiniteWeight`) or one below zero (:class:`NegativeWeight`).
    """

    def __init__(self, name: str, v_min: float, v_max: float, kind: str,
                 raw_weight: float = 1.0):
        at = f"criterion {name!r}"
        if kind not in (GAIN, COST):
            raise DegenerateDomain(
                f"{at}: kind must be 'gain' or 'cost', got {kind!r}")
        if not (math.isfinite(v_min) and math.isfinite(v_max)):
            raise NonFiniteBound(f"{at}: domain bounds must be finite")
        if not v_min < v_max:
            raise DegenerateDomain(f"{at}: v_min ({v_min}) must be strictly "
                                   f"below v_max ({v_max})")
        if not math.isfinite(v_max - v_min):
            raise DegenerateDomain(f"{at}: domain span v_max - v_min ({v_max}"
                                   f" - {v_min}) overflows to infinity")
        if not math.isfinite(raw_weight):
            raise NonFiniteWeight(f"{at}: weight must be finite")
        if raw_weight < 0:
            raise NegativeWeight(
                f"{at}: weight must be non-negative, got {raw_weight}")
        vars(self).update(name=name, v_min=v_min, v_max=v_max, kind=kind,
                          raw_weight=raw_weight)


def _criteria(specs: Iterable[CriterionSpec]) -> tuple[CriterionSpec, ...]:
    """``specs`` as a tuple, taken one at a time: a repeated name raises
    :class:`DuplicateName` before a generator builds the next spec, and an
    empty list raises :class:`DegenerateDomain`."""
    criteria, seen = [], set()
    for spec in specs:
        if spec.name in seen:
            raise DuplicateName(f"duplicate criterion name {spec.name!r}")
        seen.add(spec.name)
        criteria.append(spec)
    if not criteria:
        raise DegenerateDomain("criteria list is empty")
    return tuple(criteria)


class WeightVector(_Record):
    """Max-normalized criteria weights plus statistics derived from them.

    ``WeightVector(raw)`` takes raw weights, a non-empty 1-D sequence or
    array of finite, non-negative numbers, not all zero, and raises
    :class:`LengthMismatch`, :class:`NonFiniteWeight`,
    :class:`NegativeWeight` or :class:`AllZeroWeights` on the first of
    these it finds broken.  ``weights`` is ``raw`` divided by its maximum:
    every entry lies in [0, 1] and the largest is exactly 1, so building a
    vector from an already-normalized one changes nothing; it is kept
    read-only.  ``n_p`` counts the positive entries, ``mean_w`` is the mean
    over *all* entries, zeros included, and ``s`` is the scaling
    coefficient ``norm / mean_w`` that normalizes weighted distances; for
    the all-ones vector it equals sqrt(n).
    """

    def __init__(self, raw: Sequence[float] | np.ndarray):
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
        weights.flags.writeable = False  # no one else holds it
        norm = float(np.linalg.norm(weights))
        mean_w = float(weights.mean())
        vars(self).update(weights=weights,
                          n_p=int(np.count_nonzero(weights > 0)), norm=norm,
                          mean_w=mean_w, s=norm / mean_w)

    @property
    def n(self) -> int:
        return self.weights.size

    def __repr__(self) -> str:  # compact
        ws = ", ".join(f"{w:g}" for w in self.weights)
        return f"WeightVector([{ws}], n_p={self.n_p}, s={self.s:.6g})"


class DecisionMatrix(_Record):
    """m alternatives by n criteria of raw, in-domain values.

    ``DecisionMatrix(ids, values, criteria, clamp=False)`` takes ids and
    an (m, n) value array.  The criteria must be a non-empty list with
    distinct names, the ids must be distinct, and every value must be
    finite and lie inside its criterion's domain.  With ``clamp=True``
    finite out-of-domain values are mapped to the nearest bound instead
    of raising :class:`OutOfDomain`; NaN and infinite values are refused
    either way.  Of several faults in the cells and ids, the first in
    row-major order is reported: a bad cell in a row before the first
    repeated id, else the repeat.  ``ids`` is kept as a tuple and
    ``values``, of shape (m, n), as a read-only float array: a read-only
    array that owns its data is kept without a copy.
    """

    def __init__(self, ids: Sequence[str], values: np.ndarray,
                 criteria: Sequence[CriterionSpec], clamp: bool = False):
        criteria = _criteria(criteria)
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
            data.flags.writeable = False  # no one else holds it
        vars(self).update(ids=ids, values=_frozen(data), criteria=criteria)

    def __repr__(self) -> str:  # the criteria are left out
        return f"DecisionMatrix(ids={self.ids!r}, values={self.values!r})"

    @property
    def m(self) -> int:
        return len(self.ids)

    @property
    def n(self) -> int:
        return len(self.criteria)
