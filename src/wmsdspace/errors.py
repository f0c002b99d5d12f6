"""Exception hierarchy shared by all wmsdspace modules.

Errors fall into two families: :class:`ValidationError` for malformed
inputs (bad domains, weights, schemas, CSV cells) and
:class:`ComputationError` for requests the library refuses to compute
(too many criteria for the exact envelope, unattainable plot points).
The CLI maps the families to exit codes 1 and 2 respectively.
"""

from __future__ import annotations


class WmsdError(Exception):
    """Base class for all errors raised by this package.

    An error may name where it happened: the 1-based data ``row``, the
    ``column``, the plot point's ``point_id`` or the config ``path``.
    The fields live in one dict, not among the exception's attributes, so
    nothing else set on it (a ``__notes__`` entry, say) reaches the record.
    """

    def __init__(self, message: str, *, row: int | None = None,
                 column: str | None = None, point_id: str | None = None,
                 path: str | None = None):
        super().__init__(message)
        # record key -> value; a point's id is recorded as "id"
        self._fields = {"row": row, "column": column, "id": point_id,
                        "path": path}

    row = property(lambda self: self._fields["row"])
    column = property(lambda self: self._fields["column"])
    point_id = property(lambda self: self._fields["id"])
    path = property(lambda self: self._fields["path"])

    def details(self) -> dict:
        """Machine-readable payload used by the CLI error stream: the class
        name, the message and every field that is not None."""
        d = {"error": type(self).__name__, "message": str(self)}
        d.update((k, v) for k, v in self._fields.items() if v is not None)
        return d


class ValidationError(WmsdError):
    """Invalid input data or configuration."""


class ComputationError(WmsdError):
    """A computation that cannot or will not be carried out."""


# -- model ------------------------------------------------------------------

class DegenerateDomain(ValidationError):
    """Criterion domain with v_min >= v_max, or one whose span
    v_max - v_min overflows to infinity."""


class NonFiniteBound(ValidationError):
    """Criterion domain bound is NaN or infinite."""


class NegativeWeight(ValidationError):
    """Criterion weight below zero."""


class DuplicateName(ValidationError):
    """Two criteria, or two alternatives, share a name; a ranking gives
    no position for an id it holds more than once."""


class AllZeroWeights(ValidationError):
    """Every weight is zero; at least one must be positive."""


class NonFiniteWeight(ValidationError):
    """A weight is NaN or infinite."""


class OutOfDomain(ValidationError):
    """A raw value lies outside its criterion's declared domain."""


# -- shapes -----------------------------------------------------------------

class LengthMismatch(ValidationError):
    """Vectors of unequal length where equal length is required."""


# -- aggregate --------------------------------------------------------------

class NonFiniteScore(ValidationError):
    """A ranking score is NaN or infinite."""


class IdSetMismatch(ValidationError):
    """Two rankings or snapshots cover different alternative ids."""


# -- geometry ---------------------------------------------------------------

class TooManyCriteria(ComputationError):
    """Exact envelope enumeration exceeds the positive-weight cap."""


class LevelOutOfRange(ValidationError):
    """Isoline level outside [0, 1]."""


# -- render -----------------------------------------------------------------

class UnattainablePoint(ComputationError):
    """A point to plot lies outside the attainable region."""


# -- cli --------------------------------------------------------------------

class SchemaError(ValidationError):
    """Config JSON does not match the expected schema."""

    def __init__(self, message: str, *, path: str | None = None):
        super().__init__(message if path is None else f"{path}: {message}",
                         path=path)


class HeaderMismatch(ValidationError):
    """CSV header does not match the configured criteria."""


class MalformedCsv(ValidationError):
    """Dataset text the csv module cannot split into records."""


class BadNumber(ValidationError):
    """A CSV cell that should be numeric is not."""
