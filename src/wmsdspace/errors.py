"""Exception hierarchy shared by all wmsdspace modules.

Errors fall into two families: :class:`ValidationError` for malformed
inputs (bad domains, weights, schemas, CSV cells) and
:class:`ComputationError` for requests the library refuses to compute
(too many criteria for the exact envelope, unattainable plot points).
The CLI maps the families to exit codes 1 and 2 respectively.
"""

from __future__ import annotations


class WmsdError(Exception):
    """Base class for all errors raised by this package."""

    def details(self) -> dict:
        """Machine-readable payload used by the CLI error stream."""
        return {"error": type(self).__name__, "message": str(self)}


class ValidationError(WmsdError):
    """Invalid input data or configuration."""


class ComputationError(WmsdError):
    """A computation that cannot or will not be carried out."""


# -- model ------------------------------------------------------------------

class DegenerateDomain(ValidationError):
    """Criterion domain with v_min >= v_max."""


class NonFiniteBound(ValidationError):
    """Criterion domain bound is NaN or infinite."""


class NegativeWeight(ValidationError):
    """Criterion weight below zero."""


class DuplicateName(ValidationError):
    """Two criteria share a name."""


class AllZeroWeights(ValidationError):
    """Every weight is zero; at least one must be positive."""


class NonFiniteWeight(ValidationError):
    """A weight is NaN or infinite."""


class OutOfDomain(ValidationError):
    """A raw value lies outside its criterion's declared domain."""

    def __init__(self, message: str, *, row: int | None = None,
                 column: str | None = None):
        super().__init__(message)
        self.row = row
        self.column = column

    def details(self) -> dict:
        d = super().details()
        if self.row is not None:
            d["row"] = self.row
        if self.column is not None:
            d["column"] = self.column
        return d


# -- spaces / wmsd ----------------------------------------------------------

class LengthMismatch(ValidationError):
    """Vectors of unequal length where equal length is required."""


class WeightMismatch(ValidationError):
    """Weighted points built from different weight vectors."""


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

    def __init__(self, message: str, *, point_id: str | None = None):
        super().__init__(message)
        self.point_id = point_id

    def details(self) -> dict:
        d = super().details()
        if self.point_id is not None:
            d["id"] = self.point_id
        return d


class DegenerateCanvas(ValidationError):
    """Canvas with non-positive width or height."""


# -- cli --------------------------------------------------------------------

class SchemaError(ValidationError):
    """Config JSON does not match the expected schema."""

    def __init__(self, message: str, *, path: str | None = None):
        super().__init__(message if path is None else f"{path}: {message}")
        self.path = path

    def details(self) -> dict:
        d = super().details()
        if self.path is not None:
            d["path"] = self.path
        return d


class HeaderMismatch(ValidationError):
    """CSV header does not match the configured criteria."""


class MalformedCsv(ValidationError):
    """Dataset text the csv module cannot split into records."""

    def __init__(self, message: str, *, row: int | None = None):
        super().__init__(message)
        self.row = row

    def details(self) -> dict:
        d = super().details()
        if self.row is not None:
            d["row"] = self.row
        return d


class BadNumber(ValidationError):
    """A CSV cell that should be numeric is not."""

    def __init__(self, message: str, *, row: int, column: str):
        super().__init__(message)
        self.row = row
        self.column = column

    def details(self) -> dict:
        d = super().details()
        d["row"] = self.row
        d["column"] = self.column
        return d
