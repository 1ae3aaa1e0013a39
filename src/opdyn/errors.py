"""Exception types shared across the package.

Structural problems (wrong shapes, malformed documents) are kept distinct
from invariant violations (a well-formed matrix with a bad row sum) so
callers can react differently to each.
"""

import numbers
import reprlib


def _brief(value) -> str:
    """``reprlib.repr(value)`` cut to 80 characters: a value in a message, whatever its size."""
    return reprlib.repr(value)[:80]


def _as_float(value, name: str, error: type) -> float:
    """``value`` as a float, or ``error`` naming ``name`` unless it is a
    real number (a bool is not) within a double's range."""
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise error(f"{name} must be a number, got {_brief(value)}")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{name} {_brief(value)} is too large for a double") from None


class OpdynError(Exception):
    """Base class for all package errors."""


class ShapeError(OpdynError, ValueError):
    """Non-square matrix, mismatched dimensions, or wrong array rank."""


class DomainError(OpdynError, ValueError):
    """A value lies outside its declared domain (opinions in [-1, 1],
    susceptibility values in [0, 1])."""


class ValidationError(OpdynError, ValueError):
    """A well-formed object violates one of its invariants.

    ``violations`` holds a weight matrix's findings, one ``Violation`` per
    broken clause and place (see ``WeightMatrix``); it is empty for every
    other object.
    """

    def __init__(self, message: str, violations=()):
        self.violations = tuple(violations)
        super().__init__(message)


class SchemaError(ValidationError):
    """A scenario document does not conform to the published schema.

    ``path`` locates the offending field, e.g. ``"x0[2]"`` or
    ``"schedule.matrices[1]"``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class PreconditionError(OpdynError, ValueError):
    """An operation was called outside its stated preconditions."""
