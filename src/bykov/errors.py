"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "BykovError",
    "ConstraintViolation",
    "DegenerateInput",
    "InsufficientData",
    "NonConvergent",
    "InvalidTimes",
    "InvariantMismatch",
    "ParseError",
]


class BykovError(Exception):
    """Base class for all errors raised by this package."""


class ConstraintViolation(BykovError):
    """A parameter set violates one of the model inequalities."""


class DegenerateInput(BykovError):
    """A section point, seed or orbit the maps cannot handle.

    A point sits on a boundary, on the wrong chart, or is not finite; or
    an orbit from it leaves the range that its arithmetic can hold.
    """


class InsufficientData(BykovError):
    """A sequence is too short for the requested diagnostic."""


class NonConvergent(BykovError):
    """A tail estimate did not stabilize within tolerance."""


class InvalidTimes(BykovError):
    """An adjusted-times sequence is unusable for coordinate recovery."""


class InvariantMismatch(BykovError):
    """Two parameter sets do not share the invariant tuple."""


class ParseError(BykovError):
    """A configuration document is malformed; carries the JSON path."""

    def __init__(self, message: str, path: str = "$") -> None:
        super().__init__(f"{message} (at {path})")
        self.path = path
