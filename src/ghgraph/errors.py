"""Exception types shared across the library.

Validation errors signal malformed inputs, guard errors signal that an
operation refused to start or continue because its work limit was hit,
and construction errors signal that a generated fixture failed its own
built-in verification.
"""

from __future__ import annotations

__all__ = [
    "GhGraphError",
    "ValidationError",
    "NonPositiveEdgeLength",
    "UnknownEndpoint",
    "DisconnectedGraph",
    "PointNotOnGraph",
    "EmptySet",
    "EmptyRegion",
    "NonPositiveRadius",
    "NotACorrespondence",
    "InvalidMetric",
    "NotATree",
    "NotACircle",
    "PointOutsideInterval",
    "NonPositiveEpsilon",
    "EpsilonOutOfRange",
    "ParseError",
    "GuardExceeded",
    "LoopCountGuardExceeded",
    "ConstructionVerificationFailed",
]


class GhGraphError(Exception):
    """Base class for all library errors."""


class ValidationError(GhGraphError):
    """Input rejected before any computation ran."""


class NonPositiveEdgeLength(ValidationError):
    pass


class UnknownEndpoint(ValidationError):
    pass


class DisconnectedGraph(ValidationError):
    pass


class PointNotOnGraph(ValidationError):
    pass


class EmptySet(ValidationError):
    pass


class EmptyRegion(ValidationError):
    pass


class NonPositiveRadius(ValidationError):
    pass


class NotACorrespondence(ValidationError):
    pass


class InvalidMetric(ValidationError):
    pass


class NotATree(ValidationError):
    pass


class NotACircle(ValidationError):
    pass


class PointOutsideInterval(ValidationError):
    pass


class NonPositiveEpsilon(ValidationError):
    pass


class EpsilonOutOfRange(ValidationError):
    pass


class ParseError(GhGraphError):
    """Malformed file or literal handed to the command line layer."""


class GuardExceeded(GhGraphError):
    """An exhaustive search or a construction hit its work limit.

    ``bracket`` is (lower, upper) when the search knew bounds on its answer
    at the point it stopped, else None.
    """

    def __init__(self, message: str, bracket: tuple[float, float] | None = None):
        super().__init__(message)
        self.bracket = bracket


class LoopCountGuardExceeded(GuardExceeded):
    """Loop enumeration produced more loops than the configured cap."""


class ConstructionVerificationFailed(GhGraphError):
    """A generated fixture failed the checks that certify its advertised values."""
