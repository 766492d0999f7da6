"""Exception types shared across the package."""


class AlphadetError(Exception):
    """Base class for all library errors."""


class SizeCapExceeded(AlphadetError):
    """Requested computation exceeds a documented exhaustive-size cap.

    Exhaustive exact semantics never degrade silently: anything too large
    is rejected with this error instead of being truncated or sampled.
    """


class NotSquare(AlphadetError):
    """Operation requires a square matrix."""


class DimensionMismatch(AlphadetError):
    """Matrix dimensions are incompatible with the requested operation."""


class NotDivisible(AlphadetError):
    """Exact polynomial division left a nonzero remainder."""


class DivisionByZeroPoly(AlphadetError):
    """Polynomial division by the zero polynomial."""


class ShapeWeightMismatch(AlphadetError):
    """Partition arguments must partition the same integer."""


class IdentityViolation(AlphadetError):
    """An exact identity that must hold failed; carries the witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
