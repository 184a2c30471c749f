"""Exception types shared across the package."""


class GermsumError(Exception):
    """Base class for domain errors (as opposed to usage errors)."""


class DimensionMismatchError(GermsumError):
    pass


class ZeroSeriesError(GermsumError):
    """Raised when an operation needs a nonzero series (e.g. a valuation)."""


class ZeroGermError(GermsumError):
    """Raised when a germ is zero or has a nonzero constant term."""


class InsufficientTruncationError(GermsumError):
    """Truncation bookkeeping cannot certify a single output coefficient."""


class SingularRayError(GermsumError):
    """Analytic continuation hit a pole (too) close to the requested ray."""

    def __init__(self, message, pole=None):
        super().__init__(message)
        self.pole = pole


class SectorError(GermsumError):
    """Evaluation point and summation direction are incompatible."""
