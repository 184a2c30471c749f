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
    """A pole of the continuation lies so close to the ray that its Stokes
    jump at t, by which the sums on its two sides differ, exceeds eps."""

    def __init__(self, message, pole=None, jump=None, eps=None):
        super().__init__(message)
        self.pole, self.jump, self.eps = pole, jump, eps


class SectorError(GermsumError):
    """Evaluation point and summation direction are incompatible."""
