"""Domain-specific error signals shared across the package."""

import numbers


def require_integer(value, name: str) -> int:
    """value as an int; a bool or a non-integral number is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


class SpectralBoundError(Exception):
    """Base class for bound computations that cannot produce a meaningful value."""


class VacuousBoundError(SpectralBoundError):
    """The input carries no spectral information (for example a zero matrix)."""


class NoNegativeSpectrumError(VacuousBoundError):
    """The smallest eigenvalue is nonnegative, so ratio-type bounds do not apply."""


class BoundInapplicableError(SpectralBoundError):
    """A precondition of the bound (such as R - m - eps > 0) fails."""


class ConvergenceError(RuntimeError):
    """An iterative kernel exhausted its budget before reaching tolerance."""

    def __init__(self, message, iterations=None):
        super().__init__(message)
        self.iterations = iterations


class UncertifiedRangeError(ConvergenceError):
    """A spectral range could not be certified within the truncation budget.

    Carries the best uncertified estimate so callers can still inspect it.
    """

    def __init__(self, message, m, M, k_used, tail_bound):
        super().__init__(message)
        self.range = (m, M)
        self.k_used = k_used
        self.tail_bound = tail_bound
