"""Domain-specific error signals shared across the package."""

import math
import numbers
import sys


def require_integer(value, name: str) -> int:
    """value as an int; a bool or a non-integral number is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_tolerance(tol) -> float:
    """tol, the tolerance a range is certified to; refused outside [1e-12, 1e-3].

    Double precision resolves no smaller tolerance.  Every range function
    checks its tol here, so the command line declares no range of its own.
    """
    if not (1e-12 <= tol <= 1e-3):
        raise ValueError(f"tol must lie in [1e-12, 1e-3], got {tol!r}")
    return tol


def require_measure_object(obj) -> tuple:
    """(dim, atoms) of a measure file's object, the atoms as pairs of floats.

    The object has exactly the keys 'dim' and 'atoms', and atoms is a list
    of pairs of numbers: an int or a float is a number, a string or a bool
    is not.  The measure type then checks dim and the values themselves.
    """
    if not isinstance(obj, dict) or set(obj) != {"dim", "atoms"}:
        raise ValueError("measure object must have exactly the keys 'dim' and 'atoms'")
    if not isinstance(obj["atoms"], (list, tuple)):
        raise ValueError(f"malformed atoms list: a {type(obj['atoms']).__name__}, not a list")
    for atom in obj["atoms"]:
        if not (isinstance(atom, (list, tuple)) and len(atom) == 2):
            raise ValueError(f"malformed atoms list: {atom!r} is not a pair")
        for x in atom:
            if isinstance(x, bool) or not isinstance(x, numbers.Real):
                raise ValueError(f"malformed atoms list: {x!r} in {atom!r} is not a number")
    try:
        return obj["dim"], tuple((float(a), float(b)) for a, b in obj["atoms"])
    except OverflowError as exc:  # an int past the largest double
        raise ValueError(f"malformed atoms list: {exc}") from None


def require_mass(weights) -> None:
    """Refuse sum |w_i| = inf, or 0 < sum |w_i| < the smallest normal double: subnormal
    weights keep too few digits for a bound.  An all-zero measure stays (vacuous bounds)."""
    mass = sum(abs(w) for w in weights)
    if not math.isfinite(mass):
        raise ValueError("sum of |weight| overflows a double; scale the weights down")
    if 0.0 < mass < sys.float_info.min:
        raise ValueError(
            f"sum of |weight| {mass:.3g} is below the smallest normal double "
            f"{sys.float_info.min:.3g}; scale the weights up"
        )


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
