"""Domain-specific error signals, input checks, the in-order sum and the
printed form of a number, shared across the package."""

import math
import numbers
import sys


def require_integer(value, name: str, lo=None, hi=None) -> int:
    """value as an int; a bool or a non-integral number is refused, not truncated.

    Given lo and hi, an integer outside [lo, hi] is refused too, not clamped.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    n = int(value)
    if lo is not None and not lo <= n <= hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {n}")
    return n


def read_text(path) -> str:
    """The text of the UTF-8 file at path; other bytes are refused with one
    line naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc})") from None


def require_tolerance(tol) -> float:
    """tol, the tolerance a range is computed to; refused outside [1e-12, 1e-3].

    The range functions meet it by a probe or a scan, not by a proof.
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


def ordered_sum(values) -> float:
    """The sum of values added one by one in order from 0.0, the same bits
    on every Python (sum() compensates its float additions from 3.12 on)."""
    total = 0.0
    for v in values:
        total += v
    return total


def ten_digits(x: float) -> str:
    """x as every printer writes it: 10 significant digits, rounded to nearest.

    The JSON output, the torus CSV and the uncertified-range line all print
    their numbers through this one function.
    """
    return f"{x:.10g}"


def require_mass(weights) -> None:
    """Refuse sum |w_i| = inf, or 0 < sum |w_i| < the smallest normal double: subnormal
    weights keep too few digits for a bound.  An all-zero measure stays (vacuous bounds)."""
    mass = ordered_sum(abs(w) for w in weights)
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

    Carries the best uncertified estimate so callers can still inspect it;
    its text is the one line that names it, the truncation and the tail.
    """

    def __init__(self, message, m, M, k_used, tail_bound):
        span = f"[{ten_digits(m)}, {ten_digits(M)}]"
        line = f"uncertified range {span} (K={k_used}, tail={tail_bound:.3g})"
        super().__init__(f"{line}: {message}")
        self.range = (m, M)
        self.k_used = k_used
        self.tail_bound = tail_bound
