"""Spectral ranges, and the bound values read from them.

Every Hoffman-type bound depends only on the numerical range (m, M) of the
operator, plus R = (A1, 1) and eps = ||A1 - R1|| for the ratio bound.  Each
case produces one SpectralRange from one range function of its own input:
graphs.spectral_range (a Graph), euclidean.radial_range (radial measure),
euclidean.unit_distance_range (unit sphere of R^n), sphere.operator_range
(sphere measure), torus.circulant_range (annulus circulant) and the two
optimizers; the range carries the evidence it was read from.  bounds() turns
a range into BoundReports through the three constructors below, which hold
the only copy of each formula and of its applicability checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BoundInapplicableError, NoNegativeSpectrumError

# Recognised bound kinds.  chi_lb is a chromatic lower bound (M - m)/(-m),
# alpha_ratio_ub an independence-ratio upper bound (-m + 2 eps)/(R - m - eps),
# chi_frac_lb a fractional-chromatic lower bound (R - m)/(-m) with R = (A1, 1).
KIND_CHI_LB = "chi_lb"
KIND_ALPHA_RATIO_UB = "alpha_ratio_ub"
KIND_CHI_FRAC_LB = "chi_frac_lb"

KINDS = (KIND_CHI_LB, KIND_ALPHA_RATIO_UB, KIND_CHI_FRAC_LB)


@dataclass(frozen=True)
class SpectralRange:
    """Endpoints m <= M of an operator's numerical range.

    R = (A1, 1) and epsilon = ||A1 - R1|| describe how the all-ones function
    is mapped; R is None when the operator is not nonnegative (a signed
    measure), so the ratio and fractional bounds do not apply.  provenance
    holds the evidence the command line prints; it takes no part in equality.
    """

    m: float
    M: float
    R: float | None = None
    epsilon: float = 0.0
    provenance: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class BoundReport:
    """A single computed bound.

    m and M are the spectral extremes used by the formula.  R and epsilon are
    only present for ratio-type bounds built from an approximate eigenvalue of
    the all-ones function; they are None otherwise.
    """

    kind: str
    value: float
    m: float
    M: float
    R: float | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown bound kind {self.kind!r}")

    def as_dict(self) -> dict:
        d = {"kind": self.kind, "value": self.value, "m": self.m, "M": self.M}
        if self.R is not None:
            d["R"] = self.R
        if self.epsilon is not None:
            d["epsilon"] = self.epsilon
        return d


def _negative_m(rng: SpectralRange) -> float:
    if rng.m >= 0.0:
        raise NoNegativeSpectrumError(
            f"smallest spectral value {rng.m:.6g} is nonnegative; bound is vacuous"
        )
    return rng.m


def _ones_value(rng: SpectralRange, bound: str) -> float:
    if rng.R is None:
        raise BoundInapplicableError(f"the {bound} needs a nonnegative operator")
    return rng.R


def chi_lb(rng: SpectralRange) -> BoundReport:
    """Chromatic lower bound (M - m)/(-m)."""
    m = _negative_m(rng)
    return BoundReport(KIND_CHI_LB, (rng.M - m) / (-m), m, rng.M)


def alpha_ratio_ub(rng: SpectralRange) -> BoundReport:
    """Independence-ratio upper bound (-m + 2 eps)/(R - m - eps).

    Raises BoundInapplicableError unless R - m - eps > 0.
    """
    m = _negative_m(rng)
    R, eps = _ones_value(rng, "ratio bound"), rng.epsilon
    denom = R - m - eps
    if denom <= 0.0:
        raise BoundInapplicableError(
            f"R - m - eps = {denom:.6g} is not positive; bound inapplicable"
        )
    return BoundReport(KIND_ALPHA_RATIO_UB, (-m + 2.0 * eps) / denom, m, rng.M, R=R, epsilon=eps)


def chi_frac_lb(rng: SpectralRange) -> BoundReport:
    """Fractional-chromatic lower bound (R - m)/(-m)."""
    m = _negative_m(rng)
    R = _ones_value(rng, "fractional bound")
    return BoundReport(KIND_CHI_FRAC_LB, (R - m) / (-m), m, rng.M, R=R)


def bounds(rng: SpectralRange, *constructors) -> dict[str, BoundReport]:
    """The bounds the constructors (chi_lb, alpha_ratio_ub, chi_frac_lb) give
    for one range, keyed by kind.

    A bound whose precondition fails (BoundInapplicableError) is left out;
    a range with m >= 0 raises NoNegativeSpectrumError.
    """
    out = {}
    for construct in constructors:
        try:
            rep = construct(rng)
        except BoundInapplicableError:
            continue
        out[rep.kind] = rep
    return out
