"""Bounds for distance graphs on the unit sphere S^(n-1).

A finite signed measure nu = sum_i w_i delta_{t_i} on forbidden inner
products t_i in [-1, 1) averages functions over spherical caps; spherical
harmonics of degree k are its eigenfunctions with eigenvalue
lambda_k = sum_i w_i Pbar_k(t_i), where Pbar_k is the equal-index Jacobi
polynomial with parameter (n-3)/2 normalized to 1 at the endpoint
(Funk-Hecke).  The numerical range of the operator is the closure of the
eigenvalue set, and Hoffman-type bounds follow from its endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    UncertifiedRangeError,
    VacuousBoundError,
    ordered_sum,
    require_integer,
    require_mass,
    require_measure_object,
    require_tolerance,
)
from .reports import SpectralRange
from .simplex import cutting_planes
from .specfun import _jacobi_rows

# the largest truncation: no K past it is accepted, and K doubling stops at it
_K_CAP = 8192
_ANGLE_DENOM_CAP = 512


@dataclass(frozen=True)
class SphereMeasure:
    """Signed atomic measure on inner products; atoms are (t, weight) pairs.

    Every t lies in [-1, 1): the endpoint 1 would make points adjacent to
    themselves, so it is excluded from the closure of the forbidden set.
    sum |w_i| is 0 or a normal double (require_mass).
    """

    dim: int
    atoms: tuple

    def __post_init__(self):
        n = require_integer(self.dim, "sphere dimension", 2, 64)
        norm = []
        prev = -math.inf
        for t, weight in self.atoms:
            tv, w = float(t), float(weight)
            if not (math.isfinite(tv) and math.isfinite(w)):
                raise ValueError("atoms must be finite")
            if not (-1.0 <= tv < 1.0):
                raise ValueError(f"inner products must lie in [-1, 1), got {tv!r}")
            if tv <= prev:
                raise ValueError("inner products must be strictly increasing")
            prev = tv
            norm.append((tv, w))
        require_mass(w for _, w in norm)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "atoms", tuple(norm))

    def inner_products(self) -> np.ndarray:
        return np.array([t for t, _ in self.atoms])

    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms])

    def total_mass(self) -> float:
        return ordered_sum(w for _, w in self.atoms)


@dataclass(frozen=True)
class EigenSequence:
    """Eigenvalues lambda_k for k = 0..K plus an empirical tail probe.

    tail_bound is the largest |lambda_k| observed on the probe window
    (K, 2K], reported, not assumed; both read a table's rows 0..2K.
    """

    values: np.ndarray
    K: int
    tail_bound: float


def sphere_measure_to_json(mu: SphereMeasure) -> dict:
    return {"dim": mu.dim, "atoms": [[t, w] for t, w in mu.atoms]}


def sphere_measure_from_json(obj) -> SphereMeasure:
    return SphereMeasure(*require_measure_object(obj))


class _JacobiTable:
    """Pbar_k(t_i) on S^(n-1) for one support, made and dropped by one call.

    rows(k) grows it in place to degrees 0..k, the recurrence resuming from
    its last two rows: each (degree, point) cell is computed once per call.
    """

    def __init__(self, n: int, t: np.ndarray):
        self.n, self.t, self.values = n, t, np.empty((0, t.size))
        self.alpha = (n - 3) / 2.0  # the Jacobi parameter of degree-k harmonics
        if n == 2:
            self.period, self.free = _circle_split(t)

    def rows(self, kmax: int) -> np.ndarray:
        if kmax >= len(self.values):
            self.values = _jacobi_rows(self.values, kmax, self.alpha, self.t)
        return self.values[: kmax + 1]

    def degrees(self, ks) -> np.ndarray:
        """One row per degree k in ks: for n = 2, cos(k arccos t), -1 if free."""
        ks = np.asarray(ks)
        if self.n == 2:
            return np.where(self.free, -1.0, np.cos(np.outer(ks, np.arccos(self.t))))
        return self.rows(int(ks.max()))[ks]

    def sequence(self, mu: SphereMeasure, K: int) -> EigenSequence:
        """eigenvalue_sequence(mu, K) for a measure on this table's support."""
        lam = self.rows(2 * K) @ mu.weights()
        lam[0] = mu.total_mass()
        return EigenSequence(lam[: K + 1].copy(), K, float(np.max(np.abs(lam[K + 1 :]))))


def _require_k(K) -> int:
    """K as an int, refused outside [1, _K_CAP]: the one cap on every truncation."""
    return require_integer(K, "K", 1, _K_CAP)


def eigenvalue_sequence(mu: SphereMeasure, K: int) -> EigenSequence:
    """lambda_k = sum_i w_i Pbar_k(t_i) for k = 0..K, with a (K, 2K] probe."""
    return _JacobiTable(mu.dim, mu.inner_products()).sequence(mu, _require_k(K))


def _circle_split(t: np.ndarray):
    """(P, free): in order, an atom is periodic while theta_i/pi = p/q with
    q <= 512 (to 1e-12) keeps the period P = 2 lcm(q) of k -> cos(k theta_i)
    within _K_CAP; free marks every other atom."""
    period, free = 1, np.zeros(t.size, dtype=bool)
    for i, tv in enumerate(t.tolist()):
        theta = math.acos(tv)
        frac = Fraction(theta / math.pi).limit_denominator(_ANGLE_DENOM_CAP)
        lcm = math.lcm(period, frac.denominator)
        free[i] = abs(theta - float(frac) * math.pi) > 1e-12 or 2 * lcm > _K_CAP
        period = period if free[i] else lcm
    return 2 * period, free


def operator_range(mu: SphereMeasure, K: int = 64, tol: float = 1e-8) -> SpectralRange:
    """Endpoints of the eigenvalue closure, with their evidence.

    Returns the range (m, M), with R = mass for a nonnegative measure and
    provenance {K, tail_bound} of the sequence it was read from.  K lies in
    [1, 8192] and tol in [1e-12, 1e-3].  For n >= 3 the eigenvalues decay
    to 0, so 0 lies in the closure and the extremes are 0-augmented; K is
    doubled, up to 8192, until the empirical tail probe (not a proof) falls
    below the extreme magnitudes (or below tol near zero), reading one
    Jacobi table grown in place.  For n = 2, lambda_k = sum_i w_i
    cos(k theta_i) and K is unused: m is the minimum over k <= P of the
    lower sequence sum_periodic w_i cos(k theta_i) - sum_free |w_i|
    (_circle_split), and M the larger of its maximum and sum_i w_i.  No
    lambda_k is below m, which is the infimum when 1 and the free
    theta_i/pi are rationally independent (Kronecker; Hardy & Wright, ch. 23).
    The provenance then holds K = P and tail_bound = sum_free |w_i|.
    """
    tol, k = require_tolerance(tol), _require_k(K)
    return _range(mu, k, tol, _JacobiTable(mu.dim, mu.inner_products()))[0]


def _range(mu: SphereMeasure, k: int, tol: float, table: _JacobiTable):
    """(range, the eigenvalues by degree it was read from) of operator_range."""
    R = mu.total_mass() if all(w >= 0.0 for _, w in mu.atoms) else None

    if mu.dim == 2:
        w = mu.weights()
        lam = table.degrees(np.arange(table.period + 1)) @ np.where(table.free, np.abs(w), w)
        prov = {"K": table.period, "tail_bound": float(np.abs(w[table.free]).sum())}
        big = max(float(lam.max()), mu.total_mass())
        return SpectralRange(float(lam.min()), big, R, provenance=prov), lam

    while True:
        seq = table.sequence(mu, k)
        m = min(0.0, float(seq.values.min()))
        big = max(0.0, float(seq.values.max()))
        if seq.tail_bound <= max(-m, tol) and seq.tail_bound <= max(big, tol):
            prov = {"K": seq.K, "tail_bound": seq.tail_bound}
            return SpectralRange(m, big, R, provenance=prov), seq.values
        if k == _K_CAP:
            raise UncertifiedRangeError(
                f"tail probe {seq.tail_bound:.3e} still exceeds the extremes "
                f"at truncation {k}",
                m,
                big,
                k,
                seq.tail_bound,
            )
        k = min(2 * k, _K_CAP)


def optimize_sphere_measure(n: int, support, K: int = 64, tol: float = 1e-8):
    """Best chromatic bound over probability measures on the given support.

    Maximizes s subject to sum_i w_i Pbar_k(t_i) >= s for k = 1..K,
    sum w_i = 1, w >= 0 (a matrix game), then checks the winner's true
    eigenvalue infimum with operator_range; every degree whose eigenvalue
    beats the game value is appended as a new column and the game re-solved
    (cutting planes).  For n = 2 the payoff rows of the free atoms are -1
    (_JacobiTable.degrees), so the game values the lower sequence that
    operator_range reads, and every cut is a degree <= P <= 8192.  The
    payoff and every round's range, probe and cuts read one Jacobi table of
    the support, grown in place.  Returns (measure, SpectralRange): the
    range of the last round's operator_range check, whose tail probe
    accepted the measure, with that check's provenance.
    """
    n = SphereMeasure(n, ()).dim  # the measure type validates the dimension
    K, tol = _require_k(K), require_tolerance(tol)
    ts = sorted(float(t) for t in support)
    if not ts or len(set(ts)) != len(ts):
        raise ValueError("support must be nonempty with distinct inner products")
    if any(not (-1.0 <= t < 1.0) for t in ts):
        raise ValueError("support points must lie in [-1, 1)")

    table = _JacobiTable(n, np.array(ts))  # one per call, like the radial omega tables

    def oracle(s_star, w, _y):  # the column mixture y is not needed here
        mu = SphereMeasure(n, tuple(zip(ts, w)))
        if s_star >= 0.0:
            raise VacuousBoundError("optimized infimum is nonnegative; vacuous on this support")
        rng, lam = _range(mu, K, tol, table)
        return np.flatnonzero(lam < s_star - tol), (mu, rng)

    return cutting_planes(lambda ks: table.degrees(ks).T, np.arange(1, K + 1), oracle)
