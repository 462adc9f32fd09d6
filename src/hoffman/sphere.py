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
    require_integer,
    require_tolerance,
)
from .reports import SpectralRange
from .simplex import cutting_planes
from .specfun import jacobi_sequence

# the largest truncation: no K past it is accepted, and K doubling stops at it
_K_CAP = 8192
_ANGLE_DENOM_CAP = 512
_N2_SCAN_K = 10_000


@dataclass(frozen=True)
class SphereMeasure:
    """Signed atomic measure on inner products; atoms are (t, weight) pairs.

    Every t lies in [-1, 1): the endpoint 1 would make points adjacent to
    themselves, so it is excluded from the closure of the forbidden set.
    """

    dim: int
    atoms: tuple

    def __post_init__(self):
        n = require_integer(self.dim, "sphere dimension")
        if not (2 <= n <= 64):
            raise ValueError(f"sphere dimension must lie in [2, 64], got {n}")
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
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "atoms", tuple(norm))

    def inner_products(self) -> np.ndarray:
        return np.array([t for t, _ in self.atoms])

    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms])

    def total_mass(self) -> float:
        return float(sum(w for _, w in self.atoms))


@dataclass(frozen=True)
class EigenSequence:
    """Eigenvalues lambda_k for k = 0..K plus an empirical tail probe.

    tail_bound is the largest |lambda_k| observed on the probe window
    (K, 2K]; it is reported, not assumed.
    """

    values: np.ndarray
    K: int
    tail_bound: float


def sphere_measure_to_json(mu: SphereMeasure) -> dict:
    return {"dim": mu.dim, "atoms": [[t, w] for t, w in mu.atoms]}


def sphere_measure_from_json(obj) -> SphereMeasure:
    if not isinstance(obj, dict) or set(obj) != {"dim", "atoms"}:
        raise ValueError("measure object must have exactly the keys 'dim' and 'atoms'")
    try:
        atoms = [(float(t), float(w)) for t, w in obj["atoms"]]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed atoms list: {exc}") from exc
    return SphereMeasure(obj["dim"], tuple(atoms))


def _jacobi_alpha(n: int) -> float:
    """The Jacobi parameter of degree-k harmonics on S^(n-1)."""
    return (n - 3) / 2.0


def _degree_table(n: int, ks, t) -> np.ndarray:
    """Pbar_k(t_i) on S^(n-1), one row per degree k in ks: cos(k arccos t) for n = 2."""
    ks = np.asarray(ks)
    if n == 2:
        return np.cos(np.outer(ks, np.arccos(np.clip(t, -1.0, 1.0))))
    return jacobi_sequence(int(ks.max()), _jacobi_alpha(n), t)[ks]


def _require_k(K) -> int:
    """K as an int, refused outside [1, _K_CAP]: the one cap on every truncation."""
    K = require_integer(K, "K")
    if not (1 <= K <= _K_CAP):
        raise ValueError(f"K must lie in [1, {_K_CAP}], got {K}")
    return K


def eigenvalue_sequence(mu: SphereMeasure, K: int) -> EigenSequence:
    """lambda_k = sum_i w_i Pbar_k(t_i) for k = 0..K, with a (K, 2K] probe."""
    K = _require_k(K)
    table = jacobi_sequence(2 * K, _jacobi_alpha(mu.dim), mu.inner_products())
    lam = table @ mu.weights()
    lam[0] = mu.total_mass()
    return EigenSequence(lam[: K + 1].copy(), K, float(np.max(np.abs(lam[K + 1 :]))))


def _rational_angle_period(mu: SphereMeasure):
    """Common period of k -> cos(k theta_i) when every theta_i/pi is rational."""
    period = 1
    for t, _ in mu.atoms:
        theta = math.acos(max(-1.0, min(1.0, t)))
        frac = Fraction(theta / math.pi).limit_denominator(_ANGLE_DENOM_CAP)
        if abs(theta - float(frac) * math.pi) > 1e-12:
            return None
        q = frac.denominator
        period = period * q // math.gcd(period, q)
        if 2 * period > _N2_SCAN_K:
            return None
    return 2 * period


def operator_range(mu: SphereMeasure, K: int = 64, tol: float = 1e-8):
    """Probe-checked endpoints of the eigenvalue closure, with their evidence.

    Returns (SpectralRange, EigenSequence): the range (m, M), with R = mass
    for a nonnegative measure, and the eigenvalue sequence it was read from.
    For n >= 3 the eigenvalues decay to 0, so 0 always lies in the closure
    and the candidate extremes are 0-augmented; the truncation K is doubled,
    up to the cap 8192, until the tail probe max falls below the extreme
    magnitudes (or below tol when an extreme is near zero), and the
    sequence's K and tail_bound name that truncation.  K itself must lie in
    [1, 8192] and tol in [1e-12, 1e-3].  The probe is empirical, not a
    proof.  For n = 2 the eigenvalues are cos(k theta_i): with rational
    theta_i/pi the sequence is periodic and scanned exactly over one period
    (tail_bound 0); otherwise a long scan stands in for the equidistributed
    orbit, and tail_bound is the trivial sum |w_i|.
    """
    tol = require_tolerance(tol)
    k = _require_k(K)
    R = mu.total_mass() if all(w >= 0.0 for _, w in mu.atoms) else None

    if mu.dim == 2:
        period = _rational_angle_period(mu)
        kmax = period if period is not None else _N2_SCAN_K
        lam = _degree_table(2, np.arange(kmax + 1), mu.inner_products()) @ mu.weights()
        tail = 0.0 if period is not None else float(np.abs(mu.weights()).sum())
        rng = SpectralRange(float(lam.min()), float(lam.max()), R)
        return rng, EigenSequence(lam, kmax, tail)

    while True:
        seq = eigenvalue_sequence(mu, k)
        m = min(0.0, float(seq.values.min()))
        big = max(0.0, float(seq.values.max()))
        if seq.tail_bound <= max(-m, tol) and seq.tail_bound <= max(big, tol):
            return SpectralRange(m, big, R), seq
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
    (cutting planes).  No degree past 8192 enters the game, and if only
    those beat the game value (n = 2 scans to 10000) UncertifiedRangeError
    is raised.  Returns (measure, SpectralRange, EigenSequence): the range
    and sequence of the last round's operator_range call, which certified
    the measure.
    """
    n = SphereMeasure(n, ()).dim  # the measure type validates the dimension
    K, tol = _require_k(K), require_tolerance(tol)
    ts = sorted(float(t) for t in support)
    if not ts or len(set(ts)) != len(ts):
        raise ValueError("support must be nonempty with distinct inner products")
    if any(not (-1.0 <= t < 1.0) for t in ts):
        raise ValueError("support points must lie in [-1, 1)")

    def oracle(s_star, w):
        mu = SphereMeasure(n, tuple(zip(ts, w)))
        if s_star >= 0.0:
            raise VacuousBoundError("optimized infimum is nonnegative; vacuous on this support")
        rng, seq = operator_range(mu, K=K, tol=tol)
        cuts = np.flatnonzero(seq.values < s_star - tol)
        if cuts.size and cuts[0] > _K_CAP:
            msg = f"game value {s_star:.6e} not certified at truncation {_K_CAP}"
            raise UncertifiedRangeError(msg, rng.m, rng.M, _K_CAP, s_star - rng.m)
        return cuts[cuts <= _K_CAP], (mu, rng, seq)

    return cutting_planes(lambda ks: _degree_table(n, ks, ts).T, np.arange(1, K + 1), oracle)
