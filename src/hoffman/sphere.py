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
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import UncertifiedRangeError, VacuousBoundError
from .reports import SpectralRange
from .simplex import solve_matrix_game
from .specfun import jacobi_sequence

_K_PUBLIC_MAX = 10_000
_K_CERT_CAP = 8192
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
        if isinstance(self.dim, bool) or not isinstance(self.dim, numbers.Integral):
            raise ValueError(f"sphere dimension must be an integer, got {self.dim!r}")
        n = int(self.dim)
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


def eigenvalue_sequence(mu: SphereMeasure, K: int) -> EigenSequence:
    """lambda_k = sum_i w_i Pbar_k(t_i) for k = 0..K, with a (K, 2K] probe."""
    K = int(K)
    if not (1 <= K <= _K_PUBLIC_MAX):
        raise ValueError(f"K must lie in [1, {_K_PUBLIC_MAX}], got {K}")
    table = jacobi_sequence(2 * K, _jacobi_alpha(mu.dim), mu.inner_products())
    lam = table @ mu.weights()
    lam[0] = mu.total_mass()
    return EigenSequence(lam[: K + 1].copy(), K, float(np.max(np.abs(lam[K + 1 :]))))


def _cosine_eigenvalues(mu: SphereMeasure, kmax: int) -> np.ndarray:
    """Closed form for n = 2: lambda_k = sum_i w_i cos(k arccos t_i)."""
    thetas = np.arccos(np.clip(mu.inner_products(), -1.0, 1.0))
    k = np.arange(kmax + 1)
    return np.cos(np.outer(k, thetas)) @ mu.weights()


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
    and the candidate extremes are 0-augmented; the truncation K is doubled
    until the tail probe max falls below the extreme magnitudes (or below
    tol when an extreme is near zero), and the sequence's K and tail_bound
    name that truncation.  The probe is empirical, not a proof.  For n = 2
    the eigenvalues are cos(k theta_i): with rational theta_i/pi the
    sequence is periodic and scanned exactly over one period (tail_bound 0);
    otherwise a long scan stands in for the equidistributed orbit, and
    tail_bound is the trivial sum |w_i|.
    """
    if not (1e-12 <= tol <= 1e-3):
        raise ValueError(f"tol must lie in [1e-12, 1e-3], got {tol!r}")
    R = mu.total_mass() if all(w >= 0.0 for _, w in mu.atoms) else None

    if mu.dim == 2:
        period = _rational_angle_period(mu)
        kmax = period if period is not None else _N2_SCAN_K
        lam = _cosine_eigenvalues(mu, kmax)
        tail = 0.0 if period is not None else float(np.abs(mu.weights()).sum())
        rng = SpectralRange(float(lam.min()), float(lam.max()), R)
        return rng, EigenSequence(lam, kmax, tail)

    k_cur = int(K)
    if k_cur < 1:
        raise ValueError(f"K must be positive, got {K}")
    while True:
        seq = eigenvalue_sequence(mu, min(k_cur, _K_CERT_CAP))
        m = min(0.0, float(seq.values.min()))
        big = max(0.0, float(seq.values.max()))
        if seq.tail_bound <= max(-m, tol) and seq.tail_bound <= max(big, tol):
            return SpectralRange(m, big, R), seq
        if k_cur >= _K_CERT_CAP:
            raise UncertifiedRangeError(
                f"tail probe {seq.tail_bound:.3e} still exceeds the extremes "
                f"at truncation {k_cur}",
                m,
                big,
                k_cur,
                seq.tail_bound,
            )
        k_cur *= 2


def optimize_sphere_measure(n: int, support, K: int = 64, tol: float = 1e-8):
    """Best chromatic bound over probability measures on the given support.

    Maximizes s subject to sum_i w_i Pbar_k(t_i) >= s for k = 1..K,
    sum w_i = 1, w >= 0 (a matrix game), then certifies the winner's true
    eigenvalue infimum with operator_range; if the truncation missed a
    deeper dip the row set is doubled and the game re-solved.  Returns
    (measure, SpectralRange, EigenSequence): the range and sequence of the
    last round's operator_range call, which certified the measure.
    """
    n = SphereMeasure(n, ()).dim  # the measure type validates the dimension
    ts = sorted(float(t) for t in support)
    if not ts or len(set(ts)) != len(ts):
        raise ValueError("support must be nonempty with distinct inner products")
    if any(not (-1.0 <= t < 1.0) for t in ts):
        raise ValueError("support points must lie in [-1, 1)")
    tarr = np.array(ts)

    k_rows = max(1, int(K))
    while True:
        if n == 2:
            rows = np.cos(
                np.outer(np.arange(1, k_rows + 1), np.arccos(np.clip(tarr, -1, 1)))
            )
        else:
            rows = jacobi_sequence(k_rows, _jacobi_alpha(n), tarr)[1:]
        s_star, w = solve_matrix_game(rows.T)
        mu = SphereMeasure(n, tuple(zip(ts, w)))
        if s_star >= 0.0:
            raise VacuousBoundError("optimized infimum is nonnegative; vacuous on this support")
        rng, seq = operator_range(mu, K=k_rows, tol=tol)
        if rng.m >= s_star - tol:
            break
        if k_rows >= _K_CERT_CAP:
            raise UncertifiedRangeError(
                f"game value {s_star:.6e} not certified at truncation {k_rows}",
                rng.m,
                rng.M,
                k_rows,
                s_star - rng.m,
            )
        k_rows *= 2
    return mu, rng, seq
