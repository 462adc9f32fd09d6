"""Dense symmetric eigendecomposition with a checked symmetric matrix type.

Eigenvalues are reported in non-increasing order throughout the package, so
m(A) is the last entry and M(A) the first.  The backing solver is LAPACK's
symmetric driver via numpy; results are deterministic for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError


@dataclass(frozen=True)
class SymMatrix:
    """A real symmetric matrix with finite entries, held as a read-only dense
    array.  Symmetry is checked to 1e-12 relative to the largest entry."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        scale = max(1.0, float(np.abs(a).max()))
        skew = a - a.T
        if np.abs(skew, out=skew).max() > 1e-12 * scale:
            raise ValueError("matrix is not symmetric within tolerance")
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @classmethod
    def from_dense(cls, a) -> "SymMatrix":
        return cls(a)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def to_dense(self) -> np.ndarray:
        return self.entries

    def is_zero(self) -> bool:
        return not np.any(self.entries)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in non-increasing order; column i of eigenvectors pairs with
    eigenvalue i.  Eigenvectors may be None when only the range was requested."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("eigenvalues must be a nonempty vector")
        if np.any(np.diff(vals) > 0.0):
            raise ValueError("eigenvalues must be sorted non-increasing")
        if self.eigenvectors is not None:
            vecs = np.asarray(self.eigenvectors, dtype=float)
            if vecs.shape != (vals.size, vals.size):
                raise ValueError("eigenvector array must be square of matching size")
            object.__setattr__(self, "eigenvectors", vecs)
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def max(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def min(self) -> float:
        return float(self.eigenvalues[-1])


def eigen_decompose(a: SymMatrix) -> Spectrum:
    """Full eigendecomposition of a SymMatrix.

    Raises ConvergenceError if the QL/QR iteration inside LAPACK fails to
    converge.
    """
    try:
        vals, vecs = np.linalg.eigh(a.entries)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hardware dependent
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
    return Spectrum(vals[::-1].copy(), vecs[:, ::-1].copy())


def numerical_range(a: SymMatrix) -> tuple[float, float]:
    """(m, M): the extreme eigenvalues, computed without eigenvectors."""
    try:
        vals = np.linalg.eigvalsh(a.entries)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
    return float(vals[0]), float(vals[-1])
