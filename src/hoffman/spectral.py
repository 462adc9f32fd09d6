"""A checked symmetric matrix type and its numerical range (m, M).

The extreme eigenvalues come from LAPACK's symmetric eigenvalue driver via
numpy, without eigenvectors; results are deterministic for identical inputs.
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
    def _wrap(cls, a: np.ndarray) -> SymMatrix:
        """Hold a, without a copy or a check, for a builder that made a
        finite, symmetric float array and keeps no reference to it."""
        a.flags.writeable = False
        obj = object.__new__(cls)
        object.__setattr__(obj, "entries", a)
        return obj

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def to_dense(self) -> np.ndarray:
        return self.entries


def numerical_range(a: SymMatrix) -> tuple[float, float]:
    """(m, M): the extreme eigenvalues, computed without eigenvectors."""
    try:
        vals = np.linalg.eigvalsh(a.entries)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
    return float(vals[0]), float(vals[-1])
