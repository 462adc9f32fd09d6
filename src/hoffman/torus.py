"""Circulant discretizations of distance graphs, used as exact oracles.

Graphs on Z_m^n whose connection set is an annulus of lattice vectors are
diagonalized by characters: their eigenvalues are the FFT of the
connection-set indicator.  circulant_range reads the two extremes from the
half-box rfftn, and convergence_study compares the resulting Hoffman bounds
against their continuous targets along refining moduli, which validates the
analytic pipeline end to end.
"""

from __future__ import annotations

import numpy as np

from .errors import require_integer
from .euclidean import RadialMeasure, radial_range
from .reports import (
    KIND_ALPHA_RATIO_UB,
    KIND_CHI_LB,
    SpectralRange,
    alpha_ratio_ub,
    bounds,
    chi_lb,
)

_VERTEX_CAP = 2**24

# the columns of a convergence_study row, as the CSV header and the JSON output name them
COLUMNS = ("m", "discrete_chi_lb", "discrete_alpha_ub", "continuous_chi_lb", "continuous_alpha_ub")


def _require_size(m, n) -> tuple[int, int]:
    """(m, n) as ints: modulus >= 3, dimension >= 1 and m^n within the vertex cap."""
    m, n = require_integer(m, "modulus"), require_integer(n, "dimension")
    if m < 3:
        raise ValueError(f"modulus must be at least 3, got {m}")
    if n < 1:
        raise ValueError(f"dimension must be at least 1, got {n}")
    # 3^24 > _VERTEX_CAP, so the exponent stays small however large n is
    if m ** min(n, 24) > _VERTEX_CAP:
        raise ValueError(f"{m}^{n} vertices exceed the cap {_VERTEX_CAP}")
    return m, n


def _require_annulus(radii, tol) -> tuple[list[float], float]:
    """(radii, tol) as floats: radii positive, annulus half-width tol in (0, 1)."""
    ds = [float(d) for d in radii]
    if not ds or any(d <= 0.0 for d in ds):
        raise ValueError("radii must be positive")
    tol = float(tol)
    if not (0.0 < tol < 1.0):
        raise ValueError(f"annulus must lie in (0, 1), got {tol!r}")
    return ds, tol


def _folded(m: int) -> np.ndarray:
    """Signed representatives of Z_m: j for j <= m/2, j - m beyond."""
    f = np.arange(m, dtype=float)
    f[f > m / 2.0] -= m
    return f


def circulant_range(m: int, n: int, radii, tol: float = 0.25) -> SpectralRange:
    """(m, M, R = |S|) of the annulus circulant on Z_m^n.

    S holds the s != 0 with | ||s|| - d_i | <= tol for some lattice radius
    d_i, norms taken on folded representatives, so S = -S.  The eigenvalues
    are the FFT of S's indicator, which is real and even, so the rfftn half
    box holds every value.  The graph is |S|-regular: R = |S| exactly.
    """
    m, n = _require_size(m, n)
    ds, tol = _require_annulus(radii, tol)

    fold2 = _folded(m) ** 2
    norms = np.zeros((m,) * n)
    for axis in range(n):
        shape = [1] * n
        shape[axis] = m
        norms += fold2.reshape(shape)
    np.sqrt(norms, out=norms)
    hit = np.zeros(norms.shape, dtype=bool)
    for d in ds:
        hit |= np.abs(norms - d) <= tol
    hit.flat[0] = False
    degree = np.count_nonzero(hit)
    if degree == 0:
        raise ValueError("no lattice vector matches any radius; connection set empty")
    indicator = norms  # the norms are spent: reuse their buffer
    np.copyto(indicator, hit)
    del hit
    spec = np.fft.rfftn(indicator).real
    return SpectralRange(float(spec.min()), float(spec.max()), float(degree))


def _bound_values(rng: SpectralRange) -> tuple[float, float]:
    """(chi_lb, alpha_ub) of a range; both apply, as m < 0 < R and eps = 0."""
    reps = bounds(rng, chi_lb, alpha_ratio_ub)
    return reps[KIND_CHI_LB].value, reps[KIND_ALPHA_RATIO_UB].value


def convergence_study(n: int, radii, moduli, tol: float = 0.25):
    """Discrete Hoffman bounds along refining circulants vs continuous targets.

    For modulus m the radii are scaled to lattice units as
    round(d_i * m / m_ref) with m_ref the first modulus, so the first row is
    the coarsest discretization and later rows refine it.  Returns rows
    (m, discrete_chi_lb, discrete_alpha_ub, continuous_chi_lb,
    continuous_alpha_ub); the continuous columns are constant.  Every
    modulus, radius and the annulus are checked before any work is done.
    """
    ms = [_require_size(m, n)[0] for m in moduli]
    if not ms or any(b <= a for a, b in zip(ms, ms[1:])):
        raise ValueError("moduli must be strictly increasing")
    ds, tol = _require_annulus(radii, tol)
    m_ref = ms[0]

    uniform = RadialMeasure(n, tuple((d, 1.0 / len(ds)) for d in sorted(set(ds))))
    cont_chi, cont_alpha = _bound_values(radial_range(uniform))

    rows = []
    for m in ms:
        lattice = sorted({round(d * m / m_ref) for d in ds})
        lattice = [r for r in lattice if r > 0]
        if not lattice:
            raise ValueError(f"all radii round to zero at modulus {m}")
        chi, alpha = _bound_values(circulant_range(m, n, lattice, tol))
        rows.append((m, chi, alpha, cont_chi, cont_alpha))
    return rows


def convergence_csv(rows) -> str:
    """CSV text for a convergence table: header plus 10-significant-digit rows."""
    lines = [",".join(COLUMNS)]
    for m, dchi, dalpha, cchi, calpha in rows:
        cells = [str(int(m))] + [f"{float(v):.10g}" for v in (dchi, dalpha, cchi, calpha)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
