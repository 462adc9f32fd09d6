"""Circulant discretizations of distance graphs, used as exact oracles.

Graphs on Z_m^n whose connection set is an annulus of lattice vectors are
diagonalized by characters, so their full spectrum is available as a
multidimensional FFT of the connection-set indicator.  Comparing the
resulting Hoffman bounds against their continuous targets validates the
analytic pipeline end to end; the tests expand small circulants vertex by
vertex to compare against dense eigensolvers and brute force.
"""

from __future__ import annotations

from dataclasses import dataclass

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

_CSV_HEADER = "m,discrete_chi_lb,discrete_alpha_ub,continuous_chi_lb,continuous_alpha_ub"


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


@dataclass(frozen=True)
class CirculantGraph:
    """Cayley graph of Z_m^n: x ~ y whenever x - y lies in the connection set."""

    modulus: int
    dim: int
    connection_set: frozenset

    def __post_init__(self):
        m, n = _require_size(self.modulus, self.dim)
        cset = frozenset(tuple(int(c) % m for c in s) for s in self.connection_set)
        zero = (0,) * n
        for s in cset:
            if len(s) != n:
                raise ValueError(f"connection element {s} has wrong arity")
            if s == zero:
                raise ValueError("connection set must not contain 0")
            if tuple((-c) % m for c in s) not in cset:
                raise ValueError(f"connection set not closed under negation at {s}")
        object.__setattr__(self, "modulus", m)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "connection_set", cset)

    @property
    def vertex_count(self) -> int:
        return self.modulus**self.dim

    @property
    def degree(self) -> int:
        return len(self.connection_set)


def _folded(m: int) -> np.ndarray:
    """Signed representatives of Z_m: j for j <= m/2, j - m beyond."""
    f = np.arange(m, dtype=float)
    f[f > m / 2.0] -= m
    return f


def build_torus_graph(m: int, n: int, radii, tol: float = 0.25) -> CirculantGraph:
    """Annulus circulant: s != 0 with | ||s|| - d_i | <= tol for some radius.

    Norms are taken on folded representatives, so the set is automatically
    symmetric; radii are in lattice units.
    """
    m, n = _require_size(m, n)
    ds = [float(d) for d in radii]
    if not ds or any(d <= 0.0 for d in ds):
        raise ValueError("radii must be positive")
    tol = float(tol)
    if not (0.0 < tol < 1.0):
        raise ValueError(f"tol must lie in (0, 1), got {tol!r}")

    fold2 = _folded(m) ** 2
    norm2 = np.zeros((m,) * n)
    for axis in range(n):
        shape = [1] * n
        shape[axis] = m
        norm2 = norm2 + fold2.reshape(shape)
    norms = np.sqrt(norm2)
    mask = np.zeros_like(norms, dtype=bool)
    for d in ds:
        mask |= np.abs(norms - d) <= tol
    mask &= norm2 > 0.0
    members = np.argwhere(mask)
    if members.size == 0:
        raise ValueError("no lattice vector matches any radius; connection set empty")
    return CirculantGraph(m, n, frozenset(map(tuple, members.tolist())))


def circulant_spectrum(g: CirculantGraph) -> np.ndarray:
    """All eigenvalues (character sums), nonincreasing.

    lambda_u = sum_{s in S} cos(2 pi u.s / m), computed for every u at once
    as the FFT of the connection-set indicator.
    """
    m, n = g.modulus, g.dim
    indicator = np.zeros((m,) * n)
    idx = np.array(sorted(g.connection_set), dtype=int)
    indicator[tuple(idx.T)] = 1.0
    spec = np.fft.fftn(indicator).real.ravel()
    return np.sort(spec)[::-1]


def _bound_values(rng: SpectralRange) -> tuple[float, float]:
    """(chi_lb, alpha_ub) of a range; both apply, as m < 0 < R and eps = 0."""
    reps = bounds(rng, chi_lb, alpha_ratio_ub)
    return reps[KIND_CHI_LB].value, reps[KIND_ALPHA_RATIO_UB].value


def _circulant_bounds(m: int, n: int, lattice_radii, tol: float):
    """(chi_lb, alpha_ub) from the exact circulant spectrum.

    The graph is regular of degree |S| with A1 = |S|1, so the ratio bound
    needs no degree-fluctuation correction.
    """
    g = build_torus_graph(m, n, lattice_radii, tol)
    spec = circulant_spectrum(g)
    return _bound_values(SpectralRange(float(spec[-1]), float(spec[0]), float(g.degree)))


def convergence_study(n: int, radii, moduli, tol: float = 0.25):
    """Discrete Hoffman bounds along refining circulants vs continuous targets.

    For modulus m the radii are scaled to lattice units as
    round(d_i * m / m_ref) with m_ref the first modulus, so the first row is
    the coarsest discretization and later rows refine it.  Returns rows
    (m, discrete_chi_lb, discrete_alpha_ub, continuous_chi_lb,
    continuous_alpha_ub); the continuous columns are constant.  Every
    modulus is checked against the vertex cap before any work is done.
    """
    ms = [_require_size(m, n)[0] for m in moduli]
    if not ms or any(b <= a for a, b in zip(ms, ms[1:])):
        raise ValueError("moduli must be strictly increasing")
    ds = [float(d) for d in radii]
    if not ds or any(d <= 0.0 for d in ds):
        raise ValueError("radii must be positive")
    m_ref = ms[0]

    uniform = RadialMeasure(n, tuple((d, 1.0 / len(ds)) for d in sorted(set(ds))))
    cont_chi, cont_alpha = _bound_values(radial_range(uniform)[0])

    rows = []
    for m in ms:
        lattice = sorted({round(d * m / m_ref) for d in ds})
        lattice = [r for r in lattice if r > 0]
        if not lattice:
            raise ValueError(f"all radii round to zero at modulus {m}")
        chi, alpha = _circulant_bounds(m, n, lattice, tol)
        rows.append((m, chi, alpha, cont_chi, cont_alpha))
    return rows


def convergence_csv(rows) -> str:
    """CSV text for a convergence table: header plus 10-significant-digit rows."""
    lines = [_CSV_HEADER]
    for m, dchi, dalpha, cchi, calpha in rows:
        cells = [str(int(m))] + [f"{float(v):.10g}" for v in (dchi, dalpha, cchi, calpha)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
