"""Spectral bounds for finite graphs, with exact oracles for cross-checking.

All inner products use the uniform probability measure on the vertex set,
(f, g) = (1/n) sum_v f(v) g(v), so the all-ones function has norm 1 and
(A 1, 1) equals the average (weighted) degree.  Eigenvalues of the adjacency
operator under this convention coincide with the ordinary matrix eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoNegativeSpectrumError, VacuousBoundError
from .reports import BoundReport, SpectralRange, alpha_ratio_ub, chi_frac_lb, chi_lb
from .spectral import Spectrum, SymMatrix, eigen_decompose, numerical_range

_ALPHA_CAP = 30
_CHI_CAP = 20
# the dense path holds several n x n float64 copies and solves in O(n^3);
# at this size one copy alone is 0.8 GB
_DENSE_VERTEX_CAP = 10_000


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset

    def __post_init__(self):
        n = int(self.n)
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = set()
        for e in self.edges:
            u, v = e
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(norm))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        return cls(n, frozenset(tuple(e) for e in edges))

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def degree_sequence(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adjacency_bitsets(self) -> list[int]:
        adj = [0] * self.n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return adj


def parse_graph(text: str) -> Graph:
    """Parse plain edge-list text or a DIMACS-like format.

    Plain format: one "u v" pair per line, 0-indexed, '#' starts a comment;
    n is the largest endpoint plus one.  DIMACS-like: a "p edge n m" header,
    'c' comment lines, and 1-indexed "e u v" edge lines.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    dimacs_n = None
    edges = []
    seen_header = False
    for line in lines:
        parts = line.split()
        if parts[0] == "c":
            continue
        if parts[0] == "p":
            if seen_header:
                raise ValueError("duplicate problem header")
            if len(parts) < 3 or parts[1] != "edge":
                raise ValueError(f"malformed header line {line!r}")
            dimacs_n = int(parts[2])
            seen_header = True
            continue
        if parts[0] == "e":
            if not seen_header:
                raise ValueError("edge descriptor before problem header")
            if len(parts) != 3:
                raise ValueError(f"malformed edge line {line!r}")
            u, v = int(parts[1]) - 1, int(parts[2]) - 1
            edges.append((u, v))
            continue
        if seen_header:
            raise ValueError(f"unrecognised line {line!r} in DIMACS input")
        if len(parts) != 2:
            raise ValueError(f"expected 'u v' pair, got {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if seen_header:
        n = dimacs_n
    else:
        n = 1 + max((max(e) for e in edges), default=-1)
    return Graph.from_edges(max(n, 0), edges)


def read_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def adjacency_matrix(g: Graph) -> SymMatrix:
    if g.n < 1:
        raise ValueError("adjacency matrix needs at least one vertex")
    if g.n > _DENSE_VERTEX_CAP:
        raise ValueError(
            f"graph has {g.n} vertices; the dense eigen-solve takes at most "
            f"{_DENSE_VERTEX_CAP}"
        )
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    return SymMatrix.from_dense(a)


def is_independent(g: Graph, subset) -> bool:
    s = set(int(v) for v in subset)
    for v in s:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    for u, v in g.edges:
        if u in s and v in s:
            return False
    return True


@dataclass(frozen=True)
class WeightedAdjacency:
    """A symmetric edge weighting of a graph: zero diagonal, support on edges."""

    graph: Graph
    matrix: SymMatrix

    def __post_init__(self):
        if self.matrix.size != self.graph.n:
            raise ValueError("weight matrix size does not match the graph")
        dense = self.matrix.to_dense()
        if np.any(np.diag(dense) != 0.0):
            raise ValueError("diagonal must be zero")
        mask = np.zeros_like(dense, dtype=bool)
        for u, v in self.graph.edges:
            mask[u, v] = mask[v, u] = True
        off = dense.copy()
        off[mask] = 0.0
        if np.any(off != 0.0):
            raise ValueError("weights supported outside the edge set")


def spectral_range(a: SymMatrix, R: float | None = None) -> SpectralRange:
    """(m, M) of a from one eigen-solve, with R and eps = ||A 1 - R 1||.

    eps measures how far the all-ones function is from being an
    eigenfunction with value R.  The default R = (A 1, 1), the average
    (weighted) degree, minimises eps over rank-one corrections; for regular
    graphs eps vanishes.
    """
    dense = a.to_dense()
    if R is None:
        R = float(dense.sum()) / a.size
    R = float(R)
    eps = math.sqrt(float(np.mean((dense.sum(axis=1) - R) ** 2)))
    m, M = numerical_range(a)
    return SpectralRange(m, M, R, eps)


def hoffman_chi_bound(a: SymMatrix) -> BoundReport:
    """Chromatic lower bound (M - m)/(-m)."""
    return chi_lb(spectral_range(a))


def ratio_bound(a: SymMatrix, R: float | None = None) -> BoundReport:
    """Independence-ratio upper bound (-m + 2 eps)/(R - m - eps); see spectral_range."""
    return alpha_ratio_ub(spectral_range(a, R))


def fractional_chi_bound(a: SymMatrix) -> BoundReport:
    """Fractional-chromatic lower bound ((A1,1) - m)/(-m)."""
    return chi_frac_lb(spectral_range(a))


def brute_force_alpha(g: Graph) -> int:
    """Exact independence number by branch and bound over vertex bitsets."""
    if g.n > _ALPHA_CAP:
        raise ValueError(f"brute-force alpha capped at {_ALPHA_CAP} vertices")
    if g.n == 0:
        return 0
    adj = g.adjacency_bitsets()
    best = 0

    def expand(cand: int, size: int):
        nonlocal best
        count = cand.bit_count()
        if size + count <= best:
            return
        if cand == 0:
            best = size
            return
        # branch on the candidate vertex with most candidate neighbors
        pivot, pivot_deg = -1, -1
        rest = cand
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            d = (adj[v] & cand).bit_count()
            if d > pivot_deg:
                pivot, pivot_deg = v, d
        if pivot_deg == 0:
            # remaining candidates are pairwise non-adjacent
            best = max(best, size + count)
            return
        expand(cand & ~(adj[pivot] | (1 << pivot)), size + 1)
        expand(cand & ~(1 << pivot), size)

    expand((1 << g.n) - 1, 0)
    return best


def brute_force_chi(g: Graph) -> int:
    """Exact chromatic number by iterative deepening on the color budget."""
    if g.n > _CHI_CAP:
        raise ValueError(f"brute-force chi capped at {_CHI_CAP} vertices")
    if g.n == 0:
        return 0
    if not g.edges:
        return 1
    adj = g.adjacency_bitsets()
    deg = g.degree_sequence()
    order = sorted(range(g.n), key=lambda v: -deg[v])

    def colorable(k: int) -> bool:
        colors = [-1] * g.n

        def bt(i: int, used: int) -> bool:
            if i == g.n:
                return True
            v = order[i]
            forbidden = 0
            nb = adj[v]
            while nb:
                u = (nb & -nb).bit_length() - 1
                nb &= nb - 1
                if colors[u] >= 0:
                    forbidden |= 1 << colors[u]
            # allowing at most one fresh color per level kills color symmetry
            for c in range(min(used + 1, k)):
                if not forbidden & (1 << c):
                    colors[v] = c
                    if bt(i + 1, max(used, c + 1)):
                        return True
                    colors[v] = -1
            return False

        return bt(0, 0)

    for k in range(2, g.n + 1):
        if colorable(k):
            return k
    raise AssertionError("unreachable: n colors always suffice")


def _edge_matrix(g: Graph, x: np.ndarray, edge_list) -> np.ndarray:
    b = np.zeros((g.n, g.n))
    for w, (u, v) in zip(x, edge_list):
        b[u, v] = w
        b[v, u] = w
    return b


def _frob(x: np.ndarray) -> float:
    # Frobenius norm of the symmetric matrix carried by the edge vector
    return math.sqrt(2.0 * float(np.dot(x, x)))


def optimize_weights(
    g: Graph, steps: int = 200, nonneg: bool = True
) -> tuple[WeightedAdjacency, BoundReport]:
    """Search edge weightings that sharpen the chromatic bound (M - m)/(-m).

    Projected subgradient ascent from the uniform weighting: the gradient is
    assembled from the extreme eigenvectors, negatives are clamped in nonneg
    mode, and the iterate is renormalized to unit Frobenius norm.  The best
    iterate seen is returned, so the result never falls below the plain
    Hoffman bound of the start point.  No global optimality is claimed.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    edge_list = g.edge_list()
    if not edge_list:
        raise VacuousBoundError("graph has no edges; nothing to weight")

    def evaluate(x: np.ndarray) -> tuple[float, Spectrum]:
        spec = eigen_decompose(SymMatrix.from_dense(_edge_matrix(g, x, edge_list)))
        try:
            return chi_lb(SpectralRange(spec.min, spec.max)).value, spec
        except NoNegativeSpectrumError:
            return -math.inf, spec

    x = np.ones(len(edge_list))
    x /= _frob(x)
    best_x = x.copy()
    best_val, best_spec = evaluate(x)

    cur = x.copy()
    for k in range(1, steps + 1):
        val, spec = evaluate(cur)
        if val > best_val:
            best_val, best_spec, best_x = val, spec, cur.copy()
        m, M = spec.min, spec.max
        if m >= -1e-14:
            cur = best_x.copy()
            continue
        u = spec.eigenvectors[:, 0]
        v = spec.eigenvectors[:, -1]
        grad = np.array(
            [
                2.0 * u[p] * u[q] / (-m) + (M / (m * m)) * 2.0 * v[p] * v[q]
                for p, q in edge_list
            ]
        )
        gn = _frob(grad)
        if gn < 1e-15:
            break
        cur = cur + (1.0 / math.sqrt(k)) * grad / gn
        if nonneg:
            cur = np.maximum(cur, 0.0)
        norm = _frob(cur)
        if norm < 1e-15:
            cur = best_x.copy()
            continue
        cur = cur / norm

    matrix = SymMatrix.from_dense(_edge_matrix(g, best_x, edge_list))
    return WeightedAdjacency(g, matrix), chi_lb(SpectralRange(best_spec.min, best_spec.max))
