"""Spectral bounds for finite graphs.

All inner products use the uniform probability measure on the vertex set,
(f, g) = (1/n) sum_v f(v) g(v), so the all-ones function has norm 1 and
(A 1, 1) equals the average (weighted) degree.  Eigenvalues of the adjacency
operator under this convention coincide with the ordinary matrix eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reports import BoundReport, SpectralRange, alpha_ratio_ub, chi_frac_lb, chi_lb
from .spectral import SymMatrix, numerical_range

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
    return SymMatrix(a)


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
