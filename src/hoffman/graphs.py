"""Finite graphs: parsing, adjacency, and the spectral range behind their bounds.

All inner products use the uniform probability measure on the vertex set,
(f, g) = (1/n) sum_v f(v) g(v), so the all-ones function has norm 1 and
(A 1, 1) equals the average (weighted) degree.  Eigenvalues of the adjacency
operator under this convention coincide with the ordinary matrix eigenvalues.
spectral_range is the finite case's range function; reports.bounds turns its
range into the chromatic, ratio and fractional bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reports import SpectralRange
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


def parse_graph(text: str) -> Graph:
    """Parse plain edge-list text or a DIMACS-like format.

    Plain format: one "u v" pair per line, 0-indexed, '#' starts a comment;
    n is the largest endpoint plus one.  DIMACS-like: a "p edge n m" header,
    'c' comment lines, and 1-indexed "e u v" edge lines; a text with a
    header holds no plain pair line, before or after it.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    dimacs = any(line.split()[0] == "p" for line in lines)
    dimacs_n = None
    edges = []
    for line in lines:
        parts = line.split()
        if parts[0] == "c":
            continue
        if parts[0] == "p":
            if dimacs_n is not None:
                raise ValueError("duplicate problem header")
            if len(parts) < 3 or parts[1] != "edge":
                raise ValueError(f"malformed header line {line!r}")
            dimacs_n = int(parts[2])
            continue
        if parts[0] == "e":
            if dimacs_n is None:
                raise ValueError("edge descriptor before problem header")
            if len(parts) != 3:
                raise ValueError(f"malformed edge line {line!r}")
            u, v = int(parts[1]) - 1, int(parts[2]) - 1
            edges.append((u, v))
            continue
        if dimacs:
            raise ValueError(f"unrecognised line {line!r} in DIMACS input")
        if len(parts) != 2:
            raise ValueError(f"expected 'u v' pair, got {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if dimacs:
        n = dimacs_n
    else:
        n = 1 + max((max(e) for e in edges), default=-1)
    return Graph(max(n, 0), edges)


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


def spectral_range(a: SymMatrix) -> SpectralRange:
    """(m, M) of a from one eigen-solve, with R = (A 1, 1) and eps = ||A 1 - R 1||.

    R is the average (weighted) degree, the R that minimises eps; eps
    measures how far the all-ones function is from being an eigenfunction
    with value R, and vanishes for regular graphs.
    """
    dense = a.to_dense()
    R = float(dense.sum()) / a.size
    eps = math.sqrt(float(np.mean((dense.sum(axis=1) - R) ** 2)))
    m, M = numerical_range(a)
    return SpectralRange(m, M, R, eps)
