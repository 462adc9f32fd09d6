"""Finite graphs: parsing, adjacency, and the spectral range behind their bounds.

All inner products use the uniform probability measure on the vertex set,
(f, g) = (1/n) sum_v f(v) g(v), so the all-ones function has norm 1 and
(A 1, 1) equals the average degree.  Eigenvalues of the adjacency
operator under this convention coincide with the ordinary matrix eigenvalues.
spectral_range(g) is the finite case's range function: it builds the dense
adjacency matrix once and solves it once.  reports.bounds turns its range
into the chromatic, ratio and fractional bounds.

A Graph holds its edges as a (k, 2) int64 array.  Parsing, checking,
deduplication and adjacency assembly are whole-array numpy operations: no
Python loop runs per edge, and the parser looks only at each line's first
token before np.loadtxt reads the pairs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, require_integer
from .reports import SpectralRange

# the dense path holds several n x n float64 copies and solves in O(n^3);
# at this size one copy alone is 0.8 GB
_DENSE_VERTEX_CAP = 10_000

# a Graph's vertex indices stay below this, so that the pair key
# lo * span + hi (span <= this) fits in int64
_MAX_SPAN = 2**31


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    edges is a read-only (k, 2) int64 array of the distinct pairs u < v, in
    lexicographic order.  The constructor takes that array or any iterable
    of pairs, in either orientation and with repeats, and rejects an n that
    is not an integer (bools included), loops, endpoints outside 0..n-1 and
    endpoints of 2**31 or more.  Graphs compare by identity.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        n = require_integer(self.n, "vertex count")
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        edges = self.edges
        try:
            pairs = np.asarray(
                edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64
            )
        except OverflowError as exc:
            raise ValueError(f"edge endpoint out of range for n={n}") from exc
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"edges must be (u, v) pairs, got shape {pairs.shape}")
        lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
        bad = (lo == hi) | (lo < 0) | (hi >= n)
        if bad.any():  # report the first offending pair, in input order
            u, v = pairs[bad.argmax()].tolist()
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        # key each pair as lo * span + hi: sorting the keys orders the pairs
        # lexicographically, and span**2 stays inside int64
        span = int(hi.max()) + 1 if len(hi) else 1
        if span > _MAX_SPAN:
            raise ValueError(f"vertex {span - 1} exceeds the largest index {_MAX_SPAN - 1}")
        keys = np.sort(lo * span + hi)
        keys = keys[np.diff(keys, prepend=-1) > 0]  # keys are nonnegative
        lo, hi = np.divmod(keys, span)
        pairs = np.stack([lo, hi], axis=1)
        pairs.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", pairs)


# a line that starts with one of these can only be a "u v" pair
_PAIR_START = frozenset("0123456789+-")


def _edge_rows(lines, header: list):
    """Yield the "u v" text of each edge line, checking the lines around them.

    Looks only at a line's first token: np.loadtxt reads the pairs.  Appends
    the n of the "p edge n m" header to header when it is read.  A DIMACS
    row is an "e u v" line without its "e", so it is 1-indexed.
    """
    first_pair = None
    for raw in lines:
        if raw[:1] not in _PAIR_START:
            line = raw.lstrip()
            if not line or line[0] == "#":
                continue
            after = line[1:2]
            token = line[0] if after in ("", "#") or after.isspace() else None
            if token == "c":
                continue
            if token == "p":
                parts = _content(line).split()
                if header:
                    raise ValueError("duplicate problem header")
                if len(parts) < 3 or parts[1] != "edge":
                    raise ValueError(f"malformed header line {_content(line)!r}")
                header.append(int(parts[2]))
                if first_pair is not None:
                    raise ValueError(f"unrecognised line {first_pair!r} in DIMACS input")
                continue
            if token == "e":
                if not header:
                    raise ValueError("edge descriptor before problem header")
                row = line[1:]
                rest = row.lstrip()
                if not rest or rest[0] == "#":  # np.loadtxt would skip the row
                    raise ValueError(f"malformed edge line {_content(line)!r}")
                yield row
                continue
        if header:
            raise ValueError(f"unrecognised line {_content(raw)!r} in DIMACS input")
        if first_pair is None:
            first_pair = _content(raw)
        yield raw


def _content(line: str) -> str:
    """The line without its comment and surrounding whitespace."""
    return line.split("#", 1)[0].strip()


def _int_pairs(rows) -> np.ndarray:
    """The rows as a (k, 2) int64 array; ValueError unless each is two integers."""
    with warnings.catch_warnings():
        # no rows at all is an edgeless graph, not worth a warning
        warnings.simplefilter("ignore", UserWarning)
        pairs = np.loadtxt(rows, dtype=np.int64, comments="#", ndmin=2)
    if pairs.size and pairs.shape[1] != 2:
        raise ValueError(f"expected 2 integers per line, got {pairs.shape[1]}")
    return pairs.reshape(-1, 2)


def _read_pairs(lines) -> tuple[np.ndarray, int | None]:
    """The edge pairs of the lines as written, and the header's n if any."""
    header = []
    try:
        return _int_pairs(_edge_rows(lines, header)), (header[0] if header else None)
    except ValueError:
        # name the first malformed line; a misplaced line raises again from
        # _edge_rows if it comes first
        dimacs = []
        for row in _edge_rows(lines, dimacs):
            try:
                _int_pairs([row])
            except ValueError:
                if dimacs:
                    raise ValueError(f"malformed edge line {_content('e' + row)!r}") from None
                raise ValueError(f"expected 'u v' pair, got {_content(row)!r}") from None
        raise


def parse_graph(text: str) -> Graph:
    """Parse plain edge-list text or a DIMACS-like format.

    Plain format: one "u v" pair per line, 0-indexed, '#' starts a comment;
    n is the largest endpoint plus one.  DIMACS-like: a "p edge n m" header,
    'c' comment lines, and 1-indexed "e u v" edge lines; a text with a
    header holds no plain pair line, before or after it.  Endpoints are
    decimal integers with an optional sign that fit in int64.
    """
    # the line list lives only inside _read_pairs, so Graph's temporaries
    # do not add to its memory peak
    pairs, n = _read_pairs(text.splitlines())
    if n is not None:
        pairs -= 1
    else:
        n = int(pairs.max()) + 1 if len(pairs) else 0
    return Graph(max(n, 0), pairs)


def read_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def adjacency_matrix(g: Graph) -> np.ndarray:
    """The read-only n x n float64 adjacency matrix, 0/1 and symmetric."""
    if g.n < 1:
        raise ValueError("adjacency matrix needs at least one vertex")
    if g.n > _DENSE_VERTEX_CAP:
        raise ValueError(
            f"graph has {g.n} vertices; the dense eigen-solve takes at most "
            f"{_DENSE_VERTEX_CAP}"
        )
    a = np.zeros((g.n, g.n))
    u, v = g.edges.T
    a[u, v] = 1.0
    a[v, u] = 1.0
    a.flags.writeable = False
    return a


def spectral_range(g: Graph) -> SpectralRange:
    """(m, M) of g's adjacency operator, with R = (A 1, 1) and eps = ||A 1 - R 1||.

    m and M come from one LAPACK symmetric eigen-solve without eigenvectors,
    deterministic for identical inputs.  R is the average degree, the R that
    minimises eps; eps measures how far the all-ones function is from being
    an eigenfunction with value R, and vanishes for regular graphs.
    """
    a = adjacency_matrix(g)
    R = float(a.sum()) / g.n
    eps = math.sqrt(float(np.mean((a.sum(axis=1) - R) ** 2)))
    try:
        vals = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
    return SpectralRange(float(vals[0]), float(vals[-1]), R, eps)
