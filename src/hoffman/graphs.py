"""Finite graphs: parsing, adjacency, and the spectral range behind their bounds.

All inner products use the uniform probability measure on the vertex set,
(f, g) = (1/n) sum_v f(v) g(v), so the all-ones function has norm 1 and
(A 1, 1) equals the average degree.  Eigenvalues of the adjacency
operator under this convention coincide with the ordinary matrix eigenvalues.
spectral_range(g) is the finite case's range function, and reports.bounds
turns its range into the chromatic, ratio and fractional bounds:

- dense, below 500 vertices or without an edge: eigvalsh of the n x n
  float64 matrix A gives m and M;
- lanczos, for graphs with 500 to 10000 vertices and at least one edge,
  where it measured faster, the factor included: Lanczos gives M as its
  largest Ritz value, and stops once the error estimates of its extreme Ritz
  values (Kato-Temple) are small.  A completed floating-point Cholesky
  factorization of A + tI, t just above -lambda_min, proves m = -t - delta
  <= lambda_min (Higham, Accuracy and Stability, Thm 10.3; delta is about
  n^2 2^-53 t).  While 16 |E| <= n^2, Lanczos sums each vertex's run of the
  arc list, sorted by source and then target, with np.add.reduceat, and the
  factor first eliminates the independent set I that greedy takes from the
  vertices with deg(v)^2 <= n, by degree and then frac(v * golden ratio).
  I's columns need no sum (l_vv = fl(sqrt(t)), l_jv = fl(1 / l_vv)), so
  only S = (A + tI)_JJ less their products, J the other vertices, is built
  and factored in place.  Above that density Lanczos multiplies by the
  buffer A, which is then factored whole in place.

A give-up at Lanczos's step cap sends A to eigvalsh (the buffer, or A built
then), and so does a failed factorization (the smallest Ritz value missed
a smaller eigenvalue), with A built anew as the factor left NaN.  LAPACK
gets each symmetric matrix as its column-major view a.T: the same bits,
which numpy copies into LAPACK's layout without transposing.

A Graph holds its edges as a (k, 2) int64 array.  Parsing, checking,
deduplication and adjacency assembly are whole-array numpy operations: no
Python loop runs per edge or per well-formed line.  The parser reads every
line's first bytes at once from the text's UTF-8 bytes, checks the line
order on index arrays and reads all rows with one np.loadtxt call.  Python
reads only "c" and "p" lines and lines that start with whitespace or
another byte, and searches a refused text for the first bad line to name
it.
"""

from __future__ import annotations

import io
import math
import mmap
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import ConvergenceError, read_text, require_integer
from .reports import SpectralRange

# both paths hold two n x n float64 arrays (the matrix and LAPACK's copy of
# it) and work in O(n^3): the dense eigen-solve, and the Cholesky factor
# that proves m on the Lanczos path.  At this size one array is 0.8 GB.
_DENSE_VERTEX_CAP = 10_000

# the smallest graph the finite benchmark times (its 500/100 slot).  There
# the Lanczos path, its factor included, took 0.70 times eigvalsh's time on
# one BLAS thread (geometric mean over 16 random graphs of degree 6 to n/2,
# medians of 7 alternating runs; faster on 15).  It was also faster on most
# graphs down to about 256 vertices, but no benchmark slot times that range
# yet.  The arc list's product beat the dense one at density 1/8 and lost
# 3x at 1/2; at 1/5 (the 800/160 bench slot) the benchmark's latency tail
# rose 14 %, hence 16 |E| <= n^2 in spectral_range
_LANCZOS_MIN_VERTICES = 500
_LANCZOS_MAX_STEPS = 200
_LANCZOS_CHECK_EVERY = 10  # steps between two eigen-solves of the tridiagonal T
# a Ritz value has converged when its error estimate is at most this times
# max(1, theta_max)
_LANCZOS_RTOL = 1e-11
_DGKS = 1 / math.sqrt(2.0)
_UNIT_ROUNDOFF = Fraction(1, 2**53)
_SMALLEST_SUBNORMAL = Fraction(1, 2**1074)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

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


# str.splitlines' one-byte line breaks besides "\n"; "\r\n", "\x85", "\u2028"
# and "\u2029" become "\n" in the text, before it is encoded
_BYTE_BREAKS = b"\v\f\r\x1c\x1d\x1e"
_TO_NEWLINE = bytes.maketrans(_BYTE_BREAKS, b"\n" * len(_BYTE_BREAKS))

# what a line's first byte makes it: a "u v" row, a line np.loadtxt skips,
# an "e u v" row, or a line read in Python.  An "e" followed by a space or
# tab is an "e u v" row without Python.
_SKIP, _PAIR, _EDGE, _OTHER = range(4)
_FIRST_BYTE = np.full(256, _OTHER, dtype=np.int8)
_FIRST_BYTE[list(b"0123456789+-")] = _PAIR
_FIRST_BYTE[list(b"#\n")] = _SKIP

_DECIMAL = re.compile(r"[+-]?[0-9]+")

# a str may hold lone surrogates (not one read from a UTF-8 file); they pass
# through the bytes as they are
_SURROGATES = "surrogatepass"


def _content(line: str) -> str:
    """The line without its comment and surrounding whitespace."""
    return line.split("#", 1)[0].strip()


def _header_vertices(line: str) -> int | None:
    """N of a "p edge N [M]" line, or None unless N and M are decimal integers and N >= 0."""
    parts = _content(line).split()
    if len(parts) not in (3, 4) or parts[1] != "edge":
        return None
    if not all(map(_DECIMAL.fullmatch, parts[2:])):
        return None
    try:
        n = int(parts[2])
    except ValueError:  # more digits than int() converts
        return None
    return n if n >= 0 else None


def _line_bytes(text: str) -> tuple[bytearray, np.ndarray]:
    """The text as UTF-8 with each line break one b"\n", and the offset of each break.

    Line i of the bytes is text.splitlines()[i]; a last line, after the
    appended break, is empty.
    """
    # each rewrite runs only on a text that needs it: a miss costs a memchr
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if not text.isascii():
        for brk in "\x85\u2028\u2029":
            text = text.replace(brk, "\n")
    buf = bytearray(text, "utf-8", _SURROGATES)
    if any(brk in buf for brk in _BYTE_BREAKS):
        buf = buf.translate(_TO_NEWLINE)
    buf.append(ord("\n"))
    return buf, np.flatnonzero(np.frombuffer(buf, np.uint8) == ord("\n"))


def _loaded_pairs(buf: bytearray, end: int, rows: int) -> np.ndarray | None:
    """The pairs of buf[:end] as a (rows, 2) int64 array; None unless it holds exactly that."""
    with warnings.catch_warnings():
        # no rows at all is an edgeless graph, not worth a warning
        warnings.simplefilter("ignore", UserWarning)
        try:
            pairs = np.loadtxt(
                io.StringIO(str(memoryview(buf)[:end], "utf-8", _SURROGATES)),
                dtype=np.int64,
                comments="#",
                ndmin=2,
            )
        except ValueError:
            return None
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    return pairs if pairs.shape == (rows, 2) else None


def _edge_pairs(text: str) -> tuple[np.ndarray, int | None]:
    """The edge pairs of the text as written, and the header's N if it has one."""
    buf, ends = _line_bytes(text)
    data = np.frombuffer(buf, np.uint8)
    starts = np.concatenate(([0], ends[:-1] + 1))
    first = data[starts]
    kind = _FIRST_BYTE[first]
    at = np.flatnonzero(first == ord("e"))
    second = data[starts[at] + 1]
    at = at[(second == ord(" ")) | (second == ord("\t"))]
    kind[at] = _EDGE
    data[starts[at]] = ord(" ")
    headers = []  # (line index, line) of each "p" line
    for i in np.flatnonzero(kind == _OTHER).tolist():
        line = buf[starts[i] : ends[i]].decode("utf-8", _SURROGATES).lstrip()
        after = line[1:2]
        token = line[:1] if after in ("", "#") or after.isspace() else ""
        if token in ("c", "e", "p"):  # blank the letter where the line has it
            at = ends[i] - len(line.encode("utf-8", _SURROGATES))
            data[at] = ord(" " if token == "e" else "#")
        if token == "p":
            headers.append((i, line))
        skipped = token in ("c", "p") or line[:1] in ("", "#")
        kind[i] = _EDGE if token == "e" else _SKIP if skipped else _PAIR
    rows = np.flatnonzero((kind == _PAIR) | (kind == _EDGE))
    misplaced = _misplaced(kind, headers)
    pairs = None if misplaced else _loaded_pairs(buf, len(buf), len(rows))
    if pairs is None:
        raise ValueError(_first_fault(text.splitlines(), buf, ends, kind, rows, misplaced))
    return pairs, (_header_vertices(headers[0][1]) if headers else None)


def _misplaced(kind, headers) -> list[tuple[int, str, int]]:
    """The first line of each way the lines break the format's order.

    Each is (line index, message format, index of the line whose content
    the message names): a second header, a malformed header, pair lines
    before or after a header, or an "e" line before it (or in a text
    without one).
    """
    unrecognised = "unrecognised line {!r} in DIMACS input"
    pair_at = np.flatnonzero(kind == _PAIR)
    edge_at = np.flatnonzero(kind == _EDGE)
    h = headers[0][0] if headers else len(kind)
    found = []
    if len(headers) > 1:
        found.append((headers[1][0], "duplicate problem header", headers[1][0]))
    if headers and _header_vertices(headers[0][1]) is None:
        found.append((h, "malformed header line {!r}", h))
    elif headers and pair_at.size and pair_at[0] < h:
        found.append((h, unrecognised, pair_at[0]))
    late = pair_at[pair_at > h]
    if late.size:
        found.append((late[0], unrecognised, late[0]))
    if edge_at.size and edge_at[0] < h:
        found.append((edge_at[0], "edge descriptor before problem header", edge_at[0]))
    return found


def _first_fault(lines, buf, ends, kind, rows, misplaced) -> str:
    """The message for the first bad line: misplaced, or a row that is not two integers.

    The rows before the first misplaced line are bisected with np.loadtxt.
    """
    stop, message, named = min(misplaced, default=(len(kind), None, None))
    rows = rows[rows < stop]

    def loads(k):
        return k == 0 or _loaded_pairs(buf, ends[rows[k - 1]], k) is not None

    if not loads(len(rows)):
        lo, hi = 0, len(rows)  # rows[:lo] load, rows[:hi] do not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if loads(mid) else (lo, mid)
        named = rows[hi - 1]
        edge = kind[named] == _EDGE
        message = "malformed edge line {!r}" if edge else "expected 'u v' pair, got {!r}"
    return message.format(_content(lines[named]))


def parse_graph(text: str) -> Graph:
    """Parse plain edge-list text or a DIMACS-like format.

    Plain format: one "u v" pair per line, 0-indexed, '#' starts a comment;
    n is the largest endpoint plus one.  DIMACS-like: a "p edge N M" header
    (M may be left out), 'c' comment lines, and 1-indexed "e u v" edge
    lines; a text with a header holds no plain pair line, before or after
    it.  N and M are decimal integers, N >= 0.  Endpoints are integers as
    np.loadtxt reads them: decimal, with an optional sign, inside int64.
    Lines are those of str.splitlines.  A refused text raises ValueError
    naming its first bad line.

    Each line's first byte (and for "e" its second) is read from the
    text's UTF-8 bytes for every line at once.  Only lines that start
    otherwise ("c" and "p" lines, leading whitespace, another letter or
    byte) are read in Python.  The "e" letters are blanked in place, the
    line order is checked on index arrays, and one np.loadtxt call reads
    every row.
    """
    # the line arrays live only inside _edge_pairs, so Graph's temporaries
    # do not add to their memory peak
    pairs, n = _edge_pairs(text)
    if n is not None:
        pairs -= 1
    else:
        n = int(pairs.max()) + 1 if len(pairs) else 0
    return Graph(max(n, 0), pairs)


def read_graph(path) -> Graph:
    return parse_graph(read_text(path))


def _adjacency(g: Graph) -> np.ndarray:
    """A as a new writable n x n float64 array."""
    if g.n < 1:
        raise ValueError("adjacency matrix needs at least one vertex")
    if g.n > _DENSE_VERTEX_CAP:
        raise ValueError(
            f"graph has {g.n} vertices; the dense eigen-solve and the Cholesky "
            f"factor take at most {_DENSE_VERTEX_CAP}"
        )
    a = np.zeros((g.n, g.n))
    u, v = g.edges.T
    a[u, v] = 1.0
    a[v, u] = 1.0
    return a


def adjacency_matrix(g: Graph) -> np.ndarray:
    """The read-only n x n float64 adjacency matrix, 0/1 and symmetric."""
    a = _adjacency(g)
    a.flags.writeable = False
    return a


def _mapped(count: int, dtype) -> np.ndarray:
    """An uninitialised array in its own mapping: dropped, it leaves no resident heap pages."""
    return np.frombuffer(mmap.mmap(-1, max(count, 1) * np.dtype(dtype).itemsize), dtype, count)


def _arcs(g: Graph, degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The arcs' targets sorted by source, then target, and each source's first arc's index."""
    # an isolated vertex gets one arc, to n.  The keys source * 2^16 + target
    # (the vertex cap is below 2^16) stay int64, which np.take needs no copy of
    lone = np.flatnonzero(degrees == 0)
    arcs = _mapped(g.edges.size + len(lone), np.int64)
    pairs = arcs[: g.edges.size].reshape(-1, 2)
    np.left_shift(g.edges[:, ::-1], 16, out=pairs)
    pairs |= g.edges
    arcs[g.edges.size :] = lone << 16 | g.n
    arcs.sort()
    arcs &= 0xFFFF
    runs = np.maximum(degrees, 1)
    return arcs, np.cumsum(runs) - runs


def _arc_product(dst: np.ndarray, starts: np.ndarray):
    """q -> A q: np.add.reduceat sums each vertex's run of the arc list."""
    n = len(starts)
    padded, gathered = np.zeros(n + 1), _mapped(len(dst), np.float64)  # padded[n] stays 0

    def product(q):
        padded[:n] = q
        return np.add.reduceat(np.take(padded, dst, out=gathered, mode="clip"), starts)

    return product


def _eliminated(g: Graph, degrees: np.ndarray) -> np.ndarray:
    """The module docstring's greedy independent set I, as a mask: in each round a free
    vertex whose key is below its free neighbours' is taken, and they stop being free."""
    n, (u, v) = g.n, g.edges.T
    key = np.where(degrees**2 <= n, degrees + (np.arange(n) * _GOLDEN) % 1.0, np.inf)
    taken, free = np.zeros(n, dtype=bool), np.isfinite(key)
    while free.any():
        k = np.where(free, key, np.inf)
        take = free.copy()
        take[np.where(k[u] < k[v], v, u)] = False
        taken |= take
        free &= ~take
        free[u[take[v]]] = free[v[take[u]]] = False
    return taken


def _schur_first(g: Graph, dst, starts, degrees, taken, t: float) -> np.ndarray:
    """S = (A + tI)_JJ less one fl(r * r) per common neighbour in I, r = fl(1 / fl(sqrt(t))).

    I = taken and J is the rest.  Each entry's terms are subtracted one at a
    time, in any order as they are equal.  I is walked by degree d, at most
    n + |arcs| neighbour pairs at once, so the pair keys take O(n + |E|).
    """
    m = g.n - int(np.count_nonzero(taken))
    pos = np.cumsum(~taken) - 1  # a vertex's index in J
    lo, hi = g.edges.T
    if m < g.n:  # J's edges, in J's indices
        keep = ~(taken[lo] | taken[hi])
        lo, hi = pos[lo[keep]], pos[hi[keep]]
    s = np.zeros((m, m))
    s[lo, hi] = s[hi, lo] = 1.0
    s.flat[:: m + 1] = t
    r = 1.0 / math.sqrt(t)
    for d in np.unique(degrees[taken]).tolist():
        first = starts[taken & (degrees == d)]
        step = (g.n + len(dst)) // max(d * d, 1)  # d^2 <= n: at least 1
        for i in range(0, len(first), step):
            nb = pos[dst[first[i : i + step, None] + np.arange(d)]]
            np.subtract.at(s.ravel(), (nb[:, :, None] * m + nb[:, None, :]).ravel(), r * r)
    return s


def _factors(b: np.ndarray) -> bool:
    """Whether Cholesky of the symmetric b completes; b then holds L^T, else NaN."""
    bt = b.T
    try:
        with np.errstate(invalid="raise"):
            _umath_linalg.cholesky_lo(bt, out=bt)
    except FloatingPointError:
        return False
    return True


def _lanczos_extremes(n: int, matvec) -> tuple[float, float, float, int] | None:
    """(theta_min, theta_max, e_min, steps) of Lanczos on the n x n A, or None.

    matvec(q) returns A q.  Lanczos with full reorthogonalization (the
    three-term step, then classical Gram-Schmidt against the whole basis)
    starts from the fixed positive vector 1 + frac(i * golden ratio), which
    has a positive overlap with every component's Perron vector.  Every
    _LANCZOS_CHECK_EVERY steps the tridiagonal T is solved, and each extreme
    Ritz value's error is estimated as e = min(r, r^2 / gap), r = beta_k |s_k|
    its residual and gap its distance to the next Ritz value of T
    (Kato-Temple; Parlett, The Symmetric Eigenvalue Problem, sec. 11.7).
    The run stops once both e are at most _LANCZOS_RTOL * max(1,
    theta_max); a beta_k that small (an invariant Krylov space, as on
    K_{a,b} at step 3) stops it too.  From half of _LANCZOS_MAX_STEPS on,
    the run gives up (None) once the larger e, extrapolated at its decay
    rate since the previous check, cannot reach that tolerance by the cap.
    """
    basis = np.empty((_LANCZOS_MAX_STEPS, n))
    alpha = np.empty(_LANCZOS_MAX_STEPS)
    beta = np.empty(_LANCZOS_MAX_STEPS)
    x = 1.0 + (np.arange(n) * _GOLDEN) % 1.0
    basis[0] = x / np.linalg.norm(x)
    last = math.inf  # the larger e at the previous check
    for j in range(_LANCZOS_MAX_STEPS):
        q, done = basis[j], basis[: j + 1]
        w = matvec(q)
        alpha[j] = q @ w
        w -= alpha[j] * q
        if j:
            w -= beta[j - 1] * basis[j - 1]
        # a second Gram-Schmidt pass only when the first one cancelled much
        # (Daniel, Gragg, Kaufman and Stewart, Math. Comp. 30, 1976)
        b = float(np.linalg.norm(w))
        for _ in range(2):
            before = b
            w -= done.T @ (done @ w)
            b = float(np.linalg.norm(w))
            if b > _DGKS * before:
                break
        beta[j] = b
        k = j + 1
        if k % _LANCZOS_CHECK_EVERY == 0 or b <= _LANCZOS_RTOL:
            off = beta[: k - 1]
            theta, s = np.linalg.eigh(np.diag(alpha[:k]) + np.diag(off, 1) + np.diag(off, -1))
            gaps = (theta[1] - theta[0], theta[-1] - theta[-2]) if k > 1 else (0.0, 0.0)
            e_min, e_max = (
                r if r >= gap else r * r / gap
                for r, gap in zip((b * abs(s[-1, 0]), b * abs(s[-1, -1])), gaps)
            )
            e, tol = max(e_min, e_max), _LANCZOS_RTOL * max(1.0, theta[-1])
            if e <= tol:
                return float(theta[0]), float(theta[-1]), float(e_min), k
            # earlier, e rises and falls while a Ritz value settles near an
            # eigenvalue that a later one undercuts: on the Lanczos-path
            # bench graphs of seeds 1-30 the extrapolation misjudged runs
            # that converged up to step 70.  At the cap left = 0, so the run
            # ends here either way and basis needs no row past it
            left = (_LANCZOS_MAX_STEPS - k) / _LANCZOS_CHECK_EVERY
            if 2 * k >= _LANCZOS_MAX_STEPS and e * (e / last) ** left > tol:
                return None
            last = e
        basis[k] = w / b


def _proven_floor(n: int, t: float) -> float:
    """The largest float at most -t - delta, a lower bound on lambda_min(A)
    once floating-point Cholesky of the n x n matrix B = A + tI completed.

    Higham (Accuracy and Stability, Thm 10.3): a Cholesky factorization
    that runs to completion, in any order of the inner products, gives
    B + dB = L L^T with |dB| <= g |L| |L^T|, g = gamma_{n+1} =
    (n+1)u / (1 - (n+1)u), u = 2^-53; its proof needs no definiteness of B
    (Rump, BIT 46, 2006).  An off-diagonal entry divided through a
    reciprocal takes one rounding more and stays inside n + 1.  dB's
    diagonal gives ||l_i||^2 <= b_ii / (1 - g) = t / (1 - g), so
    ||dB||_2 <= g ||L||_F^2 <= g n t / (1 - g).  L L^T is positive definite,
    so lambda_min(A) = lambda_min(B) - t >= -t - g n t / (1 - g).
    Underflow adds at most eta = 2^-1074 per product and quotient; the term
    4n (2(n+1) + t) eta, of the form Rump uses, covers it.  The sum is taken
    in exact rationals and rounded down.

    The Schur-first factor is this factorization of P B P^T, with I first:
    the same n, diagonal t and eigenvalues.  I's columns are Cholesky's own
    (their products with earlier columns of I are exact zeros), and an entry
    of S subtracts its terms from I one at a time before LAPACK subtracts
    the rest: one order of its inner product, of at most n - 1 terms.
    """
    t_exact = Fraction(t)
    g = (n + 1) * _UNIT_ROUNDOFF / (1 - (n + 1) * _UNIT_ROUNDOFF)
    delta = g * n * t_exact / (1 - g) + 4 * n * (2 * (n + 1) + t_exact) * _SMALLEST_SUBNORMAL
    bound = -t_exact - delta
    m = float(bound)
    return m if Fraction(m) <= bound else math.nextafter(m, -math.inf)


def spectral_range(g: Graph) -> SpectralRange:
    """(m, M) of g's adjacency operator, with R = (A 1, 1) and eps = ||A 1 - R 1||.

    The path is the module docstring's.  On the Lanczos path the shift is
    t = -theta_min + e_min + 16 n u (theta_max - theta_min), u = 2^-53 and
    e_min the smallest Ritz value's error estimate, so A + tI is positive
    definite by a margin above Cholesky's rounding when theta_min is within
    e_min of lambda_min.  The estimate only picks t: m = _proven_floor(n,
    t), below lambda_min by about n^2 u |m|, and provenance is {"solver":
    "lanczos", "steps": k, "shift": t}.  On the dense path m and M are
    eigvalsh's, and provenance is {"solver": "dense"}.  Both paths are
    deterministic for identical inputs on a fixed BLAS thread count: the arc
    list's product is independent of it, but done @ w in Gram-Schmidt and
    the dense a @ q split their sums across threads.  R is the average
    degree, the R that minimises eps; eps measures how far the all-ones
    function is from being an eigenfunction with value R, and vanishes for
    regular graphs.  Both come from the edge list's degree counts.
    """
    n = g.n
    lanczos = _LANCZOS_MIN_VERTICES <= n <= _DENSE_VERTEX_CAP and len(g.edges)
    # the arc list's path builds no A first; _adjacency refuses a bad n
    a = None if lanczos and 16 * len(g.edges) <= n * n else _adjacency(g)
    # exact integer degrees give R and eps the bits of the dense row sums.
    # np.bincount would copy the read-only edges (9.6 MB at 600k edges)
    degrees = np.zeros(n, dtype=np.int64)
    np.add.at(degrees, g.edges.ravel(), 1)
    found = None
    if lanczos and a is None:
        dst, starts = _arcs(g, degrees)
        found = _lanczos_extremes(n, _arc_product(dst, starts))
    elif lanczos:
        found = _lanczos_extremes(n, lambda q: a @ q)
    if found is not None:
        theta_min, theta_max, e_min, steps = found
        margin = 16 * n * float(_UNIT_ROUNDOFF) * (theta_max - theta_min)
        t = -theta_min + e_min + margin
        if a is None:
            b = _schur_first(g, dst, starts, degrees, _eliminated(g, degrees), t)
            del dst  # only S and LAPACK's copy of it stay for the factor
        else:
            b = a
            b.flat[:: n + 1] = t
        if not _factors(b):
            found = a = None  # the failed factor holds NaN
        del b
    if found is None:
        if a is None:
            a = _adjacency(g)
        try:
            vals = np.linalg.eigvalsh(a.T)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
        m, M, provenance = float(vals[0]), float(vals[-1]), {"solver": "dense"}
    else:
        m, M = _proven_floor(n, t), theta_max
        provenance = {"solver": "lanczos", "steps": steps, "shift": t}
    R = float(degrees.sum()) / g.n
    eps = math.sqrt(float(np.mean((degrees - R) ** 2)))
    return SpectralRange(m, M, R, eps, provenance)
