"""Independent oracles used to derive the expected values frozen in tests.

Nothing here imports the package under test: Bessel values come from the
plain ascending series with incremental terms or from mpmath's
arbitrary-precision J_nu, zeros from interval
bisection, polynomial values from the textbook unnormalized recurrences,
graph spectra from closed forms, circulant connection sets one vector at a
time, independence and chromatic numbers by exhaustive search,
edge-list text by a walk over its lines, one Python step per line, and
simplex pivots by numpy calls on index arrays, one tableau row set per step.
Graphs are plain (n, edges) data: a vertex count and an iterable of (u, v)
pairs on 0..n-1.  Agreement with the package is then evidence, not
tautology.
"""

from __future__ import annotations

import itertools
import math
import re

import mpmath
import numpy as np

ALPHA_CAP = 30
CHI_CAP = 20


def bessel_series(nu: float, x: float) -> float:
    """J_nu(x) by the ascending series; accurate for moderate x (say <= 30)."""
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    term = (x / 2.0) ** nu / math.gamma(nu + 1.0)
    total = term
    q = (x / 2.0) ** 2
    for m in range(1, 300):
        term *= -q / (m * (nu + m))
        total += term
        if abs(term) < 1e-30:
            break
    return total


def omega_mpmath(n: int, x: float) -> float:
    """Omega_n(x) = Gamma(n/2) (2/x)^((n-2)/2) J_((n-2)/2)(x), cos x for n = 1,
    from mpmath at 40 significant digits, rounded once to a double."""
    if x == 0.0:
        return 1.0
    with mpmath.workdps(40):
        xm = mpmath.mpf(x)
        if n == 1:
            return float(mpmath.cos(xm))
        nu = mpmath.mpf(n) / 2 - 1
        return float(mpmath.gamma(nu + 1) * (2 / xm) ** nu * mpmath.besselj(nu, xm))


def bessel_j_mpmath(nu: float, x: float) -> float:
    """J_nu(x) from mpmath at 40 significant digits, rounded once to a double."""
    with mpmath.workdps(40):
        return float(mpmath.besselj(nu, x))


def bessel_first_zero_mpmath(nu: float) -> tuple[float, float]:
    """(j, |J_nu'(j)|) for j the first positive zero of J_nu, from mpmath at
    40 significant digits, each rounded once to a double; at a zero of J_nu,
    J_nu' = -J_(nu+1) (DLMF 10.6.2)."""
    with mpmath.workdps(40):
        j = mpmath.besseljzero(mpmath.mpf(nu), 1)
        return float(j), float(abs(mpmath.besselj(nu + 1, j)))


def bisect_root(f, lo: float, hi: float, iters: int = 200) -> float:
    flo = f(lo)
    if flo == 0.0:
        return lo
    if flo * f(hi) > 0.0:
        raise ValueError("no sign change on the bracket")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def bessel_first_zero_series(nu: float, lo: float, hi: float) -> float:
    return bisect_root(lambda x: bessel_series(nu, x), lo, hi)


def tan_x_equals_x_root() -> float:
    """First positive root of tan x = x, in (pi, 3pi/2); minimizes sin(x)/x."""
    return bisect_root(lambda x: math.tan(x) - x, math.pi + 0.1, 1.5 * math.pi - 0.01)


def cycle_spectrum(n: int) -> list:
    """Adjacency eigenvalues of the n-cycle: 2 cos(2 pi k / n)."""
    return sorted((2.0 * math.cos(2.0 * math.pi * k / n) for k in range(n)), reverse=True)


def cycle_edges(n: int) -> list:
    return [(i, (i + 1) % n) for i in range(n)]


def petersen_edges() -> list:
    """Outer 5-cycle, inner pentagram, five spokes; spectrum {3, 1^5, (-2)^4}."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return outer + inner + spokes


def complete_edges(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def complete_bipartite_edges(a: int, b: int) -> list:
    return [(i, a + j) for i in range(a) for j in range(b)]


def legendre_sequence(kmax: int, t: float) -> list:
    """Legendre P_k(t) by the standard (k+1)P_{k+1} = (2k+1)t P_k - k P_{k-1}."""
    vals = [1.0, t]
    for k in range(1, kmax):
        vals.append(((2 * k + 1) * t * vals[k] - k * vals[k - 1]) / (k + 1))
    return vals[: kmax + 1]


def chebyshev_value(k: int, t: float) -> float:
    return math.cos(k * math.acos(max(-1.0, min(1.0, t))))


def circle_eigenvalue_extremes(thetas, weights, kmax: int) -> tuple[float, float]:
    """(min, max) of sum_i w_i cos(k theta_i) over the degrees k = 0..kmax.

    The angles are taken as given (pi p/q computed directly, not recovered
    from cos), and the degrees are evaluated in blocks of 2^14.
    """
    th, w = np.asarray(thetas, dtype=float), np.asarray(weights, dtype=float)
    lo, hi = math.inf, -math.inf
    for start in range(0, kmax + 1, 1 << 14):
        k = np.arange(start, min(kmax + 1, start + (1 << 14)), dtype=float)
        lam = np.cos(np.outer(k, th)) @ w
        lo, hi = min(lo, float(lam.min())), max(hi, float(lam.max()))
    return lo, hi


def annulus_connection_set(m: int, n: int, radii, tol: float) -> frozenset:
    """Residue vectors s != 0 of Z_m^n with | ||s|| - d | <= tol for some radius d.

    The norm is taken one vector at a time on folded coordinates (j for
    j <= m/2, j - m beyond), so the set is closed under negation.
    """
    members = set()
    for s in itertools.product(range(m), repeat=n):
        norm = math.sqrt(sum((c if c <= m / 2 else c - m) ** 2 for c in s))
        if norm > 0.0 and any(abs(norm - d) <= tol for d in radii):
            members.add(s)
    return frozenset(members)


def circulant_edges(modulus: int, dim: int, connection_set) -> tuple:
    """Vertex form (n, edges) of the Cayley graph of Z_m^dim: x ~ x + s.

    Vertex x is numbered by its base-m digits, first coordinate most
    significant; each edge appears once, as (lower, higher).
    """
    def index(x):
        return sum(c * modulus**p for p, c in enumerate(reversed(x)))

    n = modulus**dim
    edges = set()
    for u, x in enumerate(itertools.product(range(modulus), repeat=dim)):
        for s in connection_set:
            v = index(tuple((a + b) % modulus for a, b in zip(x, s)))
            edges.add((min(u, v), max(u, v)))
    return n, sorted(edges)


def _neighbor_bitsets(n: int, edges) -> list:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def brute_force_alpha(n: int, edges) -> int:
    """Exact independence number by branch and bound over vertex bitsets."""
    if n > ALPHA_CAP:
        raise ValueError(f"brute-force alpha capped at {ALPHA_CAP} vertices")
    adj = _neighbor_bitsets(n, edges)
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
            best = size + count
            return
        expand(cand & ~(adj[pivot] | (1 << pivot)), size + 1)
        expand(cand & ~(1 << pivot), size)

    expand((1 << n) - 1, 0)
    return best


def brute_force_chi(n: int, edges) -> int:
    """Exact chromatic number by iterative deepening on the color budget."""
    if n > CHI_CAP:
        raise ValueError(f"brute-force chi capped at {CHI_CAP} vertices")
    adj = _neighbor_bitsets(n, edges)
    if not any(adj):
        return min(n, 1)
    order = sorted(range(n), key=lambda v: -adj[v].bit_count())

    def colorable(k: int) -> bool:
        colors = [-1] * n

        def bt(i: int, used: int) -> bool:
            if i == n:
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

    return next(k for k in range(2, n + 1) if colorable(k))


# ------------------------------------------------------- edge-list text

# a line that starts with one of these can only be a "u v" pair
_PAIR_START = frozenset("0123456789+-")
_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _edge_rows(lines, header: list):
    """Yield the "u v" text of each edge line, checking the lines around them.

    Looks only at a line's first token: _int_pairs reads the pairs.  Appends
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
                well_formed = (
                    len(parts) in (3, 4)
                    and parts[1] == "edge"
                    and all(_DECIMAL.fullmatch(p) for p in parts[2:])
                )
                try:
                    n = int(parts[2]) if well_formed else -1
                except ValueError:  # more digits than int() converts
                    n = -1
                if n < 0:
                    raise ValueError(f"malformed header line {_content(line)!r}")
                header.append(n)
                if first_pair is not None:
                    raise ValueError(f"unrecognised line {first_pair!r} in DIMACS input")
                continue
            if token == "e":
                if not header:
                    raise ValueError("edge descriptor before problem header")
                yield line[1:]
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
    """The rows as a (k, 2) int64 array; ValueError unless each is two integers.

    A row's text before its first "#", split by str.split, must be exactly
    two _DECIMAL tokens, each inside int64.
    """
    pairs = []
    for row in rows:
        tokens = row.split("#", 1)[0].split()
        if len(tokens) != 2 or not all(map(_DECIMAL.fullmatch, tokens)):
            raise ValueError(f"expected 2 integers, got {row!r}")
        pair = [int(token) for token in tokens]
        if not all(-(2**63) <= v < 2**63 for v in pair):
            raise ValueError(f"integer outside int64 in {row!r}")
        pairs.append(pair)
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def edge_text_pairs(text: str) -> tuple[np.ndarray, int | None]:
    """The edge pairs of plain or DIMACS text as written, and the header's n if any.

    One Python step per line of text.splitlines(); ValueError names the
    first bad line.  Pairs of a DIMACS text are still 1-indexed.
    """
    lines = text.splitlines()
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


# ------------------------------------------------------- simplex pivots

def simplex_maximize_pivots(A, b, c, stall_pivots: int = 8, eps: float = 1e-11):
    """(x, duals, value, stats) of max c.x s.t. A x <= b, x >= 0, b >= 0.

    The same rules as the package's dense tableau (Dantzig's entering
    column, Bland's after stall_pivots degenerate pivots in a row, the
    smallest ratio with ties to the smallest basic index), with the ratio
    test on numpy index arrays and the update as np.outer, so a pivot in
    either does the same IEEE operations on the same values.
    """
    A, b, c = (np.asarray(v, dtype=float) for v in (A, b, c))
    m, n = A.shape
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = A
    tab[:m, n : n + m] = np.eye(m)
    tab[:m, -1] = b
    tab[m, :n] = -c
    basis = np.arange(n, n + m)
    stalled = bland = 0
    for pivots in range(2000 * (m + n)):
        reduced = tab[m, : n + m]
        if stalled >= stall_pivots:
            negative = np.flatnonzero(reduced < -eps)
            if negative.size == 0:
                break
            enter = int(negative[0])
            bland += 1
        else:
            enter = int(np.argmin(reduced))
            if reduced[enter] >= -eps:
                break
        col = tab[:m, enter]
        rows = np.flatnonzero(col > eps)
        if rows.size == 0:
            raise ValueError("LP unbounded")
        ratios = tab[rows, -1] / col[rows]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-12]
        leave = int(ties[np.argmin(basis[ties])])
        stalled = stalled + 1 if best <= eps else 0
        prow = tab[leave] / tab[leave, enter]
        tab -= np.outer(tab[:, enter], prow)
        tab[leave] = prow
        basis[leave] = enter
    else:
        raise RuntimeError("pivot budget exhausted")
    x = np.zeros(n)
    for row, var in enumerate(basis):
        if var < n:
            x[var] = tab[row, -1]
    stats = {"pivots": pivots, "bland_pivots": bland}
    return x, tab[m, n : n + m].copy(), float(tab[m, -1]), stats
