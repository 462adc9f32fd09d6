"""Dense-tableau simplex, matrix games, and the cutting-plane loop over them.

The LPs in this package are tiny (tens of rows, a few thousand columns at
most), so a dense tableau is plenty and keeps runs bit-deterministic across
platforms.  The entering column is the most negative reduced cost
(Dantzig's rule); after _STALL_PIVOTS degenerate pivots in a row the solver
switches to Bland's smallest-index rule until a pivot raises the objective,
so it cannot cycle.  The leaving row is the smallest ratio, ties broken by
the smallest basic index (Bland).  Each pivot is one rank-1 update of the
whole tableau.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

_PIVOT_EPS = 1e-11
_STALL_PIVOTS = 8  # degenerate pivots in a row before Bland's rule takes over
_LP_ROUNDS = 40  # cutting-plane rounds before an optimizer gives up


def simplex_maximize(A, b, c, stats: dict | None = None):
    """Maximize c.x subject to A x <= b, x >= 0, with b >= 0.

    Returns (x, duals, value).  duals are the optimal multipliers of the row
    constraints, read off the slack reduced costs of the final tableau.  If
    stats is a dict, it receives the number of pivots ("pivots") and how
    many of them Bland's rule chose ("bland_pivots").
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
        raise ValueError("LP data must be finite")
    if np.any(b < 0.0):
        raise ValueError("this solver requires b >= 0 (slack basis start)")

    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = A
    tab[:m, n : n + m] = np.eye(m)
    tab[:m, -1] = b
    tab[m, :n] = -c
    basis = list(range(n, n + m))
    # views of the tableau, which every pivot updates in place
    reduced, rhs = tab[m, : n + m], tab[:m, -1]

    budget = 2000 * (m + n)
    stalled = bland = 0
    for pivots in range(budget):
        if stalled >= _STALL_PIVOTS:
            negative = reduced < -_PIVOT_EPS
            enter = int(negative.argmax())  # Bland: smallest index
            if not negative[enter]:
                break
            bland += 1
        else:
            enter = int(reduced.argmin())  # Dantzig: most negative
            if reduced[enter] >= -_PIVOT_EPS:
                break
        # the ratio test on Python floats: m is at most tens of rows
        col = tab[:m, enter].tolist()
        ratios = [(r / a, i) for i, (a, r) in enumerate(zip(col, rhs.tolist())) if a > _PIVOT_EPS]
        if not ratios:
            raise ConvergenceError(
                "LP unbounded; impossible for the games built here"
            )
        best = min(r for r, _ in ratios)
        # Bland tie-break: the smallest basic index among the tied rows
        leave = min((i for r, i in ratios if r <= best + 1e-12), key=basis.__getitem__)
        stalled = stalled + 1 if best <= _PIVOT_EPS else 0
        prow = tab[leave] / tab[leave, enter]
        tab -= tab[:, enter, None] * prow
        tab[leave] = prow
        basis[leave] = enter
    else:
        raise ConvergenceError("simplex iteration budget exhausted", iterations=budget)
    if stats is not None:
        stats.update(pivots=pivots, bland_pivots=bland)

    x = np.zeros(n)
    for row, var in enumerate(basis):
        if var < n:
            x[var] = tab[row, -1]
    duals = tab[m, n : n + m].copy()
    return x, duals, float(tab[m, -1])


def solve_matrix_game(payoff, stats: dict | None = None):
    """Optimal mixtures for max_w min_j sum_i w_i P[i, j] over the simplex.

    Returns (lower, w, y, upper).  Solved through the classical LP
    transform: shift the payoff positive, solve the column player's LP
    (which starts feasible from the slack basis), read the column mixture y
    from its solution x as x / sum x, and recover the row mixture w from the
    duals.  lower is min_j (w P)_j, the payoff w itself guarantees, and
    upper is max_i (P y)_i, the most y concedes, so by weak duality lower <=
    value <= upper whatever the tableau's rounding.  stats is passed on to
    simplex_maximize.
    """
    P = np.asarray(payoff, dtype=float)
    if P.ndim != 2 or P.size == 0:
        raise ValueError("payoff must be a nonempty 2-d array")
    if not np.all(np.isfinite(P)):
        raise ValueError("payoff entries must be finite")
    p, q = P.shape
    shift = 1.0 - float(P.min())
    Pp = P + shift
    x, duals, total = simplex_maximize(Pp, np.ones(p), np.ones(q), stats=stats)
    if total <= 0.0:  # pragma: no cover - Pp > 0 forces a positive optimum
        raise ConvergenceError("degenerate game value")
    mass = duals.sum()
    if mass <= 0.0:  # pragma: no cover
        raise ConvergenceError("degenerate dual mixture")
    w, y = duals / mass, x / x.sum()
    return float((w @ P).min()), w, y, float((P @ y).max())


def cutting_planes(columns, points, oracle):
    """Kelley's cutting-plane loop over the matrix game on columns(points).

    columns(xs) gives the payoff block of the points xs, one column each.
    Each round solves the game on every point so far and calls
    oracle(value, w, y) with the game's lower value and both mixtures; it
    returns (cuts, result): the points to add as columns, and what the loop
    returns once there are none.
    """
    payoff = columns(points)
    for _ in range(_LP_ROUNDS):
        value, w, y, _ = solve_matrix_game(payoff)
        cuts, result = oracle(value, w, y)
        if len(cuts) == 0:
            return result
        payoff = np.hstack([payoff, columns(cuts)])
    raise ConvergenceError(
        "cutting-plane rounds exhausted before certification", iterations=_LP_ROUNDS
    )
