"""Bessel functions, radial Fourier profiles, and normalized Jacobi polynomials.

Everything here is evaluated in pure numpy to double precision.  A Bessel
value comes from one of three kernels, for orders up to 60 and arguments up
to 1e6: the ascending series, summed as Gamma(nu + 1) (2/x)^nu J_nu(x) from
1, the upward recurrence from Hankel's J_s and J_{s+1} (s = 0 or 1/2), or
the Hankel expansion.  Each order has one regime map, which omega and
bessel_j both read, found once and memoized: two edges that send every
argument to one kernel, the series while the largest term of J_nu's series
stays within 3e4, Hankel above max(13, 0.8 nu^2) and the recurrence in
between; an argument equal to an edge belongs to the regime below it.  The
series limit comes from a bisection, one Python float at a time, on the log
of the largest term, its log-gammas from math.lgamma.

Accuracy is a measured budget: _OMEGA_ABS_ERR bounds the error of omega
(n in [1, 66]) and of bessel_j on [0, 1e6].  Against mpmath, on 1000 seeded
arguments per regime of each order (uniform in a band, log-uniform from
Hankel's edge to 1e6, and from 1 to 1e6 for cos; default_rng(2711) for
omega with n = 1..66, 2712 for bessel_j on the orders 0, 1/2, ..., 60),
the largest errors were 7.0e-12 in bessel_j's series (order 36, x = 33.01),
3.4e-12 in omega's (n = 2), 3.9e-14 for the recurrence (order 59, x =
48.90, past its turning point), 6.3e-14 for Hankel and 5.6e-17 for cos
(n = 1).

A series or Hankel sum is one (terms x elements) table: one division gives
the ratios of consecutive terms, one running product the terms, and
_row_sum adds the rows in the order of the recurrence, which keeps sin(t)/t
within 8.7e-13 where pairwise summation gives 1.7e-12.  _row_sum is the
package's one row sum, the radial profile's too: numpy's reduce, which adds
the rows of two or more columns in order, and for a lone column, which
reduce adds pairwise, an accumulation.  Up to 256 arguments a table takes
every term (64 series, 40 Hankel) in one accumulation.  A wider call is
sorted, and each block of up to 1024 neighbouring arguments gets a table
that counts the terms its own arguments need and runs row by row, so that
large arguments, which need few Hankel terms, do not pay for small ones.

The kernels take the Bessel order per element: a scalar, or an array aligned
with the arguments.  One omega call can so serve several dimensions at once
(omega((n, n + 2), t) for a Newton jet) in one pass through the three
kernels.

The Jacobi tables go the other way: a sphere measure or support has only a
few points, so the three-term recurrence runs over the degrees on Python
floats, one point at a time, instead of one numpy call per degree on a
short vector.  The operations per element are those of the vectorized
recurrence, so the table is the same bits.  The recurrence's coefficients
depend only on alpha and the degree, so a process keeps them per alpha, at
most _JACOBI_KEPT_ROWS degrees in all, and a table costs only its cells.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from .errors import ConvergenceError, require_integer

_ORDER_MAX = 60.0
_ARG_MAX = 1e6
_LOG_SERIES_GATE = math.log(3e4)  # cap on the largest term of J_nu's series
# error budget of omega and bessel_j: the largest error measured against
# mpmath, 7.0e-12, with margin
_OMEGA_ABS_ERR = 1e-11
_ZERO_TOL = 1e-13  # relative bracket width at which bessel_first_zero stops
_TERM_TOL = 1e-17  # a sum's table ends once every later term is below this
_SERIES_TERMS = 64  # any argument the regime map sends to a series needs at most 50
_HANKEL_TERMS = 40
# k + 1 for ratio k of a sum, and (2k + 1)^2 for Hankel ratio k, as columns
_STEPS = np.arange(1.0, _SERIES_TERMS + 1.0)[:, None]
_HANKEL_SQUARES = (2.0 * _STEPS[:_HANKEL_TERMS] - 1.0) ** 2
# ufunc.accumulate along axis 0 walks a table one column at a time, so a call
# with more arguments than this is sorted, and its tables count their terms
# and run one whole-row operation per row
_ACCUMULATE_WIDTH = 256
_BLOCK_WIDTH = 1024  # arguments per series, recurrence or Hankel block
# the Jacobi recurrence's triples kept per process, in degrees over every
# alpha: two tables at the sphere's largest truncation (2K + 1 rows at K =
# 8192), about 4.5 MB; past it the oldest alpha are dropped
_JACOBI_KEPT_ROWS = 2 * (2 * 8192 + 1)
_jacobi_kept: dict = {}  # alpha -> the triples of k = 2, 3, ..., rebound, never extended
_jacobi_kept_rows = 0  # the sum of their lengths
_jacobi_kept_lock = threading.Lock()


def _running(ufunc, table: np.ndarray) -> np.ndarray:
    """table[k] = ufunc(table[k - 1], table[k]) for k >= 1, in place.

    Row 0 carries the value the rows start from, and the rows are combined
    strictly in order, as a term-by-term loop would.
    """
    if table.shape[1] <= _ACCUMULATE_WIDTH:
        return ufunc.accumulate(table, axis=0, out=table)
    for k in range(1, table.shape[0]):
        ufunc(table[k - 1], table[k], out=table[k])
    return table


def _row_sum(table: np.ndarray) -> np.ndarray:
    """The sum of a table's rows, added in row order, as a term-by-term loop adds.

    numpy's reduce adds the rows of a table two or more columns wide in
    order, but a single column pairwise, so a lone column is accumulated.
    """
    if table.shape[1] == 1:
        return _running(np.add, table)[-1]
    return np.add.reduce(table, axis=0)


def _in_blocks(table_sum, x: np.ndarray, nu) -> np.ndarray:
    """table_sum(x, nu), one table per _BLOCK_WIDTH consecutive arguments.

    _by_regime hands a kernel more than _ACCUMULATE_WIDTH arguments in
    increasing order, so each block's table is as long as its own arguments
    need.  nu is a scalar or an array aligned with x.
    """
    if x.size <= _BLOCK_WIDTH:  # one block, without the copies
        return table_sum(x, nu)
    out = np.empty_like(x)
    for s in range(0, x.size, _BLOCK_WIDTH):
        block = slice(s, s + _BLOCK_WIDTH)
        out[block] = table_sum(x[block], _take(nu, block))
    return out


def _take(a, mask):
    """a[mask] for an array aligned with the mask; a scalar stands for every element."""
    return a if np.ndim(a) == 0 else a[mask]


def _series_log_maxterm(nu: float, x: float) -> float:
    """log of the largest term of the ascending series for J_nu(x), x > 0.

    The term is the one at m* = max(0, (sqrt(nu^2 + x^2) - nu - 2) / 2), a
    real index at which the log-gammas are math.lgamma's.
    """
    m_star = max(0.0, 0.5 * (-(nu + 2.0) + math.sqrt(nu * nu + x * x)))
    powers = (nu + 2.0 * m_star) * math.log(x / 2.0)
    return powers - math.lgamma(m_star + 1.0) - math.lgamma(nu + m_star + 1.0)


@functools.lru_cache(maxsize=256)
def _regime_map(nu: float) -> tuple:
    """Order nu's regime map, which omega and bessel_j both read: ((x_S, x_H),
    log Gamma(nu + 1)).

    An argument goes to the kernel numbered by how many of the two edges lie
    strictly below it: 0 the series, 1 the upward recurrence, 2 Hankel.
    x_S is where a plain bisection of [0, _ARG_MAX] ends: a double at which
    _series_log_maxterm keeps the largest term of J_nu's series within
    _LOG_SERIES_GATE, while the next double up does not.  x_H = max(x_S, 13,
    0.8 nu^2) is where Hankel takes over.  Memoized, like bessel_first_zero.
    """
    lo, hi = 0.0, _ARG_MAX
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if _series_log_maxterm(nu, mid) <= _LOG_SERIES_GATE else (lo, mid)
    return (lo, max(lo, 13.0, 0.8 * nu * nu)), math.lgamma(nu + 1.0)


def _series_table(x: np.ndarray, nu) -> np.ndarray:
    """Gamma(nu + 1) (2/x)^nu J_nu(x) = sum_m t_m, t_0 = 1, nu per element.

    t_{m+1} = -(x/2)^2 t_m / ((m + 1)(nu + m + 1)) is the ascending series of
    J_nu over its prefactor (x/2)^nu / Gamma(nu + 1).  The sum is one (terms
    x elements) table: one division gives its ratios, one running product
    its terms, and a sum over the rows adds them in the order of the
    recurrence.  A narrow table takes all _SERIES_TERMS terms, which costs
    less than counting them; a wide one as many as the block's largest
    argument and smallest order need for every later term to fall below
    _TERM_TOL.
    """
    count = _SERIES_TERMS
    if x.size > _ACCUMULATE_WIDTH:
        q_max, nu_min = 0.25 * float(x.max()) ** 2, float(np.min(nu))
        count, bound = 0, 1.0
        while bound > _TERM_TOL and count < _SERIES_TERMS:
            count += 1
            bound *= q_max / (count * (nu_min + count))
    ms = _STEPS[:count]
    terms = np.empty((count + 1, x.size))
    terms[0] = 1.0
    np.divide(-0.25 * x * x, ms * (nu + ms), out=terms[1:])
    return _row_sum(_running(np.multiply, terms))


def _hankel_table(x: np.ndarray, nu) -> np.ndarray:
    """Hankel expansion of J_nu(x) (DLMF 10.17.3), x > max(13, 0.8 nu^2), nu per element.

    One (terms x elements) table: term k + 1 is term k times (mu - (2k + 1)^2) /
    (8 x (k + 1)), mu = 4 nu^2; even terms go to P and odd ones to Q, with sign
    (-1)^floor(k/2), which the table folds into its ratios.  On this domain
    |ratio k| falls and then grows past 1 for good, where the expansion starts
    to diverge, so a term is kept while the ratio that made it is below 1.  P
    and Q are sums over the rows, in the order of the recurrence.  A narrow
    table takes all 40 terms; a wide one as many as the block's smallest
    argument and largest order need for every later term to fall below
    _TERM_TOL.
    """
    mu = 4.0 * nu * nu
    count = _HANKEL_TERMS
    if x.size > _ACCUMULATE_WIDTH:
        x_min, mu_max = float(x.min()), float(np.max(mu))
        count, bound = 0, 1.0
        while bound > _TERM_TOL and count < _HANKEL_TERMS:
            bound *= max(mu_max, (2.0 * count + 1.0) ** 2) / (8.0 * x_min * (count + 1.0))
            count += 1
    terms = np.empty((count + 1, x.size))
    terms[0] = 1.0
    ratios = terms[1:]
    np.subtract(mu, _HANKEL_SQUARES[:count], out=ratios)
    ratios /= _STEPS[:count] * (8.0 * x)
    np.negative(ratios[1::2], out=ratios[1::2])  # term k + 1 changes sign when even
    diverging = np.abs(ratios) >= 1.0
    _running(np.multiply, terms)
    np.copyto(ratios, 0.0, where=diverging)
    p, q = _row_sum(terms[0::2]), _row_sum(terms[1::2])
    phase = x - (0.5 * nu + 0.25) * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (p * np.cos(phase) - q * np.sin(phase))


def _upward_table(x: np.ndarray, nu) -> np.ndarray:
    """J_nu(x) by the upward recurrence from Hankel's J_s and J_{s+1}, nu per element.

    s = nu - floor(nu) is 0 or 1/2, and J_{k+1} = (2k/x) J_k - J_{k-1} (DLMF
    10.6.1) runs up from order s + 1, one whole-array step per order, until
    each element reaches its own nu.  The recurrence is stable upward while
    the order stays below the argument (DLMF 3.6; Gautschi, SIAM Review 9,
    1967) and loses little in the few orders past it that the middle band
    asks for.  The band starts at x_S >= 14.1 for every order, so both
    Hankel sums stay inside their domain x > 13.
    """
    steps = np.floor(nu)
    s = nu - steps
    below, at = _hankel_table(x, s), _hankel_table(x, s + 1.0)
    out = np.where(steps == 0.0, below, at)
    for k in range(1, int(np.max(steps))):
        below, at = at, (2.0 * (s + k) / x) * at - below
        np.copyto(out, at, where=steps == k + 1.0)
    return out


def _by_regime(nu, x: np.ndarray, regime: np.ndarray, lg, scaled: bool) -> np.ndarray:
    """Each element by the kernel its regime names: 0 the series, 1 the upward
    recurrence, 2 Hankel.  nu and lg = log Gamma(nu + 1) are scalars or
    aligned with x.  scaled gives omega's values, the recurrence's and
    Hankel's times Gamma(nu + 1) (2/x)^nu, and otherwise J_nu's, the series'
    times (x/2)^nu / Gamma(nu + 1).

    More than _ACCUMULATE_WIDTH elements are sorted by regime and then by
    argument, so that each regime is one slice and its blocks hold
    neighbouring arguments.
    """
    counts = np.bincount(regime, minlength=3).tolist()
    if x.size <= _ACCUMULATE_WIDTH:
        parts = [(k, regime == k) for k in range(3) if counts[k]]
        return _kernels(nu, x, parts, lg, scaled)
    order = np.argsort(regime * (2.0 * _ARG_MAX) + x)
    ends = np.cumsum(counts).tolist()
    parts = [(k, slice(ends[k] - counts[k], ends[k])) for k in range(3) if counts[k]]
    out = np.empty_like(x)
    out[order] = _kernels(_take(nu, order), x[order], parts, _take(lg, order), scaled)
    return out


def _kernels(nu, x: np.ndarray, parts, lg, scaled: bool) -> np.ndarray:
    """_by_regime's values, with parts the (regime, selection) of each kernel."""
    out = np.empty_like(x)
    for k, sel in parts:
        xs, nus, lgs = x[sel], _take(nu, sel), _take(lg, sel)
        val = _in_blocks((_series_table, _upward_table, _hankel_table)[k], xs, nus)
        if k == 0 and not scaled:  # J_0(0) = 1, J_nu(0) = 0 for nu > 0
            with np.errstate(divide="ignore", invalid="ignore"):
                val *= np.where(xs > 0.0, np.exp(nus * np.log(xs / 2.0) - lgs), nus == 0.0)
        elif k > 0 and scaled:
            val *= np.exp(lgs + nus * np.log(2.0 / xs))
        out[sel] = val
    return out


def _argument(x) -> np.ndarray:
    """x as a float array, refused unless every element is finite and in [0, _ARG_MAX]."""
    arr = np.asarray(x, dtype=float)
    if not np.all((0.0 <= arr) & (arr <= _ARG_MAX)):
        raise ValueError(f"argument must be finite and lie in [0, {_ARG_MAX:g}]")
    return arr


def bessel_j(order, x):
    """J_order(x) for order in [0, 60] and x in [0, 1e6], within _OMEGA_ABS_ERR.

    Each element goes to the kernel that the order's regime map names: the
    series, the upward recurrence or the Hankel expansion (against mpmath,
    at most 7.0e-12 off on the module docstring's sample).  order is one
    number; an array of orders is refused.
    """
    nu = np.asarray(order, dtype=float)
    if nu.ndim or not 0.0 <= nu <= _ORDER_MAX:
        raise ValueError(f"order must be a scalar in [0, {_ORDER_MAX:g}], got {order!r}")
    arr = _argument(x)
    nu = float(nu)
    edges, lg = _regime_map(nu)
    xs = arr.ravel()
    out = _by_regime(nu, xs, np.searchsorted(edges, xs), lg, scaled=False)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


@functools.lru_cache(maxsize=128)
def bessel_first_zero(order: float) -> float:
    """Smallest positive zero of J_order, located by bracketing and bisection
    to a relative bracket width of _ZERO_TOL.

    The zero is a pure function of the order, so results are memoized in a
    bounded cache: a process computes each order's zero once, however many
    extrema passes and optimizer rounds ask for it.  An order outside
    [0, 60] is refused by the first bessel_j call.
    """
    nu = float(order)
    a = nu + 1.0
    if bessel_j(nu, a) <= 0.0:  # pragma: no cover - first zero always exceeds order + 1
        raise ConvergenceError("bracket start landed past the first zero")
    step = 0.5
    b = a + step
    while bessel_j(nu, b) > 0.0:
        a = b
        b += step
        if b > nu + 40.0:  # pragma: no cover - j_{nu,1} <= nu + O(nu^(1/3))
            raise ConvergenceError("failed to bracket the first Bessel zero")
    for _ in range(200):
        mid = 0.5 * (a + b)
        if b - a <= _ZERO_TOL * max(1.0, mid):
            break
        if bessel_j(nu, mid) > 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def omega(n, t):
    """Radial profile of the unit-sphere surface measure in dimension n.

    omega(n, t) = Gamma(n/2) (2/t)^{(n-2)/2} J_{(n-2)/2}(t), with omega(n, 0) = 1.
    For n = 3 this is sin(t)/t; for n = 1 it degenerates to cos(t).  n runs
    up to 66 so that the derivative omega'(n, t) = -(t/n) omega(n + 2, t)
    (DLMF 10.6.6) is available for every measure dimension up to 64.

    Each element goes straight to the kernel that its order's regime map
    names: the series, which sums omega's value itself, or the upward
    recurrence or Hankel, times the prefactor Gamma(nu + 1) (2/t)^nu.
    Every value is within _OMEGA_ABS_ERR of Omega_n.

    n may also be a tuple of dimensions: the result then has one row per
    dimension, row i = omega(n[i], t), all computed in one pass with the
    order per element.  A row agrees with a separate call's to about 1e-17:
    a wide table's length, and a sorted block's members, come from all of
    the call's elements.
    """
    dims = n if isinstance(n, tuple) else (n,)
    dims = tuple(require_integer(k, "dimension", 1, 66) for k in dims)
    arr = _argument(t)
    tv = arr.ravel()

    if 1 in dims:  # Omega_1 = cos
        out = np.empty((len(dims), tv.size))
        out[[i for i, k in enumerate(dims) if k == 1]] = np.cos(tv)
        rows = [i for i, k in enumerate(dims) if k > 1]
        if rows:
            out[rows] = _omega_pass([dims[i] for i in rows], tv)
    else:
        out = _omega_pass(dims, tv)
    if isinstance(n, tuple):
        return out.reshape((len(dims),) + arr.shape)
    return float(out[0, 0]) if arr.ndim == 0 else out[0].reshape(arr.shape)


def _omega_pass(dims, t: np.ndarray) -> np.ndarray:
    """omega(k, t) for every k >= 2 in dims, one row each, in one pass."""
    orders = [0.5 * k - 1.0 for k in dims]
    maps = [_regime_map(nu) for nu in orders]
    if len(dims) == 1:
        # one dimension keeps a scalar order, as omega's single-row calls
        (nu,), lg, tv = orders, maps[0][1], t
        regime = np.searchsorted(maps[0][0], t)
    else:
        nu = np.array(orders).repeat(t.size)
        lg = np.array([m[1] for m in maps]).repeat(t.size)
        tv = np.concatenate([t] * len(dims))
        regime = np.concatenate([np.searchsorted(m[0], t) for m in maps])
    return _by_regime(nu, tv, regime, lg, scaled=True).reshape(len(dims), t.size)


def jacobi_sequence(kmax: int, alpha: float, t: np.ndarray) -> np.ndarray:
    """All normalized Jacobi values P~_k(t) for k = 0..kmax, shape (kmax+1, len(t)).

    The three-term recurrence is run directly on the polynomials normalized to
    1 at t = 1; folding the normalization into the coefficients gives
    (k + 2 alpha) P~_k = (2k + 2 alpha - 1) t P~_{k-1} - (k - 1) P~_{k-2},
    which reduces to the Chebyshev recurrence at alpha = -1/2, the smallest
    alpha accepted (the circle S^1).

    The recurrence runs over k on Python floats, once per point, with the
    table built once per call: p = (a_k * t * p1 - b_k * p2) / c_k is the
    same IEEE operations in the same order as the elementwise numpy form, so
    the table is the same bits, at a cost linear in points x degrees.  The
    coefficients (a_k, b_k, c_k) are kept per process and alpha, bounded in
    all by _JACOBI_KEPT_ROWS degrees, and are the same bits as fresh ones;
    a call past that bound builds its own.  Any finite scalar or 1-D t is
    accepted, |t| > 1 included.
    """
    kmax = require_integer(kmax, "kmax")
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    if not (-0.5 <= alpha < math.inf):
        raise ValueError(f"alpha must be finite and >= -1/2, got {alpha!r}")
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise ValueError(f"t must be a scalar or a 1-D array, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("t must be finite")
    t = np.atleast_1d(t)
    return _jacobi_rows(np.empty((0, t.size)), kmax, float(alpha), t)


def _jacobi_rows(table: np.ndarray, kmax: int, alpha: float, t: np.ndarray) -> np.ndarray:
    """table, the first rows of jacobi_sequence's values at t, grown to rows 0..kmax.

    The one copy of the recurrence: each point resumes from its last two
    rows, so the new rows are the same bits as a fresh table's.  The rows'
    coefficients come from _jacobi_coefficients, kept per process.
    """
    start = len(table)
    coeffs = _jacobi_coefficients(alpha, max(start, 2), kmax)
    vals = np.concatenate([table, np.empty((kmax + 1 - start, t.size))])
    last = zip(*table[start - 2 :].tolist()) if start >= 2 else ((1.0, x) for x in t.tolist())
    for j, (x, (p2, p1)) in enumerate(zip(t.tolist(), last)):
        column = [p2, p1][start:]
        for a, b, c in coeffs:
            p2, p1 = p1, (a * x * p1 - b * p2) / c
            column.append(p1)
        vals[start:, j] = column[: kmax + 1 - start]
    return vals


def _jacobi_triples(alpha: float, ks: range) -> list:
    """The recurrence's (a_k, b_k, c_k) for k in ks: its one set of expressions."""
    two_alpha = 2.0 * alpha
    return [(2.0 * k + two_alpha - 1.0, k - 1.0, k + two_alpha) for k in ks]


def _jacobi_coefficients(alpha: float, first: int, kmax: int) -> list:
    """The triples of k = first..kmax (first >= 2), read from those kept for alpha.

    The kept list grows to exactly the degrees asked, so a cold call builds
    what a fresh one would.  A growth builds the extension and rebinds the
    entry, so a list another call is slicing never changes; it first drops
    the oldest alpha until every kept list fits in _JACOBI_KEPT_ROWS.  A call
    needing more than that builds its own triples.
    """
    global _jacobi_kept_rows
    if first > kmax:
        return []
    kept = _jacobi_kept.get(alpha, ())
    if len(kept) < kmax - 1:
        if kmax - 1 > _JACOBI_KEPT_ROWS:
            return _jacobi_triples(alpha, range(first, kmax + 1))
        with _jacobi_kept_lock:
            kept = _jacobi_kept.pop(alpha, [])
            _jacobi_kept_rows -= len(kept)
            if len(kept) < kmax - 1:
                kept = kept + _jacobi_triples(alpha, range(len(kept) + 2, kmax + 1))
            while _jacobi_kept_rows + len(kept) > _JACOBI_KEPT_ROWS:
                _jacobi_kept_rows -= len(_jacobi_kept.pop(next(iter(_jacobi_kept))))
            _jacobi_kept[alpha] = kept
            _jacobi_kept_rows += len(kept)
    return kept[first - 2 : kmax - 1]
