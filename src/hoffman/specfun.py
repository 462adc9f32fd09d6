"""Bessel functions, radial Fourier profiles, and normalized Jacobi polynomials.

Everything here is evaluated in pure numpy to double precision with an
absolute-accuracy target of 1e-10.  Three regimes cover the Bessel domain:
the ascending power series while its largest term stays small enough that
alternating cancellation cannot eat the target accuracy, Miller's backward
recurrence in the intermediate band, and the Hankel asymptotic expansion for
large argument.  The regime boundaries overlap, so coverage is exhaustive
for orders up to 60 and arguments up to 1e6.  The series regime is gated
by the log of the series' largest term, its log-gammas from unshifted
Stirling (DLMF 5.11.1, at most 5.1e-4 off): a gate threshold is a
cancellation budget, not a sharp limit, so it needs no more.  The gate is
evaluated per order, not per call: a search over the doubles finds where
it stops passing, memoized, so a call chooses the regime by comparing its
arguments with that limit, and the formula itself decides only the few
ulps around it where its rounding is ragged.

The series and Hankel sums are not run one term per Python step: a chunk
of terms is one (terms x elements) table, of up to 64 series terms or all
40 Hankel terms and, unless one term alone is larger, 2^14 cells, so the
sum over a small input is one table.  Its running products, sums and
freeze masks come from ufunc accumulations that combine the terms in the
order of the recurrence, so the results are the same bits as a
term-by-term loop.

The kernels take the Bessel order per element: a scalar, or an array aligned
with the arguments.  One omega call can so serve several dimensions at once
(omega((n, n + 2), t) for a Newton jet) in one pass through the series and
Hankel tables; Miller's recurrence runs once per distinct order.

The Jacobi tables go the other way: a sphere measure or support has only a
few points, so the three-term recurrence runs over the degrees on Python
floats, one point at a time, instead of one numpy call per degree on a
short vector.  The operations per element are those of the vectorized
recurrence, so the table is the same bits.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConvergenceError, require_integer

_ORDER_MAX = 60.0
_ARG_MAX = 1e6
_LOG_SERIES_GATE = math.log(3e4)  # max-term cap: keeps cancellation below ~3e-12
_LOG_OMEGA_GATE = math.log(1e4)
_ZERO_TOL = 1e-13  # relative bracket width at which bessel_first_zero stops
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# series and Hankel terms are tabulated a chunk at a time: at most
# _SERIES_TERMS or _HANKEL_TERMS (all of them) terms, and at most
# _TABLE_ELEMENTS cells unless one term alone is larger
_SERIES_TERMS = 64
_HANKEL_TERMS = 40
_TABLE_ELEMENTS = 1 << 14
# ulps on each side of a series gate's crossing that are searched for the
# stretch where rounding makes the gate ragged
_GATE_BAND = 128
# ufunc.accumulate along axis 0 walks a table one column at a time, so wider
# tables are accumulated by one whole-row operation per row instead
_ACCUMULATE_WIDTH = 256


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


def _table_rows(size: int, terms: int) -> int:
    """Terms per chunk of a (terms x elements) table over size elements.

    A sum of at most terms terms fits one table while it stays within
    _TABLE_ELEMENTS cells, so a small input makes one pass.
    """
    return max(1, min(terms, _TABLE_ELEMENTS // max(size, 1)))


def _lgamma_arr(z: np.ndarray) -> np.ndarray:
    """Stirling's formula for log Gamma(z), z >= 1 (DLMF 5.11.1), for the gate only.

    No shift: the error is at most 5.1e-4 at z = 1 and 2.2e-5 from z = 2 on.
    Its only arguments are m* + 1 and nu + m* + 1, both >= 1.
    """
    return (
        (z - 0.5) * np.log(z)
        - z
        + _HALF_LOG_2PI
        + 1.0 / (12.0 * z)
        - 1.0 / (360.0 * z**3)
    )


def _take(a, mask):
    """a[mask] for an array aligned with the mask; a scalar stands for every element."""
    return a if np.ndim(a) == 0 else a[mask]


def _lgamma_exact(z):
    """math.lgamma of a scalar, or of an array once per distinct value."""
    if np.ndim(z) == 0:
        return math.lgamma(z)
    values, index = np.unique(z, return_inverse=True)
    return np.array([math.lgamma(v) for v in values.tolist()])[index]


def _series_log_maxterm(nu, x: np.ndarray) -> np.ndarray:
    """log of the largest term of the ascending series for J_nu(x), nu per element.

    The term is the one at m* = max(0, (sqrt(nu^2 + x^2) - nu - 2) / 2).  With
    _lgamma_arr's closed form the log is at most about 1e-3 off, and under
    1e-6 near the gates' thresholds, where m* is large; a threshold is a
    cancellation budget with far more slack than that.
    """
    m_star = np.maximum(0.0, 0.5 * (-(nu + 2.0) + np.sqrt(nu * nu + x * x)))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (
            (nu + 2.0 * m_star) * np.log(x / 2.0)
            - _lgamma_arr(m_star + 1.0)
            - _lgamma_arr(nu + m_star + 1.0)
        )
    return np.where(x > 0.0, out, -np.inf)


def _bessel_gate(nu, x: np.ndarray) -> np.ndarray:
    """Where bessel_j sums the ascending series: its largest term is small."""
    return _series_log_maxterm(nu, x) <= _LOG_SERIES_GATE


def _omega_gate(nu, x: np.ndarray) -> np.ndarray:
    """Where omega sums its own series, the Bessel one over the prefactor
    (x/2)^nu / Gamma(nu + 1): while that series' largest term is small it
    carries full absolute accuracy even where the prefactor would amplify
    error."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_max = _series_log_maxterm(nu, x) - nu * np.log(x / 2.0) + _lgamma_exact(nu + 1.0)
    return np.where(x > 0.0, log_max, -np.inf) <= _LOG_OMEGA_GATE


@functools.lru_cache(maxsize=256)
def _series_limits(gate, nu: float) -> tuple[float, float]:
    """(lo, hi) for gate at order nu: it passes at every double in [0, lo] and
    fails at every double in (hi, _ARG_MAX].

    The largest series term grows with x, so the gate holds on an interval
    [0, L], but its rounding makes it ragged within a few ulps of L (hi - lo
    is at most 45 ulps for orders 0, 1/2, ..., 60); the doubles in (lo, hi]
    are left to the gate itself.  A search over the bit patterns of the
    doubles, which order as the doubles do, finds a crossing; the ulps
    around it then give lo and hi, once the stretch they span sits well
    inside the searched band.  Like bessel_first_zero, a pure function of
    the order, memoized.
    """
    top = int(np.float64(_ARG_MAX).view(np.int64))
    lo, hi = 0, top + 1  # gate passes at lo; hi stands for a failure
    while hi - lo > 1:
        step = (hi - lo + 255) // 256
        cand = np.arange(lo + step, hi, step, dtype=np.int64)
        fails = ~gate(nu, cand.view(np.float64))
        k = int(np.argmax(fails)) if fails.any() else cand.size
        lo, hi = (int(cand[k - 1]) if k else lo), (int(cand[k]) if k < cand.size else hi)
    band = _GATE_BAND
    while True:
        near = np.arange(max(lo - band, 0), min(lo + band, top) + 1, dtype=np.int64)
        ok = gate(nu, near.view(np.float64))
        first_fail = int(np.argmin(ok)) if not ok.all() else near.size
        last_pass = near.size - 1 - int(np.argmax(ok[::-1]))
        if (first_fail >= band // 2 or near[0] == 0) and (
            last_pass < near.size - band // 2 or near[-1] == top
        ):
            edges = near[[first_fail - 1, last_pass]].view(np.float64)
            return float(edges[0]), float(edges[1])
        band *= 8  # pragma: no cover - the ragged stretch is a few ulps wide


def _series_mask(gate, nu, x: np.ndarray, lo, hi) -> np.ndarray:
    """gate(nu, x) from its limits; lo and hi are scalars or aligned with x."""
    series = x <= lo
    ragged = (x <= hi) & ~series
    if ragged.any():
        series[ragged] = gate(_take(nu, ragged), x[ragged])
    return series


def _order_limits(gate, nu):
    """_series_limits for a scalar order, or arrays (lo, hi) aligned with an
    order array, looked up once per distinct order."""
    if np.ndim(nu) == 0:
        return _series_limits(gate, nu)
    lo, hi = np.empty((2, nu.size))
    for order in set(nu.tolist()):
        sel = nu == order
        lo[sel], hi[sel] = _series_limits(gate, order)
    return lo, hi


def _ascending_sum(nu, x: np.ndarray, t0: np.ndarray) -> np.ndarray:
    """sum_m t_m with t_{m+1} = -(x/2)^2 t_m / ((m + 1)(nu + m + 1)).

    nu is a scalar or an array like x, one order per element.  With
    t0 = (x/2)^nu / Gamma(nu + 1) this is the ascending series of J_nu(x);
    with t0 = 1 it is Gamma(nu + 1) (2/x)^nu J_nu(x).  A chunk of terms is
    one table: one division gives its ratios, one running product
    its terms and one running sum its partial sums, so every bit matches a
    term-by-term loop.  The sum stops at the first term where every element
    has converged.
    """
    neg_q = -(0.25 * x * x)
    rows = _table_rows(x.size, _SERIES_TERMS)
    # row 0 of each table carries the last term and partial sum of the
    # previous chunk; both tables are reused by every chunk
    terms = np.empty((rows + 1, x.size))
    sums = np.empty_like(terms)
    mag, tol = np.empty((2, rows, x.size))
    small = np.empty((rows, x.size), dtype=bool)
    terms[0] = sums[0] = t0
    for m0 in range(0, 700, rows):
        r = min(rows, 700 - m0)
        ms = np.arange(m0, m0 + r, dtype=float)[:, None]
        t, s = terms[1 : r + 1], sums[1 : r + 1]
        np.divide(neg_q, (ms + 1.0) * (nu + ms + 1.0), out=t)
        _running(np.multiply, terms[: r + 1])
        s[...] = t
        _running(np.add, sums[: r + 1])
        # |term| <= 1e-17 (1 + |sum|), elementwise
        np.abs(s, out=tol[:r])
        tol[:r] += 1.0
        tol[:r] *= 1e-17
        np.less_equal(np.abs(t, out=mag[:r]), tol[:r], out=small[:r])
        done = small[:r].all(axis=1)
        if done.any():
            return s[int(np.argmax(done))]
        terms[0], sums[0] = t[-1], s[-1]
    raise ConvergenceError(  # pragma: no cover - gate keeps series short
        "Bessel series failed to converge", iterations=700
    )


def _bessel_series(nu, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    zero = x == 0.0
    out[zero & (nu == 0.0)] = 1.0
    live = ~zero
    xs, nu = x[live], _take(nu, live)
    if xs.size == 0:
        return out
    t0 = np.exp(nu * np.log(xs / 2.0) - _lgamma_exact(nu + 1.0))
    out[live] = _ascending_sum(nu, xs, t0)
    return out


def _bessel_asymptotic(nu, x: np.ndarray) -> np.ndarray:
    """Hankel expansion; valid once x >= max(13, 0.8 nu^2), nu per element.

    An element freezes once a term stops shrinking or after a term below
    1e-17.  Terms are tabulated a chunk at a time for the elements not yet
    frozen: a running logical or gives the chunk's freeze masks and a
    running sum over the live terms its P and Q partial sums, so every bit
    matches a term-by-term loop over all elements.
    """
    mu = 4.0 * nu * nu
    p_out, q_out = np.empty_like(x), np.empty_like(x)
    # the elements not frozen yet, and their running state
    act = np.arange(x.size)
    p_sum, q_sum = np.ones_like(x), np.zeros_like(x)
    term, prev_mag, eight_x = np.ones_like(x), np.full_like(x, np.inf), 8.0 * x
    k0 = 0
    while k0 < _HANKEL_TERMS and act.size:
        ks = np.arange(k0, min(k0 + _table_rows(act.size, _HANKEL_TERMS), _HANKEL_TERMS))
        k0 += ks.size
        # term j = k + 1 is (term k * (mu - (2k + 1)^2)) / (8 x (k + 1)): one
        # table of numerators and one of denominators, then two in-place
        # operations per term
        nums = np.empty((ks.size, act.size))
        np.subtract(mu, ((2.0 * ks + 1.0) ** 2)[:, None], out=nums)
        terms = np.multiply.outer(ks + 1.0, eight_x)
        for num, den in zip(nums, terms):
            np.multiply(term, num, num)
            term = np.divide(num, den, den)
        mag = np.abs(terms)
        # term j is dropped once a term up to j grew or a term before j fell
        # below 1e-17
        stop = np.empty(terms.shape, dtype=bool)
        np.greater_equal(mag[0], prev_mag, out=stop[0])
        if ks.size > 1:
            stop[1:] = (mag[1:] >= mag[:-1]) | (mag[:-1] < 1e-17)
            _running(np.logical_or, stop)
        # term j goes to Q when j is odd, to P when even, with sign
        # (-1)^floor(j/2); row 2 + i of live holds j = ks[0] + 1 + i, and the
        # rows before each sum's first term carry its partial sum
        j = ks + 1
        sign = np.where((j // 2) % 2 == 1, -1.0, 1.0)[:, None]
        live = np.empty((ks.size + 2, act.size))
        np.multiply(sign, terms, out=live[2:])
        np.copyto(live[2:], 0.0, where=stop)
        odd = ks[0] % 2
        live[odd], live[1 - odd] = q_sum, p_sum
        q_sum = _running(np.add, live[odd::2])[-1]
        p_sum = _running(np.add, live[1 - odd :: 2])[-1]
        term, prev_mag = terms[-1], mag[-1]
        frozen = stop[-1] | (prev_mag < 1e-17)
        if frozen.any():
            p_out[act[frozen]], q_out[act[frozen]] = p_sum[frozen], q_sum[frozen]
            going = ~frozen
            act, eight_x, term, prev_mag = act[going], eight_x[going], term[going], prev_mag[going]
            p_sum, q_sum, mu = p_sum[going], q_sum[going], _take(mu, going)
    p_out[act], q_out[act] = p_sum, q_sum
    phase = x - (0.5 * nu + 0.25) * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (
        p_out * np.cos(phase) - q_out * np.sin(phase)
    )


def _bessel_miller(nu: float, x: np.ndarray) -> np.ndarray:
    """Backward recurrence with series normalization; x > 0 required."""
    n_int = int(math.floor(nu))
    s = nu - n_int
    integer_order = s < 1e-12
    top = max(nu, float(np.max(x)))
    start = n_int + 2 + int(
        math.ceil(top - nu) + 2.2 * math.sqrt(40.0 * max(top, 1.0)) + 30
    )
    if start % 2:
        start += 1

    if integer_order:
        s = 0.0
        gammas = None
    else:
        # coefficients of the normalization sum  (x/2)^s = sum_k g_k J_{s+2k}
        gammas = np.empty(start // 2 + 1)
        gammas[0] = math.gamma(s + 1.0)
        for k in range(start // 2):
            gammas[k + 1] = gammas[k] * (s + 2 * k + 2) / (s + 2 * k) * (s + k) / (k + 1)

    inv_x = 2.0 / x
    f_up = np.zeros_like(x)
    f = np.full_like(x, 1e-280)
    norm = np.zeros_like(x)
    saved = np.zeros_like(x)
    for k in range(start, -1, -1):
        f_down = (s + k + 1.0) * inv_x * f - f_up
        f_up = f
        f = f_down
        if k % 2 == 0:
            if integer_order:
                norm += f if k == 0 else 2.0 * f
            else:
                norm += gammas[k // 2] * f
        if k == n_int:
            saved = f.copy()
        big = np.abs(f) > 1e250
        if np.any(big):
            factor = np.where(big, 1e-250, 1.0)
            f *= factor
            f_up *= factor
            norm *= factor
            saved *= factor
    if integer_order:
        return saved / norm
    return saved * np.power(0.5 * x, s) / norm


def _argument(x) -> np.ndarray:
    """x as a float array, refused unless every element is finite and in [0, _ARG_MAX]."""
    arr = np.asarray(x, dtype=float)
    if not np.all((0.0 <= arr) & (arr <= _ARG_MAX)):
        raise ValueError(f"argument must be finite and lie in [0, {_ARG_MAX:g}]")
    return arr


def bessel_j(order, x):
    """J_order(x) for order in [0, 60] and x in [0, 1e6], accurate to ~1e-10.

    order is a scalar or an array of the shape of x, one order per element;
    the series and Hankel regimes then take every order in one pass, and
    Miller's recurrence runs once per distinct order.
    """
    nu = np.asarray(order, dtype=float)
    if not np.all((0.0 <= nu) & (nu <= _ORDER_MAX)):
        raise ValueError(f"order must lie in [0, {_ORDER_MAX:g}], got {order!r}")
    arr = _argument(x)
    nu = float(nu) if nu.ndim == 0 else np.broadcast_to(nu, arr.shape).ravel()
    scalar = arr.ndim == 0
    xv = arr.ravel()

    out = np.empty_like(xv)
    series = _series_mask(_bessel_gate, nu, xv, *_order_limits(_bessel_gate, nu))
    asym = ~series & (xv >= np.maximum(13.0, 0.8 * nu * nu))
    middle = ~(series | asym)
    if np.any(series):
        out[series] = _bessel_series(_take(nu, series), xv[series])
    if np.any(asym):
        out[asym] = _bessel_asymptotic(_take(nu, asym), xv[asym])
    if np.any(middle):
        for order_k in np.unique(_take(nu, middle)).tolist():
            sel = middle & (nu == order_k)
            out[sel] = _bessel_miller(order_k, xv[sel])
    return float(out[0]) if scalar else out.reshape(arr.shape)


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
    fa = bessel_j(nu, a)
    if fa <= 0.0:  # pragma: no cover - first zero always exceeds order + 1
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

    n may also be a tuple of dimensions: the result then has one row per
    dimension, row i = omega(n[i], t), all computed in one pass with the
    order per element.  Rows agree with separate calls to ~1e-16: the series
    sums every row's elements until all of them have converged.
    """
    dims = n if isinstance(n, tuple) else (n,)
    dims = tuple(require_integer(k, "dimension") for k in dims)
    for k in dims:
        if not (1 <= k <= 66):
            raise ValueError(f"dimension must lie in [1, 66], got {k}")
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
    # per dimension: the order, the series limits and log Gamma(nu + 1)
    per_dim = [
        (nu, *_series_limits(_omega_gate, nu), math.lgamma(nu + 1.0))
        for nu in (0.5 * k - 1.0 for k in dims)
    ]
    if len(dims) == 1:
        # one dimension keeps a scalar order, as omega's single-row calls
        (nu, lo, hi, lgamma_nu1), tv = per_dim[0], t
    else:
        nu, lo, hi, lgamma_nu1 = np.repeat(np.array(per_dim).T, t.size, axis=1)
        tv = np.concatenate([t] * len(dims))
    use_series = _series_mask(_omega_gate, nu, tv, lo, hi)
    if use_series.all():
        return _ascending_sum(nu, tv, np.ones_like(tv)).reshape(len(dims), t.size)

    out = np.empty_like(tv)
    if np.any(use_series):
        ts = tv[use_series]
        out[use_series] = _ascending_sum(_take(nu, use_series), ts, np.ones_like(ts))
    rest = ~use_series
    tr, nu_r = tv[rest], _take(nu, rest)
    prefactor = np.exp(_take(lgamma_nu1, rest) + nu_r * np.log(2.0 / tr))
    out[rest] = prefactor * bessel_j(nu_r, tr)
    return out.reshape(len(dims), t.size)


def jacobi_sequence(kmax: int, alpha: float, t: np.ndarray) -> np.ndarray:
    """All normalized Jacobi values P~_k(t) for k = 0..kmax, shape (kmax+1, len(t)).

    The three-term recurrence is run directly on the polynomials normalized to
    1 at t = 1; folding the normalization into the coefficients gives
    (k + 2 alpha) P~_k = (2k + 2 alpha - 1) t P~_{k-1} - (k - 1) P~_{k-2},
    which reduces to the Chebyshev recurrence at alpha = -1/2, the smallest
    alpha accepted (the circle S^1).

    The recurrence runs over k on Python floats, once per point, with the
    coefficients built once per call: p = (a_k * t * p1 - b_k * p2) / c_k is
    the same IEEE operations in the same order as the elementwise numpy form,
    so the table is the same bits, at a cost linear in points x degrees.
    Any finite scalar or 1-D t is accepted, |t| > 1 included.
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
    rows, so the new rows are the same bits as a fresh table's.
    """
    start, two_alpha = len(table), 2.0 * alpha
    ks = range(max(start, 2), kmax + 1)
    coeffs = [(2.0 * k + two_alpha - 1.0, k - 1.0, k + two_alpha) for k in ks]
    vals = np.concatenate([table, np.empty((kmax + 1 - start, t.size))])
    last = zip(*table[start - 2 :].tolist()) if start >= 2 else ((1.0, x) for x in t.tolist())
    for j, (x, (p2, p1)) in enumerate(zip(t.tolist(), last)):
        column = [p2, p1][start:]
        for a, b, c in coeffs:
            p2, p1 = p1, (a * x * p1 - b * p2) / c
            column.append(p1)
        vals[start:, j] = column[: kmax + 1 - start]
    return vals
