"""Bessel functions, radial Fourier profiles, and normalized Jacobi polynomials.

Everything here is evaluated in pure numpy to double precision with an
absolute-accuracy target of 1e-10.  Three regimes cover the Bessel domain:
the ascending power series while its largest term stays small enough that
alternating cancellation cannot eat the target accuracy, Miller's backward
recurrence in the intermediate band, and the Hankel asymptotic expansion for
large argument.  The regime boundaries overlap, so coverage is exhaustive
for orders up to 60 and arguments up to 1e6.

The series and Hankel sums are not run one term per Python step: a chunk
of terms is one (terms x elements) table, at most 16 terms and, unless one
term alone is larger, 2^14 cells.  Its running products, sums and freeze
masks come from ufunc accumulations that combine the terms in the order of
the recurrence, so the results are the same bits as a term-by-term loop.

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
_LGAMMA_SHIFTS = np.arange(8.0)[:, None]
# series and Hankel terms are tabulated a chunk at a time: at most
# _TABLE_TERMS terms, and at most _TABLE_ELEMENTS cells unless one term
# alone is larger
_TABLE_TERMS = 16
_TABLE_ELEMENTS = 1 << 14
# ufunc.accumulate along axis 0 walks a table one column at a time, so wider
# tables are accumulated by one whole-row operation per row instead
_ACCUMULATE_WIDTH = 256


def _running(ufunc, first: np.ndarray, rows: np.ndarray, out: np.ndarray | None = None):
    """out[0] = ufunc(first, rows[0]) and out[k] = ufunc(out[k-1], rows[k]).

    The rows are combined strictly in order, as a term-by-term loop would.
    Without out, rows is overwritten.
    """
    if out is None:
        out = rows
    if rows.shape[1] <= _ACCUMULATE_WIDTH:
        if out is not rows:
            out[...] = rows
        ufunc(first, out[0], out=out[0])
        return ufunc.accumulate(out, axis=0, out=out)
    prev = first
    for k in range(rows.shape[0]):
        prev = ufunc(prev, rows[k], out=out[k])
    return out


def _table_rows(size: int) -> int:
    """Terms per chunk of a (terms x elements) table over size elements."""
    return max(1, min(_TABLE_TERMS, _TABLE_ELEMENTS // max(size, 1)))


def _lgamma_arr(z: np.ndarray) -> np.ndarray:
    """Vectorized log-gamma for z > 0, good to ~1e-10 (used only for gating)."""
    z = np.asarray(z, dtype=float)
    # log z + log(z + 1) + ... + log(z + 7), summed in that order: by one
    # running sum over a table of the eight logs, or one row at a time when
    # that table would exceed _TABLE_ELEMENTS
    if z.size * _LGAMMA_SHIFTS.size <= _TABLE_ELEMENTS:
        logs = np.log(z.reshape(1, -1) + _LGAMMA_SHIFTS)
        shift = _running(np.add, logs[0], logs[1:])[-1].reshape(z.shape)
    else:
        shift = np.log(z)
        for i in range(1, _LGAMMA_SHIFTS.size):
            shift += np.log(z + i)
    zz = z + 8.0
    stirling = (
        (zz - 0.5) * np.log(zz)
        - zz
        + _HALF_LOG_2PI
        + 1.0 / (12.0 * zz)
        - 1.0 / (360.0 * zz**3)
    )
    return stirling - shift


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
    """log of the largest term of the ascending series for J_nu(x), nu per element."""
    m_star = np.maximum(0.0, 0.5 * (-(nu + 2.0) + np.sqrt(nu * nu + x * x)))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (
            (nu + 2.0 * m_star) * np.log(x / 2.0)
            - _lgamma_arr(m_star + 1.0)
            - _lgamma_arr(nu + m_star + 1.0)
        )
    return np.where(x > 0.0, out, -np.inf)


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
    rows = _table_rows(x.size)
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
        _running(np.multiply, terms[0], t)
        _running(np.add, sums[0], t, s)
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
    while k0 < 40 and act.size:
        ks = np.arange(k0, min(k0 + _table_rows(act.size), 40))
        k0 += ks.size
        # term j = k + 1 is (term k * (mu - (2k + 1)^2)) / (8 x (k + 1))
        terms = np.multiply.outer(ks + 1.0, eight_x)
        for i, k in enumerate(ks.tolist()):
            num = term * (mu - (2.0 * k + 1.0) ** 2)
            term = np.divide(num, terms[i], out=terms[i])
        mag = np.abs(terms)
        # term j is dropped once a term up to j grew or a term before j fell
        # below 1e-17
        stop = np.empty(terms.shape, dtype=bool)
        np.greater_equal(mag[0], prev_mag, out=stop[0])
        if ks.size > 1:
            stop[1:] = (mag[1:] >= mag[:-1]) | (mag[:-1] < 1e-17)
            _running(np.logical_or, stop[0], stop[1:])
        # term j goes to Q when j is odd, to P when even, with sign
        # (-1)^floor(j/2)
        j = ks + 1
        sign = np.where((j // 2) % 2 == 1, -1.0, 1.0)[:, None]
        live = np.where(stop, 0.0, sign * terms)
        odd = ks[0] % 2  # row i holds j = ks[0] + 1 + i
        if ks.size > odd:
            q_sum = _running(np.add, q_sum, live[odd::2])[-1]
        if ks.size > 1 - odd:
            p_sum = _running(np.add, p_sum, live[1 - odd :: 2])[-1]
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


def bessel_j(order, x):
    """J_order(x) for order in [0, 60] and x in [0, 1e6], accurate to ~1e-10.

    order is a scalar or an array of the shape of x, one order per element;
    the series and Hankel regimes then take every order in one pass, and
    Miller's recurrence runs once per distinct order.
    """
    arr = np.asarray(x, dtype=float)
    nu = np.asarray(order, dtype=float)
    if not np.all((0.0 <= nu) & (nu <= _ORDER_MAX)):
        raise ValueError(f"order must lie in [0, {_ORDER_MAX:g}], got {order!r}")
    nu = float(nu) if nu.ndim == 0 else np.broadcast_to(nu, arr.shape).ravel()
    scalar = arr.ndim == 0
    xv = arr.ravel()
    if not np.all(np.isfinite(xv)):
        raise ValueError("argument must be finite")
    if np.any(xv < 0.0) or np.any(xv > _ARG_MAX):
        raise ValueError(f"argument must lie in [0, {_ARG_MAX:g}]")

    out = np.empty_like(xv)
    series = _series_log_maxterm(nu, xv) <= _LOG_SERIES_GATE
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
    extrema passes and optimizer rounds ask for it.
    """
    nu = float(order)
    if not (0.0 <= nu <= _ORDER_MAX):
        raise ValueError(f"order must lie in [0, {_ORDER_MAX:g}], got {nu!r}")
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
    arr = np.asarray(t, dtype=float)
    tv = arr.ravel()
    if not np.all(np.isfinite(tv)):
        raise ValueError("argument must be finite")
    if np.any(tv < 0.0) or np.any(tv > _ARG_MAX):
        raise ValueError(f"argument must lie in [0, {_ARG_MAX:g}]")

    out = np.empty((len(dims), tv.size))
    rows = [i for i, k in enumerate(dims) if k > 1]
    for i, k in enumerate(dims):
        if k == 1:
            out[i] = np.cos(tv)
    if rows:
        out[rows] = _omega_pass([dims[i] for i in rows], tv)
    if isinstance(n, tuple):
        return out.reshape((len(dims),) + arr.shape)
    return float(out[0, 0]) if arr.ndim == 0 else out[0].reshape(arr.shape)


def _omega_pass(dims, t: np.ndarray) -> np.ndarray:
    """omega(k, t) for every k >= 2 in dims, one row each, in one pass."""

    def per_element(values):
        # one dimension keeps a scalar order, as omega's single-row calls
        return values[0] if len(values) == 1 else np.repeat(values, t.size)

    half = per_element([0.5 * k for k in dims])
    lgamma_half = per_element([math.lgamma(0.5 * k) for k in dims])
    nu = half - 1.0
    tv = np.tile(t, len(dims))
    # largest term of the hypergeometric series for omega itself, the Bessel
    # series' largest term over its prefactor (t/2)^nu / Gamma(nu + 1); while it
    # is small the series carries full absolute accuracy even where the Bessel
    # prefactor would amplify error
    with np.errstate(divide="ignore", invalid="ignore"):
        log_max = _series_log_maxterm(nu, tv) - nu * np.log(tv / 2.0) + lgamma_half
    use_series = np.where(tv > 0.0, log_max, -np.inf) <= _LOG_OMEGA_GATE

    out = np.empty_like(tv)
    if np.any(use_series):
        ts = tv[use_series]
        out[use_series] = _ascending_sum(_take(nu, use_series), ts, np.ones_like(ts))
    rest = ~use_series
    if np.any(rest):
        tr, nu_r = tv[rest], _take(nu, rest)
        prefactor = np.exp(_take(lgamma_half, rest) + nu_r * np.log(2.0 / tr))
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
    two_alpha = 2.0 * float(alpha)
    coeffs = [(2.0 * k + two_alpha - 1.0, k - 1.0, k + two_alpha) for k in range(2, kmax + 1)]
    vals = np.empty((kmax + 1, t.size))
    for j, x in enumerate(t.tolist()):
        p2, p1 = 1.0, x
        column = [p2, p1]
        for a, b, c in coeffs:
            p2, p1 = p1, (a * x * p1 - b * p2) / c
            column.append(p1)
        vals[:, j] = column[: kmax + 1]
    return vals
