"""Bessel functions, radial Fourier profiles, and normalized Jacobi polynomials.

Everything here is evaluated in pure numpy to double precision with an
absolute-accuracy target of 1e-10.  Three regimes cover the Bessel domain:
the ascending power series while its largest term stays small enough that
alternating cancellation cannot eat the target accuracy, Miller's backward
recurrence in the intermediate band, and the Hankel asymptotic expansion for
large argument.  The regime boundaries overlap, so coverage is exhaustive
for orders up to 60 and arguments up to 1e6.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError

_ORDER_MAX = 60.0
_ARG_MAX = 1e6
_LOG_SERIES_GATE = math.log(3e4)  # max-term cap: keeps cancellation below ~3e-12
_LOG_OMEGA_GATE = math.log(1e4)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _lgamma_arr(z: np.ndarray) -> np.ndarray:
    """Vectorized log-gamma for z > 0, good to ~1e-10 (used only for gating)."""
    z = np.asarray(z, dtype=float)
    shift = np.zeros_like(z)
    for i in range(8):
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


def _series_log_maxterm(nu: float, x: np.ndarray) -> np.ndarray:
    """log of the largest term of the ascending series for J_nu(x)."""
    m_star = np.maximum(0.0, 0.5 * (-(nu + 2.0) + np.sqrt(nu * nu + x * x)))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (
            (nu + 2.0 * m_star) * np.log(x / 2.0)
            - _lgamma_arr(m_star + 1.0)
            - _lgamma_arr(nu + m_star + 1.0)
        )
    return np.where(x > 0.0, out, -np.inf)


def _ascending_sum(nu: float, x: np.ndarray, t0: np.ndarray) -> np.ndarray:
    """sum_m t_m with t_{m+1} = -(x/2)^2 t_m / ((m + 1)(nu + m + 1)).

    With t0 = (x/2)^nu / Gamma(nu + 1) this is the ascending series of
    J_nu(x); with t0 = 1 it is Gamma(nu + 1) (2/x)^nu J_nu(x).
    """
    term = t0.copy()
    total = t0.copy()
    q = 0.25 * x * x
    for m in range(700):
        term *= -q / ((m + 1.0) * (nu + m + 1.0))
        total += term
        if np.all(np.abs(term) <= 1e-17 * (1.0 + np.abs(total))):
            break
    else:  # pragma: no cover - gate keeps series short
        raise ConvergenceError("Bessel series failed to converge", iterations=700)
    return total


def _bessel_series(nu: float, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    zero = x == 0.0
    if nu == 0.0:
        out[zero] = 1.0
    xs = x[~zero]
    if xs.size == 0:
        return out
    t0 = np.exp(nu * np.log(xs / 2.0) - math.lgamma(nu + 1.0))
    out[~zero] = _ascending_sum(nu, xs, t0)
    return out


def _bessel_asymptotic(nu: float, x: np.ndarray) -> np.ndarray:
    """Hankel expansion; valid once x >= max(13, 0.8 nu^2)."""
    mu = 4.0 * nu * nu
    p_sum = np.ones_like(x)
    q_sum = np.zeros_like(x)
    term = np.ones_like(x)
    prev_mag = np.full_like(x, np.inf)
    frozen = np.zeros(x.shape, dtype=bool)
    for k in range(40):
        term = term * (mu - (2.0 * k + 1.0) ** 2) / (8.0 * x * (k + 1.0))
        mag = np.abs(term)
        # freeze an element as soon as its terms stop shrinking
        frozen |= mag >= prev_mag
        live = ~frozen
        j = k + 1
        sign = -1.0 if (j // 2) % 2 else 1.0
        if j % 2:
            q_sum[live] += sign * term[live]
        else:
            p_sum[live] += sign * term[live]
        frozen |= mag < 1e-17
        if np.all(frozen):
            break
        prev_mag = mag
    phase = x - (0.5 * nu + 0.25) * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (
        p_sum * np.cos(phase) - q_sum * np.sin(phase)
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


def bessel_j(order: float, x):
    """J_order(x) for order in [0, 60] and x in [0, 1e6], accurate to ~1e-10."""
    nu = float(order)
    if not (0.0 <= nu <= _ORDER_MAX):
        raise ValueError(f"order must lie in [0, {_ORDER_MAX:g}], got {nu!r}")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    xv = np.atleast_1d(arr).astype(float).copy()
    if not np.all(np.isfinite(xv)):
        raise ValueError("argument must be finite")
    if np.any(xv < 0.0) or np.any(xv > _ARG_MAX):
        raise ValueError(f"argument must lie in [0, {_ARG_MAX:g}]")

    out = np.empty_like(xv)
    series = _series_log_maxterm(nu, xv) <= _LOG_SERIES_GATE
    asym = ~series & (xv >= max(13.0, 0.8 * nu * nu))
    middle = ~(series | asym)
    if np.any(series):
        out[series] = _bessel_series(nu, xv[series])
    if np.any(asym):
        out[asym] = _bessel_asymptotic(nu, xv[asym])
    if np.any(middle):
        out[middle] = _bessel_miller(nu, xv[middle])
    return float(out[0]) if scalar else out.reshape(arr.shape)


def bessel_first_zero(order: float, tol: float = 1e-13) -> float:
    """Smallest positive zero of J_order, located by bracketing and bisection."""
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
        if b - a <= tol * max(1.0, mid):
            break
        if bessel_j(nu, mid) > 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def omega(n: int, t):
    """Radial profile of the unit-sphere surface measure in dimension n.

    omega(n, t) = Gamma(n/2) (2/t)^{(n-2)/2} J_{(n-2)/2}(t), with omega(n, 0) = 1.
    For n = 3 this is sin(t)/t; for n = 1 it degenerates to cos(t).
    """
    n = int(n)
    if not (1 <= n <= 64):
        raise ValueError(f"dimension must lie in [1, 64], got {n}")
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    tv = np.atleast_1d(arr).astype(float).copy()
    if not np.all(np.isfinite(tv)):
        raise ValueError("argument must be finite")
    if np.any(tv < 0.0) or np.any(tv > _ARG_MAX):
        raise ValueError(f"argument must lie in [0, {_ARG_MAX:g}]")
    if n == 1:
        out = np.cos(tv)
        return float(out[0]) if scalar else out.reshape(arr.shape)

    half = 0.5 * n
    nu = half - 1.0
    # largest term of the hypergeometric series for omega itself; while it is
    # small the series carries full absolute accuracy even where the Bessel
    # prefactor would amplify error
    m_star = np.maximum(0.0, 0.5 * (-(half + 1.0) + np.sqrt((half - 1.0) ** 2 + tv**2)))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_max = (
            2.0 * m_star * np.log(tv / 2.0)
            + math.lgamma(half)
            - _lgamma_arr(m_star + 1.0)
            - _lgamma_arr(half + m_star)
        )
    log_max = np.where(tv > 0.0, log_max, -np.inf)
    use_series = log_max <= _LOG_OMEGA_GATE

    out = np.empty_like(tv)
    if np.any(use_series):
        ts = tv[use_series]
        out[use_series] = _ascending_sum(nu, ts, np.ones_like(ts))
    rest = ~use_series
    if np.any(rest):
        tr = tv[rest]
        prefactor = np.exp(math.lgamma(half) + nu * np.log(2.0 / tr))
        out[rest] = prefactor * bessel_j(nu, tr)
    return float(out[0]) if scalar else out.reshape(arr.shape)


def jacobi_sequence(kmax: int, alpha: float, t: np.ndarray) -> np.ndarray:
    """All normalized Jacobi values P~_k(t) for k = 0..kmax, shape (kmax+1, len(t)).

    The three-term recurrence is run directly on the polynomials normalized to
    1 at t = 1; folding the normalization into the coefficients gives
    (k + 2 alpha) P~_k = (2k + 2 alpha - 1) t P~_{k-1} - (k - 1) P~_{k-2},
    which reduces to the Chebyshev recurrence at alpha = -1/2, the smallest
    alpha accepted (the circle S^1).
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    if not (alpha >= -0.5):
        raise ValueError(f"alpha must be >= -1/2, got {alpha!r}")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    vals = np.empty((kmax + 1, t.size))
    vals[0] = 1.0
    if kmax >= 1:
        vals[1] = t
    two_alpha = 2.0 * alpha
    for k in range(2, kmax + 1):
        vals[k] = ((2.0 * k + two_alpha - 1.0) * t * vals[k - 1] - (k - 1.0) * vals[k - 2]) / (
            k + two_alpha
        )
    return vals
