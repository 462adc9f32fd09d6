"""Bounds for translation-invariant graphs on R^n given by forbidden distances.

A finite atomic radial measure nu = sum_i w_i omega_{d_i} (unit mass on the
sphere of radius d_i) acts by convolution; its spectrum is the closure of the
range of the radial profile nuhat(r) = sum_i w_i Omega_n(d_i r), r >= 0.  The
chromatic bound is (sup nuhat - inf nuhat)/(-inf nuhat) and the independence
(upper density) bound is (-inf nuhat)/(nuhat(0) - inf nuhat).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .reports import SpectralRange
from .simplex import solve_matrix_game
from .specfun import bessel_first_zero, omega

_POINTS_PER_PERIOD = 40
_LP_GRID = 512
_LP_ROUNDS = 40  # cutting-plane rounds before the optimizer gives up
_REFINE_ITERS = 70
_BLOCK_ELEMENTS = 1 << 14  # atoms x points per omega call
# (first-window points) x (active atoms) above which a scan is refused
_SCAN_BUDGET = 1e8
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class RadialMeasure:
    """Signed measure supported on spheres; atoms are (radius, weight) pairs.

    Radii must be positive and strictly increasing.  Dimension 1 (point pairs
    on the line, profile cos) is accepted for the lattice oracle; the bounds
    of interest live in dimension >= 2.
    """

    dim: int
    atoms: tuple

    def __post_init__(self):
        if isinstance(self.dim, bool) or not isinstance(self.dim, numbers.Integral):
            raise ValueError(f"dimension must be an integer, got {self.dim!r}")
        n = int(self.dim)
        if not (1 <= n <= 64):
            raise ValueError(f"dimension must lie in [1, 64], got {n}")
        norm = []
        prev = 0.0
        for radius, weight in self.atoms:
            r, w = float(radius), float(weight)
            if not (math.isfinite(r) and math.isfinite(w)):
                raise ValueError("atoms must be finite")
            if r <= prev:
                raise ValueError("radii must be positive and strictly increasing")
            prev = r
            norm.append((r, w))
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "atoms", tuple(norm))

    def radii(self) -> np.ndarray:
        return np.array([r for r, _ in self.atoms])

    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms])

    def total_mass(self) -> float:
        return float(sum(w for _, w in self.atoms))


@dataclass(frozen=True)
class ExtremaReport:
    inf_value: float
    sup_value: float
    inf_arg: float
    sup_arg: float
    cutoff: float
    grid_points: int


def radial_measure_to_json(mu: RadialMeasure) -> dict:
    return {"dim": mu.dim, "atoms": [[r, w] for r, w in mu.atoms]}


def radial_measure_from_json(obj) -> RadialMeasure:
    if not isinstance(obj, dict) or set(obj) != {"dim", "atoms"}:
        raise ValueError("measure object must have exactly the keys 'dim' and 'atoms'")
    try:
        atoms = [(float(r), float(w)) for r, w in obj["atoms"]]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed atoms list: {exc}") from exc
    return RadialMeasure(obj["dim"], tuple(atoms))


def fourier_radial(mu: RadialMeasure, r):
    """nuhat(r) = sum_i w_i Omega_n(d_i r); equals the total mass at r = 0.

    Omega_n is evaluated on the (active atoms x points) block in column
    blocks of at most _BLOCK_ELEMENTS elements, so one call covers many
    points while memory stays bounded for measures with many atoms.
    """
    arr = np.asarray(r, dtype=float)
    scalar = arr.ndim == 0
    rv = np.atleast_1d(arr).astype(float).ravel()
    w = mu.weights()
    d, w = mu.radii()[w != 0.0], w[w != 0.0]
    out = np.zeros_like(rv)
    if d.size:
        cols = max(1, _BLOCK_ELEMENTS // d.size)
        for s in range(0, rv.size, cols):
            block = omega(mu.dim, np.outer(d, rv[s : s + cols]))
            # summed row by row, in atom order
            out[s : s + cols] = np.sum(w[:, None] * block, axis=0)
    return float(out[0]) if scalar else out.reshape(arr.shape)


def _tail_envelope(mu: RadialMeasure, r: float) -> float:
    """Upper bound for |nuhat| beyond r, from |J_nu(t)| <= sqrt(2/(pi t))."""
    n = mu.dim
    c = math.gamma(n / 2.0) * 2.0 ** ((n - 2) / 2.0) * math.sqrt(2.0 / math.pi)
    power = (n - 1) / 2.0
    return float(
        sum(abs(w) * c * (d * r) ** (-power) for d, w in mu.atoms if w != 0.0)
    )


def _float_gcd(values, rel_tol: float = 1e-9) -> float:
    tol = rel_tol * max(values)
    g = values[0]
    for v in values[1:]:
        a, b = g, v
        while b > tol:
            a, b = b, math.fmod(a, b)
        g = a
    return g


def _refine(f, lo: np.ndarray, hi: np.ndarray, sign: np.ndarray):
    """Golden-section search on every bracket [lo_k, hi_k] at once.

    Minimizes sign_k * f on bracket k (sign +1 for a low, -1 for a high) with
    the scalar algorithm applied element-wise, so each iteration evaluates f
    once, on one vector holding every bracket's new point.  Returns
    (args, values) with values in the unsigned scale of f.
    """
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    k = lo.size
    fcd = np.concatenate([sign, sign]) * f(np.concatenate([c, d]))
    fc, fd = fcd[:k], fcd[k:]
    for _ in range(_REFINE_ITERS):
        left = fc < fd
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        kept = np.where(left, c, d)
        f_kept = np.where(left, fc, fd)
        probe = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        f_probe = sign * f(probe)
        c = np.where(left, probe, kept)
        d = np.where(left, kept, probe)
        fc = np.where(left, f_probe, f_kept)
        fd = np.where(left, f_kept, f_probe)
    left = fc < fd
    return np.where(left, c, d), sign * np.minimum(fc, fd)


def _window_scan(mu: RadialMeasure, tol: float):
    """Scan nuhat out to a cutoff past which neither extreme can move.

    Returns (low_r, high_r, cutoff, points, step): the grid points of every
    grid-local low and high that could still be the global one, the cutoff,
    the number of points scanned and the grid step.
    """
    active = [(d, w) for d, w in mu.atoms if w != 0.0]
    d_max = max(d for d, _ in active)
    d_min = min(d for d, _ in active)
    step = 2.0 * math.pi / (_POINTS_PER_PERIOD * d_max)
    # |nuhat''| <= sum |w| d^2, so a true extremum between samples can beat its
    # neighbouring sample by at most m2 step^2 / 8; every grid-local extremum
    # within that margin of the best sample is a candidate basin
    m2 = sum(abs(w) * d * d for d, w in active)
    margin = m2 * step * step / 8.0

    lows: list = []
    highs: list = []

    def scan(lo: float, hi: float):
        count = max(3, int(math.ceil((hi - lo) / step)) + 1)
        grid = np.linspace(lo, hi, count)
        vals = fourier_radial(mu, grid)
        left = np.empty(count, dtype=bool)
        right = np.empty(count, dtype=bool)
        left[0] = right[-1] = True
        left[1:] = vals[1:] <= vals[:-1]
        right[:-1] = vals[:-1] <= vals[1:]
        for i in np.flatnonzero(left & right):
            lows.append((float(grid[i]), float(vals[i])))
        left[1:] = vals[1:] >= vals[:-1]
        right[:-1] = vals[:-1] >= vals[1:]
        right[-1] = True
        for i in np.flatnonzero(left & right):
            highs.append((float(grid[i]), float(vals[i])))
        return float(vals.min()), float(vals.max()), count

    if mu.dim == 1:
        g = _float_gcd([d for d, _ in active])
        if g < 1e-6 * d_max:
            raise ValueError(
                "dimension-1 profiles need commensurable radii for a finite scan"
            )
        cutoff = 2.0 * math.pi / g + step
        if cutoff / step > 2e6:
            raise ConvergenceError("dimension-1 period too long to scan")
        val_min, val_max, points = scan(0.0, cutoff)
    else:
        cutoff = (bessel_first_zero(mu.dim / 2.0) + 4.0 * math.pi) / d_min
        if cutoff / step * len(active) > _SCAN_BUDGET:
            raise ConvergenceError(
                f"profile scan too large: about {cutoff / step * len(active):.3g} "
                f"atom evaluations in the first window, limit {_SCAN_BUDGET:.3g}"
            )
        val_min, val_max, points = scan(0.0, cutoff)
        for _ in range(80):
            env = _tail_envelope(mu, cutoff)
            if env <= max(-val_min, tol) and env <= max(val_max, tol):
                break
            new_cutoff = cutoff * 1.6
            v_min, v_max, extra = scan(cutoff, new_cutoff)
            points += extra
            val_min = min(val_min, v_min)
            val_max = max(val_max, v_max)
            cutoff = new_cutoff
        else:  # pragma: no cover - envelope decays for every nonzero measure
            raise ConvergenceError("extrema window budget exhausted")

    low_r = [r for r, v in lows if v <= val_min + margin]
    high_r = [r for r, v in highs if v >= val_max - margin]
    return low_r, high_r, cutoff, points, step


def _refined_extrema(mu: RadialMeasure, tol: float):
    """Scan nuhat and golden-refine every competing extremal basin together.

    Returns (lows, highs, cutoff, points) with lows/highs lists of refined
    (arg, value) candidates; the first entry of each is the exact r = 0
    endpoint, so the lists are never empty.
    """
    low_r, high_r, cutoff, points, step = _window_scan(mu, tol)
    r = np.array(low_r + high_r)
    args, vals = _refine(
        lambda x: fourier_radial(mu, np.clip(x, 0.0, cutoff)),
        np.maximum(0.0, r - step),
        np.minimum(cutoff, r + step),
        np.repeat([1.0, -1.0], [len(low_r), len(high_r)]),
    )
    refined = list(zip(args.tolist(), vals.tolist()))
    v0 = fourier_radial(mu, 0.0)
    ref_lows = [(0.0, v0)] + refined[: len(low_r)]
    ref_highs = [(0.0, v0)] + refined[len(low_r) :]
    return ref_lows, ref_highs, cutoff, points


def global_extrema(mu: RadialMeasure, tol: float = 1e-8) -> ExtremaReport:
    """Certified inf and sup of nuhat over [0, infinity).

    The profile is scanned densely out to a cutoff and the window is grown
    until the Bessel-decay envelope beyond the cutoff is smaller than the
    extreme values already found (or than tol when an extreme is near zero),
    at which point no point past the cutoff can move either extreme.  In
    dimension 1 the profile is periodic, so one period is scanned instead.
    Every grid-local low or high that could still be the global one is then
    refined in a single batched golden-section pass over all such basins;
    each profile evaluation covers every atom and point at once, in blocks
    of at most 2^14 Bessel arguments.  A scan whose first window alone needs
    more than 1e8 atom evaluations is refused with ConvergenceError.
    """
    if tol < 1e-12:
        raise ValueError("tol below 1e-12 is not resolvable in double precision")
    if all(w == 0.0 for _, w in mu.atoms):
        return ExtremaReport(0.0, 0.0, 0.0, 0.0, 0.0, 0)
    return _extrema_report(*_refined_extrema(mu, tol))


def _extrema_report(lows, highs, cutoff: float, points: int) -> ExtremaReport:
    arg_min, val_min = min(lows, key=lambda p: p[1])
    arg_max, val_max = max(highs, key=lambda p: p[1])
    return ExtremaReport(val_min, val_max, arg_min, arg_max, cutoff, points)


def radial_range(
    mu: RadialMeasure, tol: float = 1e-8
) -> tuple[SpectralRange, ExtremaReport]:
    """The spectral range [inf nuhat, sup nuhat] of mu, with its evidence.

    Returns (SpectralRange, ExtremaReport): the range, read from one
    global_extrema pass, and that pass's report.  R = nuhat(0), the total
    mass, is given only for a nonnegative measure: the density bound needs a
    nonnegative operator.
    """
    ext = global_extrema(mu, tol)
    return _range_from_extrema(mu, ext), ext


def _range_from_extrema(mu: RadialMeasure, ext: ExtremaReport) -> SpectralRange:
    nonneg = all(w >= 0.0 for _, w in mu.atoms)
    return SpectralRange(ext.inf_value, ext.sup_value, mu.total_mass() if nonneg else None)


def steinhardt_measure(beta: float, N: int) -> RadialMeasure:
    """Geometric combination of odd-radius spheres in the plane.

    Atom k sits on radius 2k + 1 with weight ((beta - 1)/beta) beta^(-k); the
    chromatic bounds of these measures grow without limit as beta -> 1 and
    N -> infinity, which is the odd-distance-graph divergence phenomenon.
    """
    beta = float(beta)
    if not (1.0 < beta <= 10.0):
        raise ValueError(f"beta must lie in (1, 10], got {beta!r}")
    N = int(N)
    if not (0 <= N <= 10_000):
        raise ValueError(f"N must lie in [0, 10000], got {N}")
    scale = (beta - 1.0) / beta
    atoms = tuple((2.0 * k + 1.0, scale * beta ** (-k)) for k in range(N + 1))
    return RadialMeasure(2, atoms)


def unit_distance_range(n: int) -> tuple[SpectralRange, float]:
    """Closed-form range of the unit-distance graph of R^n, without a scan.

    The profile of the single unit sphere is Omega_n, whose global minimum
    sits at the first zero j of J_{n/2}, and Omega_n(0) = 1 is its maximum.
    Returns (SpectralRange(v, 1, R=1), j) with v = Omega_n(j), which gives
    the chromatic bound (1 - v)/(-v) and the density bound (-v)/(1 - v).
    """
    n = RadialMeasure(n, ()).dim  # the measure type validates the dimension
    if not (2 <= n <= 32):
        raise ValueError(f"dimension must lie in [2, 32], got {n}")
    z = bessel_first_zero(n / 2.0)
    return SpectralRange(float(omega(n, z)), 1.0, 1.0), z


def optimize_radial_measure(
    n: int, radii, tol: float = 1e-8, grid: int = _LP_GRID
) -> tuple[RadialMeasure, SpectralRange]:
    """Best chromatic bound over probability measures on the given radii.

    Solves the max-min game between weights and frequencies on a finite grid,
    then verifies the winner against the true continuous infimum; any
    frequency that beats the grid value is appended as a new constraint and
    the game is re-solved (cutting planes).  Returns (measure, range): the
    range is read from the extrema of the last round, which certified the
    measure, as radial_range would read it.
    """
    n = RadialMeasure(n, ()).dim  # the measure type validates the dimension
    if not (2 <= n <= 32):
        raise ValueError(f"dimension must lie in [2, 32], got {n}")
    ds = sorted(float(d) for d in radii)
    if not ds or any(d <= 0.0 for d in ds) or len(set(ds)) != len(ds):
        raise ValueError("radii must be distinct and positive")
    if not (16 <= int(grid) <= 100_000):
        raise ValueError(f"grid size must lie in [16, 100000], got {grid}")
    if tol < 1e-12:
        raise ValueError("tol below 1e-12 is not resolvable in double precision")

    uniform = RadialMeasure(n, tuple((d, 1.0 / len(ds)) for d in ds))
    cutoff = _window_scan(uniform, tol)[2]
    grid = list(np.linspace(0.0, cutoff, int(grid)))
    darr = np.array(ds)

    mu = uniform
    for _ in range(_LP_ROUNDS):
        payoff = omega(n, np.outer(darr, np.array(grid)))
        t_star, w = solve_matrix_game(payoff)
        mu = RadialMeasure(n, tuple(zip(ds, w)))
        lows, highs, cut_r, points = _refined_extrema(mu, tol)
        ext = _extrema_report(lows, highs, cut_r, points)
        if ext.inf_value >= t_star - tol:
            break
        # every basin beating the grid value is a violated constraint; adding
        # them all at once stops the game from cycling through near-tied dips
        grid.extend(a for a, v in lows if v < t_star - tol)
    else:
        raise ConvergenceError(
            "cutting-plane rounds exhausted before certification",
            iterations=_LP_ROUNDS,
        )
    return mu, _range_from_extrema(mu, ext)
