"""Bounds for translation-invariant graphs on R^n given by forbidden distances.

A finite atomic radial measure nu = sum_i w_i omega_{d_i} (unit mass on the
sphere of radius d_i) acts by convolution; its spectrum is the closure of the
range of the radial profile nuhat(r) = sum_i w_i Omega_n(d_i r), r >= 0.  The
chromatic bound is (sup nuhat - inf nuhat)/(-inf nuhat) and the independence
(upper density) bound is (-inf nuhat)/(nuhat(0) - inf nuhat).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, require_integer, require_tolerance
from .reports import SpectralRange
from .simplex import cutting_planes
from .specfun import bessel_first_zero, omega

_POINTS_PER_PERIOD = 40
_LP_GRID = 512
_NEWTON_ITERS = 64  # bisection alone narrows a bracket 2**64-fold
_NEWTON_RTOL = 1e-11
_BLOCK_ELEMENTS = 1 << 14  # atoms x points per omega call
# (first-window points) x (active atoms) above which a scan is refused
_SCAN_BUDGET = 1e8
# omega cells one optimizer call keeps of its scan tables (8 MB); a scan
# segment that would pass it is evaluated the same way and not kept
_KEPT_CELLS = 1 << 20


@dataclass(frozen=True)
class RadialMeasure:
    """Signed measure supported on spheres; atoms are (radius, weight) pairs.

    Radii must be positive, strictly increasing and below about 1.3e154 (a
    finite square), and sum |w_i| max(1, r_i^2) must be finite.  Dimension
    1 (point pairs on the line, profile cos) is accepted for the lattice
    oracle; the bounds live in dimension >= 2.
    """

    dim: int
    atoms: tuple

    def __post_init__(self):
        n = require_integer(self.dim, "dimension")
        if not (1 <= n <= 64):
            raise ValueError(f"dimension must lie in [1, 64], got {n}")
        norm = []
        prev = scale = 0.0
        for radius, weight in self.atoms:
            r, w = float(radius), float(weight)
            # the profile's curvature scales as r^2, so r^2 must be finite too
            if not (math.isfinite(r * r) and math.isfinite(w)):
                raise ValueError("atoms must be finite, radii below about 1.3e154")
            # and so must the profile's value, slope and curvature summed over atoms
            scale += abs(w) * max(1.0, r * r)
            if not math.isfinite(scale):
                raise ValueError("sum of |weight| * max(1, radius^2) must be finite")
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


def _active_atoms(mu: RadialMeasure):
    """(d, w): the radii and weights of the atoms with nonzero weight."""
    w = mu.weights()
    return mu.radii()[w != 0.0], w[w != 0.0]


def _atom_blocks(d: np.ndarray, r: np.ndarray):
    """Column blocks of the (atoms x points) arguments t = d_i r_j.

    Yields (cols, t): a slice of the points and t for those points.  A block
    holds at most _BLOCK_ELEMENTS elements (one column at least), so one
    omega call covers many points while memory stays bounded for many atoms.
    """
    if d.size == 0:
        return
    width = max(1, _BLOCK_ELEMENTS // d.size)
    for s in range(0, r.size, width):
        cols = slice(s, s + width)
        yield cols, np.outer(d, r[cols])


def _weighted_rows(w: np.ndarray, blocks, size: int) -> np.ndarray:
    """sum_i w_i table[i] for the (cols, table) omega blocks of size points.

    Each block is summed row by row, in atom order.
    """
    out = np.zeros(size)
    for cols, table in blocks:
        out[cols] = np.sum(w[:, None] * table, axis=0)
    return out


def fourier_radial(mu: RadialMeasure, r, *, kept: dict | None = None):
    """nuhat(r) = sum_i w_i Omega_n(d_i r); equals the total mass at r = 0.

    Omega_n is evaluated block by block over the active atoms and points.
    kept, if given, keeps those omega blocks keyed by the active radii and
    the points, while all it holds stays within _KEPT_CELLS cells: a caller
    that weights the same atoms and points many times (the optimizer's
    rounds) evaluates omega for them once.  Kept or not, the blocks are
    summed the same way, so the values are the same bits.
    """
    arr = np.asarray(r, dtype=float)
    scalar = arr.ndim == 0
    rv = np.atleast_1d(arr).astype(float).ravel()
    d, w = _active_atoms(mu)
    blocks = None
    if kept is not None:
        key = (d.tobytes(), rv.tobytes())
        blocks = kept.get(key)
    if blocks is None:
        blocks = ((cols, omega(mu.dim, t)) for cols, t in _atom_blocks(d, rv))
        if kept is not None and _kept_cells(kept) + d.size * rv.size <= _KEPT_CELLS:
            blocks = kept[key] = list(blocks)
    out = _weighted_rows(w, blocks, rv.size)
    return float(out[0]) if scalar else out.reshape(arr.shape)


def _kept_cells(kept: dict) -> int:
    """The omega cells held in a fourier_radial kept dict."""
    return sum(table.size for blocks in kept.values() for _, table in blocks)


def _tail_envelope(mu: RadialMeasure, r: float) -> float:
    """Upper bound for |nuhat| at every radius from r on, dimension n >= 2.

    |Omega_n(t)| = Gamma(n/2) (2/t)^nu |J_nu(t)| with nu = (n - 2)/2, and
    J_nu^2 + Y_nu^2 bounds J_nu^2 (Watson, Theory of Bessel Functions,
    §13.74, from Nicholson's integral, DLMF 10.9.30):
    - nu = 0: t (J_0^2 + Y_0^2) increases to 2/pi, so |J_0(t)| <= sqrt(2/(pi t));
    - nu >= 1/2 and t > nu: sqrt(t^2 - nu^2) (J_nu^2 + Y_nu^2) increases to
      2/pi, so |J_nu(t)| <= sqrt(2/pi) (t^2 - nu^2)^(-1/4).  The plain
      sqrt(2/(pi t)) is not a bound here: sqrt(pi t/2) |J_2(t)| reaches 1.0094.
    Both decrease in t, so the value at r bounds every radius beyond.  The
    window's first cutoff is (j_{n/2,1} + 4 pi) / d_min, so every d r from
    it on exceeds n/2 > nu.
    """
    n = mu.dim
    nu = (n - 2) / 2.0
    c = math.gamma(n / 2.0) * 2.0**nu * math.sqrt(2.0 / math.pi)

    def bessel_bound(t):  # t^-nu |J_nu(t)| <= sqrt(2/pi) bessel_bound(t)
        return t**-0.5 if n == 2 else t**-nu * (t * t - nu * nu) ** -0.25

    return float(sum(abs(w) * c * bessel_bound(d * r) for d, w in mu.atoms if w != 0.0))


def _float_gcd(values, rel_tol: float = 1e-9) -> float:
    tol = rel_tol * max(values)
    g = values[0]
    for v in values[1:]:
        a, b = g, v
        while b > tol:
            a, b = b, math.fmod(a, b)
        g = a
    return g


def _profile_jet(mu: RadialMeasure, r: np.ndarray) -> np.ndarray:
    """(nuhat, nuhat', nuhat'') at the points r, as the rows of a (3, len(r)) array.

    One omega pass per block, omega((n, n + 2), t), gives all three:
    Omega_n'(t) = -(t/n) Omega_{n+2}(t) (DLMF 10.6.6), and the radial
    Helmholtz equation Omega'' + ((n-1)/t) Omega' + Omega = 0 then gives
    Omega_n'' = ((n-1)/n) Omega_{n+2} - Omega_n.  Both hold for n = 1, where Omega_1 = cos.
    Row 0 is summed as in fourier_radial.
    """
    n = mu.dim
    d, w = _active_atoms(mu)
    out = np.zeros((3, r.size))
    for cols, t in _atom_blocks(d, r):
        o_n, o_n2 = omega((n, n + 2), t)
        out[0, cols] = np.sum(w[:, None] * o_n, axis=0)
        out[1, cols] = np.sum((-w * d / n)[:, None] * t * o_n2, axis=0)
        out[2, cols] = np.sum((w * d * d)[:, None] * ((n - 1.0) / n * o_n2 - o_n), axis=0)
    return out


def _newton_refine(mu: RadialMeasure, r, lo, hi, sign, cutoff: float):
    """Safeguarded Newton on every bracket [lo_k, hi_k] at once, from r_k.

    Minimizes g = sign_k * nuhat on bracket k (sign +1 for a low, -1 for a
    high).  Each iteration evaluates the jet once, on the elements still
    moving: the sign of g' shrinks the bracket, and the Newton step is taken
    when g'' > 0 and it lands inside the bracket, the midpoint otherwise.  An
    element stops once its step is below _NEWTON_RTOL * max(min(1, cutoff),
    x), a floor on the scan window's scale, whatever the radii's.  Returns
    (args, values), values in the unsigned scale of nuhat: each element's
    last iterate, and the best value evaluated on its way, so that no value
    is worse than its starting sample.  The argument is the last iterate,
    not the best sample's: near a minimum, samples within about sqrt(eps)
    of it differ by less than the rounding noise of nuhat.
    """
    x, a, b = r.copy(), lo.copy(), hi.copy()
    args, best = r.copy(), np.full(r.size, np.inf)
    live = np.arange(r.size)
    for _ in range(_NEWTON_ITERS):
        if live.size == 0:
            break
        xl, s = x[live], sign[live]
        f, f1, f2 = _profile_jet(mu, xl)
        g1, g2 = s * f1, s * f2
        args[live] = xl
        best[live] = np.minimum(best[live], s * f)
        al = np.where(g1 < 0.0, xl, a[live])
        bl = np.where(g1 > 0.0, xl, b[live])
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = xl - g1 / g2
        inside = (g2 > 0.0) & (newton >= al) & (newton <= bl)
        nxt = np.where(inside, newton, 0.5 * (al + bl))
        a[live], b[live], x[live] = al, bl, nxt
        live = live[np.abs(nxt - xl) > _NEWTON_RTOL * np.maximum(min(1.0, cutoff), xl)]
    return args, sign * best


def _window_scan(mu: RadialMeasure, tol: float, kept: dict | None = None):
    """Scan nuhat out to a cutoff past which neither extreme can move.

    Returns (low_r, high_r, cutoff, points, step): the grid points of every
    grid-local low and high that could still be the global one, the cutoff,
    the number of points scanned and the grid step.  kept is passed on to
    fourier_radial for every scan segment.
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
        vals = fourier_radial(mu, grid, kept=kept)
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


def _refined_extrema(mu: RadialMeasure, tol: float, kept: dict | None = None):
    """Scan nuhat and Newton-refine every competing extremal basin together.

    Returns (lows, highs, cutoff, points) with lows/highs lists of refined
    (arg, value) candidates; the first entry of each is the exact r = 0
    endpoint, so the lists are never empty.  kept is passed on to the scan.
    """
    low_r, high_r, cutoff, points, step = _window_scan(mu, tol, kept)
    r = np.array(low_r + high_r)
    args, vals = _newton_refine(
        mu,
        r,
        np.maximum(0.0, r - step),
        np.minimum(cutoff, r + step),
        np.repeat([1.0, -1.0], [len(low_r), len(high_r)]),
        cutoff,
    )
    refined = list(zip(args.tolist(), vals.tolist()))
    v0 = _value_at_zero(mu)
    ref_lows = [(0.0, v0)] + refined[: len(low_r)]
    ref_highs = [(0.0, v0)] + refined[len(low_r) :]
    return ref_lows, ref_highs, cutoff, points


def _value_at_zero(mu: RadialMeasure) -> float:
    """nuhat(0) without a Bessel pass: Omega_n(0) = 1 exactly, so it is the
    row sum fourier_radial(mu, 0.0) makes of a column of ones, bit for bit."""
    d, w = _active_atoms(mu)
    return float(_weighted_rows(w, [(slice(0, 1), np.ones((d.size, 1)))], 1)[0])


def global_extrema(mu: RadialMeasure, tol: float = 1e-8) -> ExtremaReport:
    """Certified inf and sup of nuhat over [0, infinity).

    The profile is scanned densely out to a cutoff and the window is grown
    until the Bessel-decay envelope beyond the cutoff is smaller than the
    extreme values already found (or than tol when an extreme is near zero),
    at which point no point past the cutoff can move either extreme.  In
    dimension 1 the profile is periodic, so one period is scanned instead.
    Every grid-local low or high that could still be the global one is then
    refined in a single batched pass over all such basins: safeguarded
    Newton on the exact derivatives of nuhat (from Omega_n and Omega_{n+2}),
    bisecting whenever a step would leave the basin's bracket.  Each refined
    value is at least as good as its grid sample, and inf_arg is the point
    the iteration converged to.  Each profile evaluation covers every atom
    and point at once, in blocks of at most 2^14 Bessel arguments.  A scan
    whose first window alone needs more than 1e8 atom evaluations is
    refused with ConvergenceError.
    """
    tol = require_tolerance(tol)
    if all(w == 0.0 for _, w in mu.atoms):
        return ExtremaReport(0.0, 0.0, 0.0, 0.0, 0)
    return _extrema_report(*_refined_extrema(mu, tol))


def _extrema_report(lows, highs, cutoff: float, points: int) -> ExtremaReport:
    arg_min, val_min = min(lows, key=lambda p: p[1])
    val_max = max(v for _, v in highs)
    return ExtremaReport(val_min, val_max, arg_min, cutoff, points)


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
    N = require_integer(N, "N")
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
    n: int, radii, tol: float = 1e-8
) -> tuple[RadialMeasure, SpectralRange]:
    """Best chromatic bound over probability measures on the given radii.

    Solves the max-min game between weights and frequencies on a grid of
    _LP_GRID frequencies, then verifies the winner against the true
    continuous infimum; any frequency that beats the grid value is appended
    as a new constraint and the game is re-solved (cutting planes), so the
    grid is only a warm start.  The payoff matrix is evaluated
    once on the grid, and each round evaluates only its new columns.  The
    rounds scan the same segments for the same atoms with new weights, so
    the call keeps each scan segment's omega table, per set of active
    radii, and a round only re-weights it; the uniform measure's scan fills
    the first tables.  Kept tables are capped at _KEPT_CELLS cells (8 MB);
    past the cap a segment is evaluated anew, to the same bits.
    Returns (measure, range): the range is read from the extrema of the last
    round, which certified the measure, as radial_range would read it.
    """
    n = RadialMeasure(n, ()).dim  # the measure type validates the dimension
    if not (2 <= n <= 32):
        raise ValueError(f"dimension must lie in [2, 32], got {n}")
    ds = sorted(float(d) for d in radii)
    if not ds or any(d <= 0.0 for d in ds) or len(set(ds)) != len(ds):
        raise ValueError("radii must be distinct and positive")
    tol = require_tolerance(tol)

    uniform = RadialMeasure(n, tuple((d, 1.0 / len(ds)) for d in ds))
    kept: dict = {}
    cutoff = _window_scan(uniform, tol, kept)[2]

    def oracle(t_star, w):
        mu = RadialMeasure(n, tuple(zip(ds, w)))
        extrema = _refined_extrema(mu, tol, kept)
        # every basin beating the grid value is a violated constraint; adding
        # them all at once stops the game from cycling through near-tied dips
        cuts = np.array([a for a, v in extrema[0] if v < t_star - tol])
        return cuts, (mu, _range_from_extrema(mu, _extrema_report(*extrema)))

    return cutting_planes(
        lambda rs: omega(n, np.outer(ds, rs)),
        np.linspace(0.0, cutoff, _LP_GRID),
        oracle,
    )
