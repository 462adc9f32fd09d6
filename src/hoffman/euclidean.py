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

from .errors import (
    ConvergenceError,
    ordered_sum,
    require_integer,
    require_mass,
    require_measure_object,
    require_tolerance,
)
from .reports import SpectralRange
from .simplex import cutting_planes
from .specfun import _ARG_MAX, _row_sum, bessel_first_zero, omega

_POINTS_PER_PERIOD = 40
_LP_GRID = 512
_NEWTON_ITERS = 64  # bisection alone narrows a bracket 2**64-fold
_NEWTON_RTOL = 1e-11
_BLOCK_ELEMENTS = 1 << 14  # atoms x points per omega call
# (points of the whole window) x (active atoms) above which a scan in
# dimension n >= 2 is refused, checked before each segment is evaluated
_SCAN_BUDGET = 1e8
# omega cells one optimizer call keeps of its scan tables (8 MB); a scan
# segment that would pass it is evaluated the same way and not kept
_KEPT_CELLS = 1 << 20
# _float_gcd stops once a remainder is below this fraction of the largest value
_GCD_RTOL = 1e-9
# the optimizer's local reduction: its Newton steps, and the residual and
# step size (weights, multipliers, relative radii) below which they end
_REDUCTION_ITERS = 8
_REDUCTION_TOL = 1e-9


@dataclass(frozen=True)
class RadialMeasure:
    """Signed measure supported on spheres; atoms are (radius, weight) pairs.

    Radii must be positive, strictly increasing and below about 1.3e154 (a
    finite square), sum |w_i| max(1, r_i^2) must be finite and sum |w_i| be
    0 or a normal double (require_mass).  Dimension 1 (point pairs on the
    line, profile cos) is the continuum target of `torus -n 1`; the other
    bounds live in dimension >= 2.
    """

    dim: int
    atoms: tuple

    def __post_init__(self):
        n = require_integer(self.dim, "dimension", 1, 64)
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
        require_mass(w for _, w in norm)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "atoms", tuple(norm))

    def radii(self) -> np.ndarray:
        return np.array([r for r, _ in self.atoms])

    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms])

    def total_mass(self) -> float:
        """sum w_i, added in atom order as nuhat(0) adds it."""
        return ordered_sum(w for _, w in self.atoms)


def radial_measure_to_json(mu: RadialMeasure) -> dict:
    return {"dim": mu.dim, "atoms": [[r, w] for r, w in mu.atoms]}


def radial_measure_from_json(obj) -> RadialMeasure:
    return RadialMeasure(*require_measure_object(obj))


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


def fourier_radial(mu: RadialMeasure, r):
    """nuhat(r) = sum_i w_i Omega_n(d_i r); equals the total mass at r = 0.

    Omega_n is evaluated block by block over the active atoms and points,
    and each block's rows are added in atom order (specfun._row_sum), a
    lone column too, however the points are cut into blocks.
    """
    arr = np.asarray(r, dtype=float)
    out = _profile(mu, np.atleast_1d(arr).ravel())
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _profile(mu: RadialMeasure, r: np.ndarray, kept: dict | None = None) -> np.ndarray:
    """nuhat at the points of the 1-d array r, summed as fourier_radial sums it.

    kept, if given, keeps the omega blocks keyed by the active radii and the
    points, while all it holds stays within _KEPT_CELLS cells: the
    optimizer's rounds scan the same atoms and points with new weights, so
    omega runs for them once.  Kept or not, the blocks are summed the same
    way, so the values are the same bits.
    """
    d, w = _active_atoms(mu)
    key = (d.tobytes(), r.tobytes())
    blocks = None if kept is None else kept.get(key)
    if blocks is None:
        blocks = ((cols, omega(mu.dim, t)) for cols, t in _atom_blocks(d, r))
        if kept is not None and _kept_cells(kept) + d.size * r.size <= _KEPT_CELLS:
            blocks = kept[key] = list(blocks)
    out = np.zeros(r.size)
    for cols, table in blocks:
        out[cols] = _row_sum(w[:, None] * table)
    return out


def _kept_cells(kept: dict) -> int:
    """The omega cells held in a _profile kept dict."""
    return sum(table.size for blocks in kept.values() for _, table in blocks)


def _tail_envelope(mu: RadialMeasure, r: float) -> float:
    """Upper bound for |nuhat| at every radius from r on, dimension n >= 2.

    |Omega_n(t)| = Gamma(n/2) (2/t)^nu |J_nu(t)| with nu = (n - 2)/2, and
    J_nu^2 + Y_nu^2 bounds J_nu^2.  For nu = 0 and for every nu >= 1/2 once
    t > nu, sqrt(t^2 - nu^2) (J_nu^2 + Y_nu^2) increases to 2/pi (Watson,
    Theory of Bessel Functions, §13.74, from Nicholson's integral, DLMF
    10.9.30), so |J_nu(t)| <= sqrt(2/pi) (t^2 - nu^2)^(-1/4), which is
    sqrt(2/(pi t)) at nu = 0.  That plain sqrt(2/(pi t)) is not a bound for
    larger orders: sqrt(pi t/2) |J_2(t)| reaches 1.0094.  The bound decreases
    in t, so its value at r bounds every radius beyond.  The window's first
    cutoff is (j_{n/2,1} + pi) / d_min, so every d r from it on exceeds
    n/2 > nu.  Each term times t^(nu + 1/2) is (1 - nu^2/t^2)^(-1/4), which
    falls in t, so E(lam r) <= lam^(-(n-1)/2) E(r) for every lam >= 1.
    """
    n = mu.dim
    nu = (n - 2) / 2.0
    c = math.gamma(n / 2.0) * 2.0**nu * math.sqrt(2.0 / math.pi)

    def bessel_bound(t):  # t^-nu |J_nu(t)| <= sqrt(2/pi) bessel_bound(t)
        return t**-nu * (t * t - nu * nu) ** -0.25

    return ordered_sum(abs(w) * c * bessel_bound(d * r) for d, w in mu.atoms if w != 0.0)


def _float_gcd(values) -> float:
    tol = _GCD_RTOL * max(values)
    g = values[0]
    for v in values[1:]:
        a, b = g, v
        while b > tol:
            a, b = b, math.fmod(a, b)
        g = a
    return g


def _profile_jet(mu: RadialMeasure):
    """r -> (nuhat, nuhat', nuhat'') at the points r, the rows of a (3, len(r)) array.

    The active atoms and the rows' coefficients are read once, here, so
    _newton_refine builds them once per refinement; each of its iterations
    is one call of the jet, the rest is bookkeeping on Python floats.  One
    omega pass per block, omega((n, n + 2), t), gives all three rows:
    Omega_n'(t) = -(t/n) Omega_{n+2}(t) (DLMF 10.6.6), and the radial
    Helmholtz equation Omega'' + ((n-1)/t) Omega' + Omega = 0 then gives
    Omega_n'' = ((n-1)/n) Omega_{n+2} - Omega_n.  Both hold for n = 1, where Omega_1 = cos.
    Each block's rows are added in atom order (specfun._row_sum), as
    fourier_radial adds them, so at r = 0 row 0 has its bits, the total mass.
    """
    n = mu.dim
    d, w = _active_atoms(mu)
    c0, c1, c2, k = w[:, None], (-w * d / n)[:, None], (w * d * d)[:, None], (n - 1.0) / n

    def jet(r: np.ndarray) -> np.ndarray:
        out = np.zeros((3, r.size))
        for cols, t in _atom_blocks(d, r):
            o_n, o_n2 = omega((n, n + 2), t)
            out[0, cols] = _row_sum(c0 * o_n)
            out[1, cols] = _row_sum(c1 * t * o_n2)
            out[2, cols] = _row_sum(c2 * (k * o_n2 - o_n))
        return out

    return jet


def _newton_refine(mu: RadialMeasure, r, lo, hi, sign, cutoff: float):
    """Safeguarded Newton on every bracket [lo_k, hi_k] at once, from r_k.

    Minimizes g = sign_k * nuhat on bracket k (sign +1 for a low, -1 for a
    high).  Each iteration is one jet evaluation, one omega pass over the
    elements still moving, and then per-element bookkeeping on Python
    floats: the sign of g' shrinks the bracket, and the Newton step is taken
    when g'' > 0 and it lands inside the bracket, the midpoint otherwise.  An
    element stops once its step is below _NEWTON_RTOL * max(min(1, cutoff),
    x), a floor on the scan window's scale, whatever the radii's.  Returns
    (args, values), values in the unsigned scale of nuhat: each element's
    last iterate, and the best value evaluated on its way, so that no value
    is worse than its starting sample.  The argument is the last iterate,
    not the best sample's: near a minimum, samples within about sqrt(eps)
    of it differ by less than the rounding noise of nuhat.
    """
    jet = _profile_jet(mu)
    floor = min(1.0, cutoff)
    x, a, b, s = r.tolist(), lo.tolist(), hi.tolist(), sign.tolist()
    args, best = list(x), [math.inf] * len(x)
    live = range(len(x))
    for _ in range(_NEWTON_ITERS):
        if not live:
            break
        moving = []
        for i, f, f1, f2 in zip(live, *jet(np.array([x[i] for i in live])).tolist()):
            xi, g1, g2 = x[i], s[i] * f1, s[i] * f2
            args[i] = xi
            best[i] = min(s[i] * f, best[i])  # a tie keeps the new value, as np.minimum does
            if g1 < 0.0:
                a[i] = xi
            elif g1 > 0.0:
                b[i] = xi
            x[i] = 0.5 * (a[i] + b[i])
            if g2 > 0.0 and a[i] <= (newton := xi - g1 / g2) <= b[i]:
                x[i] = newton
            if abs(x[i] - xi) > _NEWTON_RTOL * max(floor, xi):
                moving.append(i)
        live = moving
    return np.array(args), sign * np.array(best)


def _require_scan_domain(d_min: float, d_max: float, hi: float) -> None:
    """Refuse a scan out to hi whose last point times d_max omega would refuse."""
    if d_max * hi > _ARG_MAX:
        raise ValueError(
            f"profile scan past Omega_n's domain: radii {d_min:.6g} to {d_max:.6g} "
            f"need a scan out to {hi:.6g}, and {d_max:.6g} x {hi:.6g} exceeds {_ARG_MAX:g}"
        )


def _window_scan(mu: RadialMeasure, tol: float, kept: dict | None = None):
    """Scan nuhat out to a cutoff past which neither extreme can move.

    In dimension n >= 2 the first window ends at (j_{n/2,1} + pi) / d_min,
    pi (about one spacing of Bessel zeros) past the first zero of the
    smallest radius's term.  When the envelope E beyond it (_tail_envelope)
    exceeds tau = min(max(-min nuhat, tol), max(max nuhat, tol)), the window
    grows once, to r (E(r)/tau)^(2/(n-1)) rounded up until E is at most tau
    there: E(lam r) <= lam^(-(n-1)/2) E(r) for lam >= 1, and the extra
    points can only widen the extremes, so tau does not fall and the test
    still holds.  Dimension 1 scans one period.  Grid-local extrema are
    read once, on the joined segments, so a segment's end is a candidate
    only if the profile does not fall past it.

    Returns (low_r, high_r, cutoff, points, step): the grid points of every
    grid-local low and high that could still be the global one, the cutoff,
    the number of points scanned and the grid step.  The first sample is
    r = 0, and the samples that attain the lowest and the highest value are
    candidates themselves, so neither list is empty.  kept is passed on to
    _profile for every scan segment.
    """
    active = [(d, w) for d, w in mu.atoms if w != 0.0]
    d_max = max(d for d, _ in active)
    d_min = min(d for d, _ in active)
    step = 2.0 * math.pi / (_POINTS_PER_PERIOD * d_max)
    if math.isinf(step):  # and so is the cutoff: their ratio would be nan
        raise ValueError(f"radii too small to scan: radius {d_max:.3g} gives an infinite step")
    grids, values = [], []

    def scan(lo: float, hi: float) -> None:
        """Sample [lo, hi] after its checks, lo only on the first segment."""
        _require_scan_domain(d_min, d_max, hi)
        count = max(3, int(math.ceil((hi - lo) / step)) + 1)
        start = 1 if grids else 0  # a later segment starts at the last one's end
        cells = (sum(g.size for g in grids) + count - start) * len(active)
        if mu.dim > 1 and cells > _SCAN_BUDGET:  # dimension 1: its period check
            raise ConvergenceError(
                f"profile scan too large: about {cells:.3g} atom evaluations "
                f"out to {hi:.6g}, limit {_SCAN_BUDGET:.3g}"
            )
        grids.append(np.linspace(lo, hi, count)[start:])
        values.append(_profile(mu, grids[-1], kept))

    if mu.dim == 1:  # one period holds every value
        g = _float_gcd([d for d, _ in active])
        if g < 1e-6 * d_max:
            raise ValueError(
                "dimension-1 profiles need commensurable radii for a finite scan"
            )
        cutoff = 2.0 * math.pi / g + step
        if cutoff / step > 2e6:
            raise ConvergenceError("dimension-1 period too long to scan")
        scan(0.0, cutoff)
    else:
        cutoff = (bessel_first_zero(mu.dim / 2.0) + math.pi) / d_min
        scan(0.0, cutoff)
        # the envelope past the cutoff must be below -inf nuhat and sup nuhat
        tau = min(max(-float(values[0].min()), tol), max(float(values[0].max()), tol))
        if (env := _tail_envelope(mu, cutoff)) > tau:
            grown = cutoff * (env / tau) ** (2.0 / (mu.dim - 1))
            while _tail_envelope(mu, grown) > tau:  # rounding: step up
                grown *= 1.0 + 2.0**-40
            scan(cutoff, grown)
            cutoff = grown

    r, vals = np.concatenate(grids), np.concatenate(values)
    # |nuhat''| <= sum |w| d^2, so a true extremum between samples can beat its
    # neighbouring sample by at most m2 step^2 / 8; every grid-local extremum
    # within that margin of the best sample is a candidate basin
    margin = ordered_sum(abs(w) * d * d for d, w in active) * step * step / 8.0
    found = []
    for g in (vals, -vals):  # lows, then highs
        at = g <= g.min() + margin  # and no neighbour on the grid is lower
        at[1:] &= g[1:] <= g[:-1]
        at[:-1] &= g[:-1] <= g[1:]
        found.append(r[at].tolist())
    return found[0], found[1], cutoff, r.size, step


def _refined_extrema(mu: RadialMeasure, tol: float, kept: dict | None = None):
    """The range of nuhat from one scan and one batched refinement, and its lows.

    Returns (range, lows): the SpectralRange radial_range describes, and the
    refined (arg, value) of every low basin in scan order, which the
    optimizer cuts with.  m is the first least refined low, so a minimum at
    the scan's first sample, r = 0, keeps inf_arg 0.0.  kept is passed on
    to the scan.
    """
    arg_min = val_min = val_max = cutoff = 0.0
    points, lows = 0, []
    if any(w != 0.0 for _, w in mu.atoms):  # else nothing to scan: the range (0, 0)
        low_r, high_r, cutoff, points, step = _window_scan(mu, tol, kept)
        r = np.array(low_r + high_r)
        sign = np.repeat([1.0, -1.0], [len(low_r), len(high_r)])
        lo, hi = np.maximum(0.0, r - step), np.minimum(cutoff, r + step)
        args, vals = _newton_refine(mu, r, lo, hi, sign, cutoff)
        refined = list(zip(args.tolist(), vals.tolist()))
        lows = refined[: len(low_r)]
        arg_min, val_min = min(lows, key=lambda p: p[1])
        val_max = max(v for _, v in refined[len(low_r) :])
    R = mu.total_mass() if all(w >= 0.0 for _, w in mu.atoms) else None
    prov = {"cutoff": cutoff, "grid_points": points, "inf_arg": arg_min}
    return SpectralRange(val_min, val_max, R, provenance=prov), lows


def radial_range(mu: RadialMeasure, tol: float = 1e-8) -> SpectralRange:
    """The spectral range [inf nuhat, sup nuhat] of mu over [0, infinity).

    The profile is scanned densely over a first window that ends pi past the
    first zero of the smallest radius's term.  If the Bessel-decay envelope
    beyond it is not below the extreme values found (or tol when an extreme
    is near zero), the window grows once, to where the envelope's power-law
    decay puts it below them; past that cutoff no point can move either
    extreme.  In dimension 1 the profile is periodic, so one period is
    scanned instead.  The scan starts at r = 0, where nuhat is the total
    mass.  Every grid-local low or high of the whole grid that could still
    be the global one is then refined in a single batched pass over all
    such basins: safeguarded Newton on the exact derivatives of nuhat (from
    Omega_n and Omega_{n+2}), bisecting whenever a step would leave the
    basin's bracket.  Each refined value is at least as good as its grid
    sample, and inf_arg is the point the iteration converged to.  Each
    profile evaluation covers every atom and point at once, in blocks of at
    most 2^14 Bessel arguments.  A scan whose whole window needs more than
    1e8 atom evaluations is refused with ConvergenceError, and so is a
    dimension-1 period of more than 2e6 grid points; radii too small
    for a finite grid step (below about 9e-310), and a scan segment whose
    last point times the largest radius passes omega's domain (1e6), with
    ValueError.  Both segment checks refuse before the segment is evaluated.
    R = nuhat(0), the total mass, is given only for a nonnegative measure.
    The provenance is {cutoff, grid_points, inf_arg}; a measure with no
    nonzero weight scans nothing and has the range (0, 0).
    """
    return _refined_extrema(mu, require_tolerance(tol))[0]


def steinhardt_measure(beta: float, N: int) -> RadialMeasure:
    """Geometric combination of odd-radius spheres in the plane.

    Atom k sits on radius 2k + 1 with weight ((beta - 1)/beta) beta^(-k); the
    chromatic bounds of these measures grow without limit as beta -> 1 and
    N -> infinity, which is the odd-distance-graph divergence phenomenon.
    """
    beta = float(beta)
    if not (1.0 < beta <= 10.0):
        raise ValueError(f"beta must lie in (1, 10], got {beta!r}")
    N = require_integer(N, "N", 0, 10_000)
    scale = (beta - 1.0) / beta
    atoms = tuple((2.0 * k + 1.0, scale * beta ** (-k)) for k in range(N + 1))
    return RadialMeasure(2, atoms)


def _require_dimension(n) -> int:
    """n as an int in [2, 32], the dimensions unit_distance_range and
    optimize_radial_measure accept."""
    return require_integer(n, "dimension", 2, 32)


def unit_distance_range(n: int) -> SpectralRange:
    """Closed-form range of the unit-distance graph of R^n, without a scan.

    The profile of the single unit sphere is Omega_n, whose global minimum
    sits at the first zero j of J_{n/2}, and Omega_n(0) = 1 is its maximum.
    Returns SpectralRange(v, 1, R=1) with v = Omega_n(j) and provenance
    {bessel_first_zero: j}, which gives the chromatic bound (1 - v)/(-v) and
    the density bound (-v)/(1 - v).
    """
    n = _require_dimension(n)
    z = bessel_first_zero(n / 2.0)
    return SpectralRange(float(omega(n, z)), 1.0, 1.0, provenance={"bessel_first_zero": z})


def _reduction_newton(n: int, d, w, r, lam, s: float, cutoff: float):
    """Newton on the local reduction of the radial game; (w, r, lam) or None.

    Unknowns: the weights w of the atoms d, the basin radii r_b, the
    multipliers lam_b and the level s.  Equations: nuhat'(r_b) = 0 and
    nuhat(r_b) = s per basin, sum_b lam_b Omega_n(d_i r_b) = s per atom,
    and sum w = sum lam = 1.  That is one equation more than unknowns, and
    a consistent one (sum_i w_i of the atoms' rows is sum_b lam_b of the
    basins'), so each step is a least-squares solve.  Each iteration is one
    omega((n, n + 2), t) pass over atoms x basins, and the derivatives come
    from _profile_jet's identities.  Newton stops after the first of at most
    _REDUCTION_ITERS steps that is below _REDUCTION_TOL (radii relative, the
    rest absolute) and was taken from a residual below it too, which keeps
    out a least-squares point of an inconsistent system, where the steps
    vanish as well.  Returns the point it stops at if w and lam >= 0, weak
    duality's precondition; None if not, if it does not stop, or once an
    iterate is not finite or a radius leaves (0, cutoff], before omega sees it.
    """
    p, k = d.size, r.size
    c1, c2, c3 = (-d / n)[:, None], (d * d)[:, None], (n - 1.0) / n
    basin, atom = np.arange(k), 2 * k + np.arange(p)
    # rows: nuhat' and nuhat - s per basin, the atoms' rows, the two sums;
    # columns: w, r, lam, s
    jac = np.zeros((p + 2 * k + 2, p + 2 * k + 1))
    jac[k:-2, -1] = -1.0
    jac[-2, :p] = jac[-1, p + k : -1] = 1.0
    scale = np.ones(p + 2 * k)
    x, converged = np.concatenate([w, r, lam, [s]]), False
    for _ in range(_REDUCTION_ITERS + 1):
        w, r, lam, s = x[:p], x[p : p + k], x[p + k : -1], x[-1]
        if not (np.isfinite(x).all() and (r > 0.0).all() and (r <= cutoff).all()):
            return None
        if converged:
            return (w, r, lam) if (w >= 0.0).all() and (lam >= 0.0).all() else None
        t = np.outer(d, r)
        o_n, o_n2 = omega((n, n + 2), t)
        o1, o2 = c1 * t * o_n2, c2 * (c3 * o_n2 - o_n)  # d/dr, d^2/dr^2 of Omega_n(d_i r)
        g1 = w @ o1
        jac[:k, :p], jac[basin, p + basin] = o1.T, w @ o2
        jac[k : 2 * k, :p], jac[k + basin, p + basin] = o_n.T, g1
        jac[atom, p : p + k], jac[atom, p + k : -1] = o1 * lam, o_n
        f = np.concatenate([g1, w @ o_n - s, o_n @ lam - s, [w.sum() - 1.0, lam.sum() - 1.0]])
        step = np.linalg.lstsq(jac, f, rcond=None)[0]
        scale[p : p + k] = r
        x = x - step
        converged = max(np.abs(f).max(), (np.abs(step[:-1]) / scale).max()) <= _REDUCTION_TOL
    return None


def optimize_radial_measure(
    n: int, radii, tol: float = 1e-8
) -> tuple[RadialMeasure, SpectralRange]:
    """Best chromatic bound over probability measures on the given radii.

    Solves the max-min game between weights and frequencies on a grid of
    _LP_GRID frequencies out to (j_{n/2,1} + 4 pi) / d_min, or to the
    uniform measure's scan cutoff where that is longer, then verifies the
    winner against the true continuous infimum; any frequency that beats
    the grid value is appended as a new constraint and the game is
    re-solved (Kelley's cutting planes), so the grid is only a warm start.
    The payoff matrix is evaluated once on the grid, and each round
    evaluates only its new columns.

    After the first round, the local reduction of the semi-infinite program
    (Hettich & Kortanek, SIAM Review 35, 1993) is solved once: on the
    basins whose refined lows lie at or below the game value, Newton finds
    the weights, basin radii r_b and multipliers lam_b at which every such
    basin sits at one level (_reduction_newton), from the round's weights,
    its refined lows and the game's column mixture gathered onto the nearest
    basin.  As lam >= 0 sums to 1 (within _REDUCTION_TOL), weak duality
    bounds the optimum from above: every probability measure on the radii
    has inf nuhat <= sum_b lam_b nuhat(r_b) <= U = max_i sum_b lam_b
    Omega_n(d_i r_b), over every radius of the support.  The Newton measure,
    certified by its own scan and refinement, is returned at once if its m
    is at least the first round's and U - tol.  Otherwise, and whenever
    Newton fails, Kelley's rounds go on alone from the first round's cuts,
    until no low is more than tol below the game value, which bounds the
    optimum from above too.  So the printed bound is the certified range of
    the printed measure, within tol of the optimum either way, and no round
    hands a measure on to the next.

    The rounds scan the same segments for the same atoms with new weights,
    so the call keeps each scan segment's omega table, per set of active
    radii, and a round only re-weights it; the uniform measure's scan fills
    the first tables.  Kept tables are capped at _KEPT_CELLS cells (8 MB);
    past the cap a segment is evaluated anew, to the same bits.  Returns
    (measure, range): the range is read from the extrema of the returned
    measure, as radial_range would read it, and carries that scan's
    provenance.
    """
    n = _require_dimension(n)
    ds = sorted(float(d) for d in radii)
    if not ds or any(d <= 0.0 for d in ds) or len(set(ds)) != len(ds):
        raise ValueError("radii must be distinct and positive")
    tol = require_tolerance(tol)

    uniform = RadialMeasure(n, tuple((d, 1.0 / len(ds)) for d in ds))
    kept: dict = {}
    # the game's grid spans 4 pi past the first zero, or the uniform
    # measure's window where that is longer: its binding frequencies lie
    # beyond the scan's shorter first window.  Its payoff is evaluated out
    # there, so that span is refused before the uniform measure is scanned
    span = (bessel_first_zero(n / 2.0) + 4.0 * math.pi) / ds[0]
    _require_scan_domain(ds[0], ds[-1], span)
    cutoff = _window_scan(uniform, tol, kept)[2]
    grid = np.linspace(0.0, max(cutoff, span), _LP_GRID)

    def certified(w):
        mu = RadialMeasure(n, tuple(zip(ds, w)))
        return (mu, *_refined_extrema(mu, tol, kept))

    def reduction(t_star, w, y, lows, rng):
        """(measure, range) of the Newton point if its m is at least rng.m and U - tol."""
        on = w > 0.0
        r = np.array([a for a, v in lows if v <= t_star])
        if on.sum() < 2 or r.size == 0:  # a lone weight is the whole measure already
            return None
        lam = np.zeros(r.size)  # y gathered onto the nearest basin, so it sums to 1 too
        np.add.at(lam, np.abs(grid[:, None] - r).argmin(axis=1), y)
        window = rng.provenance["cutoff"]  # the round's scan, which holds every low
        found = _reduction_newton(n, np.array(ds)[on], w[on], r, lam, t_star, window)
        if found is None:
            return None
        w_n = np.zeros(len(ds))
        w_n[on], r, lam = found
        upper = float((omega(n, np.outer(ds, r)) @ lam).max())
        mu_n, rng_n, _ = certified(w_n)
        return (mu_n, rng_n) if rng_n.m >= max(rng.m, upper - tol) else None

    def oracle(t_star, w, y):
        mu, rng, lows = certified(w)
        # only the first game is on the grid alone: every later one has cuts
        if y.size == grid.size and (found := reduction(t_star, w, y, lows, rng)) is not None:
            return (), found
        # every basin beating the grid value is a violated constraint; adding
        # them all at once stops the game from cycling through near-tied dips
        return np.array([a for a, v in lows if v < t_star - tol]), (mu, rng)

    return cutting_planes(lambda rs: omega(n, np.outer(ds, rs)), grid, oracle)
