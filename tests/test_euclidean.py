"""Radial-measure bounds: profile extrema, chromatic/density bounds, LP optimizer."""

import importlib
import json
import math
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import jv, jvp

import hoffman
import hoffman.euclidean as euclidean
from hoffman.cli import run
from hoffman.specfun import bessel_first_zero
from hoffman import (
    BoundInapplicableError,
    ConvergenceError,
    RadialMeasure,
    VacuousBoundError,
    alpha_ratio_ub,
    chi_lb,
    fourier_radial,
    omega,
    optimize_radial_measure,
    radial_measure_from_json,
    radial_measure_to_json,
    radial_range,
    specfun,
    steinhardt_measure,
    unit_distance_range,
)

import oracles

UNIT2 = RadialMeasure(2, ((1.0, 1.0),))
UNIT3 = RadialMeasure(3, ((1.0, 1.0),))

# derived once by the independent series/bisection oracles (see oracles.py)
J11 = 3.8317059702075125
J0_MIN = -0.4027593957025531
SINC_ARG = 4.493409457909064
SINC_MIN = -0.21723362821122166


def chromatic(mu):
    return chi_lb(radial_range(mu))


def density(mu):
    return alpha_ratio_ub(radial_range(mu))


def unit_distance(n):
    """(chi_lb, alpha_ratio_ub) of the unit-distance graph of R^n."""
    rng = unit_distance_range(n)
    return chi_lb(rng), alpha_ratio_ub(rng)


def test_oracle_constants_rederive():
    assert abs(oracles.bessel_first_zero_series(1.0, 3.0, 4.5) - J11) < 1e-11
    assert abs(oracles.bessel_series(0.0, J11) - J0_MIN) < 1e-12
    assert abs(oracles.tan_x_equals_x_root() - SINC_ARG) < 1e-11
    assert abs(math.sin(SINC_ARG) / SINC_ARG - SINC_MIN) < 1e-14


def test_measure_validation():
    with pytest.raises(ValueError):
        RadialMeasure(2, ((0.0, 1.0),))
    with pytest.raises(ValueError):
        RadialMeasure(2, ((2.0, 1.0), (1.0, 1.0)))
    with pytest.raises(ValueError):
        RadialMeasure(2, ((1.0, 1.0), (1.0, 0.5)))
    with pytest.raises(ValueError):
        RadialMeasure(0, ((1.0, 1.0),))
    for weight in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="atoms must be finite"):
            RadialMeasure(2, ((1.0, weight),))
    for dim in (2.7, 2.0, True, "2"):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            RadialMeasure(dim, ((1.0, 1.0),))
    for atoms in (((1e10, 1e300),), ((1.0, 1e308), (2.0, -1e308))):
        with pytest.raises(ValueError, match=r"max\(1, radius\^2\) must be finite"):
            RadialMeasure(3, atoms)
    # a subnormal sum |w| is refused, cancelling weights too; zero is not
    for atoms in (((1.0, 1e-320),), ((1.0, 3e-309), (2.0, -3e-309))):
        with pytest.raises(ValueError, match="below the smallest normal double"):
            RadialMeasure(2, atoms)
    assert RadialMeasure(2, ((1.0, sys.float_info.min),)).total_mass() == sys.float_info.min
    assert RadialMeasure(2, ((1.0, 0.0),)).total_mass() == 0.0


def test_measure_json_round_trip():
    mu = RadialMeasure(3, ((1.0, 0.25), (2.5, -0.5)))
    assert radial_measure_from_json(radial_measure_to_json(mu)) == mu
    text = json.dumps(radial_measure_to_json(mu))
    assert radial_measure_from_json(json.loads(text)) == mu
    for bad in [
        {"dim": 2},
        {"atoms": [[1.0, 1.0]]},
        {"dim": 2, "atoms": [[1.0]]},
        {"dim": 2, "atoms": 3, "x": 1},
    ]:
        with pytest.raises(ValueError):
            radial_measure_from_json(bad)


def test_fourier_radial_examples():
    assert fourier_radial(UNIT2, 0.0) == 1.0
    assert abs(fourier_radial(UNIT3, math.pi)) < 1e-14  # sinc at pi
    two = RadialMeasure(2, ((1.0, 0.5), (2.0, 0.5)))
    assert abs(fourier_radial(two, 0.0) - 1.0) < 1e-15
    grid = fourier_radial(UNIT3, np.array([1.0, 2.0]))
    assert np.allclose(grid, [math.sin(1.0), math.sin(2.0) / 2.0], atol=1e-13)


def test_global_extrema_unit_shells():
    e2 = radial_range(UNIT2)
    assert abs(e2.m - J0_MIN) < 1e-10
    assert abs(e2.provenance["inf_arg"] - J11) < 1e-6
    assert abs(e2.M - 1.0) < 1e-12
    e3 = radial_range(UNIT3)
    assert abs(e3.m - SINC_MIN) < 1e-10
    assert abs(e3.provenance["inf_arg"] - SINC_ARG) < 1e-6


def test_extrema_report_invariants():
    rng = np.random.default_rng(7)
    for _ in range(5):
        radii = np.sort(rng.uniform(0.5, 4.0, 3))
        weights = rng.uniform(0.05, 1.0, 3)
        mu = RadialMeasure(2, tuple(zip(radii, weights)))
        ext = radial_range(mu)
        nu0 = fourier_radial(mu, 0.0)
        assert ext.m <= nu0 <= ext.M
        assert 0.0 <= ext.provenance["inf_arg"] <= ext.provenance["cutoff"]
        assert ext.provenance["grid_points"] > 0


def test_zero_measure_extrema():
    ext = radial_range(RadialMeasure(2, ((1.0, 0.0),)))
    assert ext.m == ext.M == 0.0


def test_extrema_tol_guard():
    with pytest.raises(ValueError):
        radial_range(UNIT2, tol=1e-13)


@pytest.mark.parametrize(
    "call",
    [
        lambda: radial_range(UNIT2, tol=1e-13),
        lambda: radial_range(UNIT2, tol=0.01),
        lambda: optimize_radial_measure(2, [1.0, 2.0], tol=0.01),
        lambda: optimize_radial_measure(2, [1.0, 2.0], tol=1e-13),
    ],
    ids=["radial_range-low", "radial_range", "optimize-high", "optimize-low"],
)
def test_radial_tol_is_refused_at_both_ends(call):
    # one require_tolerance: the radial functions refuse both ends, as operator_range does
    with pytest.raises(ValueError, match=r"tol must lie in \[1e-12, 1e-3\]"):
        call()


def test_dimension_one_profile_is_cosine():
    ext = radial_range(RadialMeasure(1, ((1.0, 1.0),)))
    assert abs(ext.m + 1.0) < 1e-12
    assert abs(ext.provenance["inf_arg"] - math.pi) < 1e-7
    # two commensurable pair distances: exact minimum of (cos r + cos 2r)/2 is -9/16
    ext2 = radial_range(RadialMeasure(1, ((1.0, 0.5), (2.0, 0.5))))
    assert abs(ext2.m + 9.0 / 16.0) < 1e-12
    # incommensurable radii have no common period to scan
    with pytest.raises(ValueError, match="commensurable radii"):
        radial_range(RadialMeasure(1, ((1.0, 0.5), (math.sqrt(2.0), 0.5))))


def test_chromatic_bound_unit_shells():
    r2 = chromatic(UNIT2)
    assert abs(r2.value - (1.0 - J0_MIN) / (-J0_MIN)) < 1e-9
    r3 = chromatic(UNIT3)
    assert abs(r3.value - (1.0 - SINC_MIN) / (-SINC_MIN)) < 1e-9
    assert abs(r2.value - (r2.M - r2.m) / (-r2.m)) < 1e-12


def test_chromatic_bound_weight_scale_invariance():
    scaled = RadialMeasure(2, ((1.0, 7.5),))
    assert abs(chromatic(scaled).value - chromatic(UNIT2).value) < 1e-9


def test_chromatic_bound_radius_scale_invariance():
    for c in [0.5, 3.0]:
        mu = RadialMeasure(2, ((1.0 * c, 0.5), (2.0 * c, 0.5)))
        base = RadialMeasure(2, ((1.0, 0.5), (2.0, 0.5)))
        assert abs(
            chromatic(mu).value - chromatic(base).value
        ) < 1e-9


def test_density_bound_values_and_duality():
    d2 = density(UNIT2)
    assert abs(d2.value - (-J0_MIN) / (1.0 - J0_MIN)) < 1e-9
    assert d2.R == 1.0 and d2.epsilon == 0.0
    # chromatic x density = 1 for nonnegative measures (sup = mass)
    rng = np.random.default_rng(21)
    for _ in range(5):
        radii = np.sort(rng.uniform(0.5, 3.0, 2))
        weights = rng.uniform(0.1, 1.0, 2)
        mu = RadialMeasure(3, tuple(zip(radii, weights)))
        rng_mu = radial_range(mu)
        prod = chi_lb(rng_mu).value * alpha_ratio_ub(rng_mu).value
        assert abs(prod - 1.0) < 1e-9


def test_density_bound_rejects_signed_and_zero():
    with pytest.raises(BoundInapplicableError):
        density(RadialMeasure(2, ((1.0, -0.1), (2.0, 1.0))))
    with pytest.raises(VacuousBoundError):
        density(RadialMeasure(2, ((1.0, 0.0),)))


def test_steinhardt_atoms():
    mu = steinhardt_measure(2.0, 0)
    assert mu.atoms == ((1.0, 0.5),)
    assert fourier_radial(mu, 0.0) == 0.5
    m20 = steinhardt_measure(2.0, 20)
    assert abs(m20.total_mass() - (1.0 - 2.0**-21)) < 1e-15
    assert m20.atoms[3][0] == 7.0
    with pytest.raises(ValueError):
        steinhardt_measure(1.0, 5)
    with pytest.raises(ValueError):
        steinhardt_measure(11.0, 5)
    with pytest.raises(ValueError):
        steinhardt_measure(2.0, -1)


def test_steinhardt_divergence_ordering():
    slow = chromatic(steinhardt_measure(1.05, 200)).value
    fast = chromatic(steinhardt_measure(1.3, 20)).value
    assert slow > fast


def test_unit_distance_bound_examples():
    chi2, alpha2 = unit_distance(2)
    assert abs(chi2.value - 3.482871934633955) < 1e-9
    assert abs(alpha2.value - 0.28711937124529924) < 1e-9
    chi3, alpha3 = unit_distance(3)
    assert abs(chi3.value - 5.603338848751701) < 1e-9
    assert abs(alpha3.value - 0.17846502362118918) < 1e-9
    for n in range(2, 33):
        chi, alpha = unit_distance(n)
        assert abs(chi.value * alpha.value - 1.0) < 1e-9
    for n in (1, 2.5):
        with pytest.raises(ValueError):
            unit_distance_range(n)


def test_unit_distance_matches_scan():
    # two routes to one range: the closed form never scans or refines
    chi, alpha = unit_distance(2)
    assert abs(chi.value - chromatic(UNIT2).value) < 1e-9
    assert abs(alpha.value - density(UNIT2).value) < 1e-9
    for n in range(2, 33):
        scanned = radial_range(RadialMeasure(n, ((1.0, 1.0),)))
        closed = unit_distance_range(n)
        assert abs(scanned.m - closed.m) <= 2.0 * specfun._OMEGA_ABS_ERR, n
        assert scanned.M == closed.M == scanned.R == closed.R == 1.0, n
        zero = bessel_first_zero(n / 2.0)
        assert scanned.provenance["inf_arg"] == pytest.approx(zero, rel=1e-9, abs=0.0), n


def test_optimizer_single_shell_matches_closed_form():
    mu, rng = optimize_radial_measure(2, [1.0])
    assert mu.atoms == ((1.0, 1.0),)
    assert abs(chi_lb(rng).value - unit_distance(2)[0].value) < 1e-6


def test_optimizer_monotone_in_support():
    r1 = chi_lb(optimize_radial_measure(2, [1.0])[1])
    r2 = chi_lb(optimize_radial_measure(2, [1.0, 2.0])[1])
    assert r2.value >= r1.value - 1e-9


def test_optimizer_odd_distances_beat_single_shell():
    # all single shells tie by scale invariance, so any strict gain is real
    odd = list(range(1, 42, 2))
    rep = chi_lb(optimize_radial_measure(2, [float(d) for d in odd], tol=1e-7)[1])
    single = unit_distance(2)[0].value
    assert rep.value > single + 0.5


def test_optimizer_cutting_plane_soundness():
    mu, rng = optimize_radial_measure(3, [1.0, 1.8, 2.6])
    ext = radial_range(mu)
    fine = fourier_radial(mu, np.linspace(0.0, ext.provenance["cutoff"], 5120))
    assert float(np.min(fine)) >= rng.m - 10.0 * 1e-8
    # reported value reproduces from the certified extrema of the measure
    assert abs(chi_lb(rng).value - (ext.M - ext.m) / (-ext.m)) < 1e-9
    assert rng.provenance == ext.provenance


def test_optimizer_deterministic_and_validated():
    a = optimize_radial_measure(2, [1.0, 2.0])
    b = optimize_radial_measure(2, [1.0, 2.0])
    assert a == b
    with pytest.raises(ValueError):
        optimize_radial_measure(2, [])
    with pytest.raises(ValueError):
        optimize_radial_measure(2, [1.0, 1.0])
    for n in (1, 2.5):
        with pytest.raises(ValueError):
            optimize_radial_measure(n, [1.0])


_GOLDEN_ITERS = 70


def _golden_reference(f, lo, hi, sign):
    """Scalar golden-section search minimizing sign * f on [lo, hi]."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = sign * f(c), sign * f(d)
    for _ in range(_GOLDEN_ITERS):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = sign * f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = sign * f(d)
    return (c, sign * fc) if fc < fd else (d, sign * fd)


def _golden_extrema(mu, tol=1e-8):
    """(inf, sup) of nuhat from the same scan, refined by scalar golden section."""
    low_r, high_r, cutoff, _, step = euclidean._window_scan(mu, tol)

    def f(x):
        return fourier_radial(mu, min(max(x, 0.0), cutoff))

    def refined(r, sign):
        return _golden_reference(f, max(0.0, r - step), min(cutoff, r + step), sign)[1]

    v0 = fourier_radial(mu, 0.0)
    lows = [v0] + [refined(r, 1.0) for r in low_r]
    highs = [v0] + [refined(r, -1.0) for r in high_r]
    return min(lows), max(highs)


def test_batched_refinement_matches_scalar_golden_section():
    rng = np.random.default_rng(20261018)
    measures = []
    for i in range(20):
        k = int(rng.integers(1, 7))
        radii = np.sort(rng.choice(np.arange(1, 60), size=k, replace=False)) / 20.0
        weights = rng.uniform(0.05, 1.0, k)
        if i % 2:
            weights[rng.choice(k, size=max(1, k // 2), replace=False)] *= -1.0
        measures.append(
            RadialMeasure(int(rng.integers(2, 7)), tuple(zip(radii, weights)))
        )
    for mu in measures:
        fast = radial_range(mu)
        ref_inf, ref_sup = _golden_extrema(mu)
        assert abs(fast.m - ref_inf) <= 1e-12
        assert abs(fast.M - ref_sup) <= 1e-12

        # per candidate: never worse than the grid sample it started from,
        # and an interior result is a critical point of nuhat
        low_r, high_r, cutoff, _, step = euclidean._window_scan(mu, 1e-8)
        r = np.array(low_r + high_r)
        sign = np.repeat([1.0, -1.0], [len(low_r), len(high_r)])
        lo, hi = np.maximum(0.0, r - step), np.minimum(cutoff, r + step)
        args, vals = euclidean._newton_refine(mu, r, lo, hi, sign, cutoff)
        assert np.all(sign * vals <= sign * fourier_radial(mu, r))
        interior = (args > lo) & (args < hi)
        slope = _closed_form_jet(mu, args[interior])[0]
        assert np.all(np.abs(slope) <= 1e-9 * sum(abs(w) * d for d, w in mu.atoms))


def _newton_refine_reference(mu, r, lo, hi, sign, cutoff):
    """euclidean._newton_refine with its bookkeeping as whole-array numpy
    operations on the live elements: the form it had before the per-element
    loop on Python floats, which must give the same iterates, bit for bit."""
    jet = euclidean._profile_jet(mu)
    x, a, b = r.copy(), lo.copy(), hi.copy()
    args, best = r.copy(), np.full(r.size, np.inf)
    live = np.arange(r.size)
    for _ in range(euclidean._NEWTON_ITERS):
        if live.size == 0:
            break
        xl, s = x[live], sign[live]
        f, f1, f2 = jet(xl)
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
        live = live[np.abs(nxt - xl) > euclidean._NEWTON_RTOL * np.maximum(min(1.0, cutoff), xl)]
    return args, sign * best


def _same_refinement_as_the_reference(mu, r, lo, hi, sign, cutoff):
    got = euclidean._newton_refine(mu, r, lo, hi, sign, cutoff)
    want = _newton_refine_reference(mu, r, lo, hi, sign, cutoff)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), mu
    return got


@pytest.mark.parametrize("iters", [1, 2, 3, euclidean._NEWTON_ITERS])
def test_refinement_matches_the_reference_on_seeded_measures(iters, monkeypatch):
    # fewer iterations return earlier iterates, so those are compared too
    monkeypatch.setattr(euclidean, "_NEWTON_ITERS", iters)
    rng = np.random.default_rng(20261019)
    for i in range(32):
        k = int(rng.integers(1, 13))
        radii = np.sort(rng.choice(np.arange(1, 60), size=k, replace=False)) / 20.0
        weights = rng.uniform(0.05, 1.0, k)
        if i % 2:
            weights[rng.choice(k, size=max(1, k // 2), replace=False)] *= -1.0
        mu = RadialMeasure(i % 8 + 1, tuple(zip(radii, weights)))
        low_r, high_r, cutoff, _, step = euclidean._window_scan(mu, 1e-8)
        r = np.array(low_r + high_r)
        sign = np.repeat([1.0, -1.0], [len(low_r), len(high_r)])
        lo, hi = np.maximum(0.0, r - step), np.minimum(cutoff, r + step)
        _same_refinement_as_the_reference(mu, r, lo, hi, sign, cutoff)


def test_refinement_matches_the_reference_on_every_branch():
    # nuhat = 0.6 Omega_3(r) + 0.4 Omega_3(1.7 r) falls from 1 at r = 0 to
    # its minimum near r = 3.78; the scan's cutoff is 17.06, step 0.092
    mu = RadialMeasure(3, ((1.0, 0.6), (1.7, 0.4)))
    _, _, cutoff, _, step = euclidean._window_scan(mu, 1e-8)
    cases = [  # (r, lo, hi, sign), lows and highs in one call
        (3.7, 3.6, 3.8, 1.0),  # the Newton step lands inside the bracket
        (3.0, 2.95, 3.05, 1.0),  # it leaves the bracket: midpoint
        (0.3, 0.0, 0.6, 1.0),  # g'' < 0 on a bracket touching r = 0
        (0.0, 0.0, step, 1.0),  # g' = 0 and g'' < 0: the midpoint, not a zero step
        (3.7, 3.6, 3.8, -1.0),  # g'' < 0 for a high
        (0.0, 0.0, step, -1.0),  # g' = 0 at r = 0: stops on its first iterate
        (cutoff, cutoff - step, cutoff, 1.0),  # touches the cutoff, steps out
    ]
    r, lo, hi, sign = (np.array(c) for c in zip(*cases))
    f, f1, f2 = euclidean._profile_jet(mu)(r)
    g1, g2 = sign * f1, sign * f2
    with np.errstate(divide="ignore"):
        newton = r - g1 / g2
    assert (g2 > 0.0).tolist() == [True, True, False, False, False, True, True]
    inside = (g2 > 0.0) & (newton >= lo) & (newton <= hi)
    assert inside.tolist() == [True, False, False, False, False, True, False]
    args, _ = _same_refinement_as_the_reference(mu, r, lo, hi, sign, cutoff)
    assert args[3] == pytest.approx(step, rel=1e-9) and args[5] == 0.0 and args[6] == cutoff
    for k in range(len(cases)):  # and each element alone
        one = slice(k, k + 1)
        _same_refinement_as_the_reference(mu, r[one], lo[one], hi[one], sign[one], cutoff)


def _closed_form_jet(mu, r):
    """(nuhat', nuhat'') from scipy's J_nu and its derivatives, for r > 0.

    Omega_n(t) = c t^-nu J_nu(t) with nu = n/2 - 1 and c = Gamma(n/2) 2^nu,
    differentiated by the product rule.
    """
    n = mu.dim
    nu = n / 2.0 - 1.0
    c = math.gamma(n / 2.0) * 2.0**nu
    d1 = np.zeros_like(r)
    d2 = np.zeros_like(r)
    for d, w in mu.atoms:
        t = d * r
        j0, j1, j2 = jv(nu, t), jvp(nu, t, 1), jvp(nu, t, 2)
        o1 = c * (t**-nu * j1 - nu * t ** (-nu - 1.0) * j0)
        o2 = c * (
            t**-nu * j2 - 2.0 * nu * t ** (-nu - 1.0) * j1 + nu * (nu + 1.0) * t ** (-nu - 2.0) * j0
        )
        d1 += w * d * o1
        d2 += w * d * d * o2
    return d1, d2


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 8, 64])
def test_profile_jet_matches_scipy_closed_forms(dim):
    # from r = 1 on: near t = 0 the closed forms cancel, ~1e-8 at n = 64
    r = np.linspace(1.0, 12.0, 400)
    for atoms in (
        ((0.5, 0.3), (1.0, 0.5), (2.5, 0.2)),
        ((0.7, 1.0), (1.3, -0.6), (3.0, 0.45), (3.5, -0.2)),
    ):
        mu = RadialMeasure(dim, atoms)
        value, d1, d2 = euclidean._profile_jet(mu)(r)
        want1, want2 = _closed_form_jet(mu, r)
        assert np.max(np.abs(value - fourier_radial(mu, r))) <= 1e-13
        assert np.max(np.abs(d1 - want1)) <= 1e-10
        assert np.max(np.abs(d2 - want2)) <= 1e-10
        # at r = 0: Omega_n'(0) = 0 and Omega_n''(0) = -1/n
        at0 = euclidean._profile_jet(mu)(np.zeros(1))[:, 0]
        assert at0[1] == 0.0
        assert at0[2] == pytest.approx(-sum(w * d * d for d, w in atoms) / dim, abs=1e-15)


def test_tail_envelope_bounds_omega_past_the_first_cutoff():
    # |Omega_n(t)| from scipy against the envelope of a unit atom at radius 1,
    # from the first window's cutoff on; sqrt(2/(pi t)) alone, the envelope
    # for every n before, falls below |Omega_n| for n >= 4
    for n in range(2, 65):
        nu = (n - 2) / 2.0
        mu = RadialMeasure(n, ((1.0, 1.0),))
        cutoff = bessel_first_zero(n / 2.0) + 4.0 * math.pi
        t = cutoff + np.concatenate([np.linspace(0.0, 30.0, 1501), np.linspace(30.0, 2000.0, 400)])
        log_scale = math.lgamma(n / 2.0) + nu * np.log(2.0 / t)
        value = np.exp(log_scale) * np.abs(jv(nu, t))
        envelope = np.array([euclidean._tail_envelope(mu, r) for r in t.tolist()])
        assert np.all(value <= envelope), n
        plain = np.exp(log_scale) * np.sqrt(2.0 / (math.pi * t))
        assert np.any(value > plain) == (n >= 4), n


def test_dimension_64_extrema_use_omega_66():
    mu = RadialMeasure(64, ((1.0, 0.7), (1.9, 0.3)))
    ext = radial_range(mu)
    fine = fourier_radial(mu, np.linspace(0.0, ext.provenance["cutoff"], 20_001))
    assert ext.m <= float(np.min(fine)) + 1e-12
    assert ext.M == pytest.approx(1.0, abs=1e-12)
    assert abs(_closed_form_jet(mu, np.array([ext.provenance["inf_arg"]]))[0][0]) <= 1e-9


def test_pinned_inf_arg_is_the_root_of_the_closed_form_derivative():
    # the pinned euclidean_file measure: n = 3, Omega_3(t) = sin(t)/t and
    # Omega_3'(t) = (t cos t - sin t)/t^2
    atoms = ((1.0, 0.6), (1.7, 0.4))

    def slope(r):
        return sum(w * (r * d * math.cos(d * r) - math.sin(d * r)) / (d * r * r) for d, w in atoms)

    root = brentq(slope, 3.5, 4.0, xtol=1e-15, rtol=1e-15)
    pinned = json.loads((Path(__file__).parent / "pinned" / "euclidean_file.out").read_text())
    assert abs(pinned["provenance"]["inf_arg"] - root) <= 1e-9
    assert abs(radial_range(RadialMeasure(3, atoms)).provenance["inf_arg"] - root) <= 1e-9


def test_blocked_fourier_radial_matches_per_atom_loop():
    mu = steinhardt_measure(1.1, 40)
    grid = np.linspace(0.0, 16.4, 20_000)
    assert grid.size * len(mu.atoms) > 10 * euclidean._BLOCK_ELEMENTS
    expected = np.zeros_like(grid)
    for d, w in mu.atoms:
        expected += w * omega(2, d * grid)
    # same summation order; omega's series stops once every element of a call
    # has converged, so a block may add vanishing terms that move a last bit
    assert np.max(np.abs(fourier_radial(mu, grid) - expected)) < 1e-13


# Per subcommand, the functions that compute its range and how often one
# request may call them: the case's range function once, and the extrema
# pass or Bessel-zero bisection behind it once, not again in the CLI.
_RANGE_CALLS = {
    "finite": {"spectral_range": 1},
    "unit-distance": {"unit_distance_range": 1, "bessel_first_zero": 1},
    "euclidean": {"radial_range": 1, "_refined_extrema": 1},
    "odd-distance": {"radial_range": 1, "_refined_extrema": 1},
    "sphere": {"operator_range": 1},
    # the last cutting-plane round's extrema give the range: no further pass
    "optimize": {"optimize_radial_measure": 1, "radial_range": 0},
    "torus": {"radial_range": 1, "_refined_extrema": 1, "circulant_range": 1},
}


def test_optimize_computes_the_first_bessel_zero_once(capsys):
    bessel_first_zero.cache_clear()
    assert run(["optimize", "--mode", "radial", "--support", "1", "2"]) == 0
    # the uniform measure's scan and every cutting-plane round share one zero
    assert bessel_first_zero.cache_info().misses == 1
    assert json.loads(capsys.readouterr().out)["status"] == "ok"


def _count_calls(monkeypatch, name):
    """Count calls of hoffman's function `name` through every module binding it."""
    calls = []
    for info in pkgutil.iter_modules(hoffman.__path__):
        module = importlib.import_module(f"hoffman.{info.name}")
        fn = vars(module).get(name)
        if fn is None:
            continue

        def counted(*args, _fn=fn, **kwargs):
            calls.append(args)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "measure, argv",
    [
        ({"dim": 3, "atoms": [[1.0, 0.4], [1.7, 0.6]]}, ["euclidean"]),
        ({"dim": 2, "atoms": [[1.0, 1.0], [2.0, -0.2]]}, ["euclidean"]),
        (None, ["odd-distance", "--beta", "1.3", "-N", "4"]),
        (None, ["finite", "{dir}/c5.txt"]),
        (None, ["unit-distance", "-n", "3"]),
        (None, ["sphere", "-n", "4", "-t", "-0.25"]),
        (None, ["optimize", "--mode", "radial", "--support", "1"]),
        (None, ["torus", "--radii", "2", "--moduli", "8", "-n", "2", "--format", "json"]),
    ],
)
def test_cli_runs_one_extrema_pass_per_request(
    measure, argv, monkeypatch, tmp_path, capsys
):
    if measure is not None:
        path = tmp_path / "measure.json"
        path.write_text(json.dumps(measure))
        argv = argv + [str(path)]
    (tmp_path / "c5.txt").write_text("0 1\n1 2\n2 3\n3 4\n4 0\n")
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
    expected = _RANGE_CALLS[argv[0]]
    calls = {name: _count_calls(monkeypatch, name) for name in expected}
    assert run(argv) == 0
    assert {name: len(c) for name, c in calls.items()} == expected
    assert json.loads(capsys.readouterr().out)["status"] == "ok"


@pytest.mark.parametrize("atoms", [1, 7, 8, 9, 161])
def test_range_reads_nuhat_at_zero_from_the_scan(atoms):
    # r = 0 is the scan's first sample: a nonnegative measure's M, and a
    # nonpositive one's m, is nuhat(0) bit for bit.  numpy sums a lone column
    # of 8 or more elements pairwise, so 9 and 161 atoms check that the range
    # and fourier_radial at one point both sum the weights in atom order
    rng = np.random.default_rng(atoms)
    radii = np.cumsum(rng.uniform(0.1, 1.0, atoms))
    weights = rng.uniform(-1.0, 1.0, atoms)
    weights[::5] = 0.0  # inactive atoms are skipped by both
    mixed = RadialMeasure(2, tuple(zip(radii.tolist(), weights.tolist())))
    nonpositive = RadialMeasure(2, tuple(zip(radii.tolist(), (-np.abs(weights)).tolist())))
    nonnegative = steinhardt_measure(1.05, atoms - 1)

    got = radial_range(nonnegative)
    assert got.M == fourier_radial(nonnegative, 0.0) == nonnegative.total_mass()
    got = radial_range(nonpositive)
    assert got.m == fourier_radial(nonpositive, 0.0)
    assert got.provenance["inf_arg"] == 0.0
    got = radial_range(mixed)
    assert got.m <= fourier_radial(mixed, 0.0) <= got.M


# the six-atom signed measure of the radial benchmark's seed 1
_SIX_ATOMS = {
    "dim": 2,
    "atoms": [
        [1.063275, -0.233551],
        [1.197095, 0.216465],
        [1.339258, -0.110219],
        [1.4902, 0.256594],
        [1.693844, 0.067413],
        [1.904403, 0.115758],
    ],
}
_OPTIMIZE_ARGV = ["optimize", "--mode", "radial", "--support", "1", "1.445305"]


@pytest.mark.parametrize(
    "argv, passes",
    [
        # eight cutting-plane rounds, one grid payoff and one uniform scan;
        # the rounds re-weight the kept scan tables (75 passes without them
        # and with one pass per jet order)
        (_OPTIMIZE_ARGV, 34),
        # scan and Newton jets, one pass per jet (11 with two)
        (["euclidean", "{file}"], 6),
        # one scan pass and four Newton jets
        (["odd-distance", "--beta", "1.55", "-N", "2"], 5),
    ],
)
def test_radial_requests_make_a_pinned_number_of_omega_passes(
    argv, passes, monkeypatch, tmp_path, capsys
):
    path = tmp_path / "six.json"
    path.write_text(json.dumps(_SIX_ATOMS))
    argv = [a.replace("{file}", str(path)) for a in argv]
    calls = _count_calls(monkeypatch, "omega")
    assert run(argv) == 0
    assert len(calls) == passes
    assert json.loads(capsys.readouterr().out)["status"] == "ok"


def test_optimizer_output_does_not_depend_on_kept_scan_tables(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, "omega")
    assert run(_OPTIMIZE_ARGV) == 0
    kept, kept_calls = capsys.readouterr().out, len(calls)
    calls.clear()
    monkeypatch.setattr(euclidean, "_KEPT_CELLS", 0)
    assert run(_OPTIMIZE_ARGV) == 0
    assert capsys.readouterr().out == kept
    # with nothing kept, every round evaluates its scan segments anew
    assert len(calls) > kept_calls
