"""Acceptance gate: one test per release criterion, one printed verdict each.

Every test prints a single [ACCEPTANCE k] PASS/FAIL line (visible through
pytest's capture) before asserting, so the full scorecard is readable even
when a criterion fails.  Expected values are either exact closed forms or
goldens cross-checked against independent evaluations before being frozen.
"""

import math
import time

import numpy as np
import pytest

from hoffman.euclidean import (
    optimize_radial_measure,
    radial_range,
    steinhardt_measure,
    unit_distance_range,
)
from hoffman.graphs import Graph, adjacency_matrix, spectral_range
from hoffman.reports import alpha_ratio_ub, chi_lb
from hoffman.specfun import bessel_first_zero, bessel_j, jacobi_sequence, omega
from hoffman.sphere import SphereMeasure, operator_range, optimize_sphere_measure
from hoffman.torus import circulant_range

from oracles import (
    annulus_connection_set,
    brute_force_alpha,
    brute_force_chi,
    circulant_edges,
    cycle_edges,
    petersen_edges,
)


def _single_t_bounds(n, t):
    """(alpha_ratio_ub, chi_lb) of the graph forbidding one inner product t."""
    rng, _ = operator_range(SphereMeasure(n, ((t, 1.0),)))
    return alpha_ratio_ub(rng), chi_lb(rng)


def _verdict(capsys, idx, ok, detail):
    with capsys.disabled():
        print(f"\n[ACCEPTANCE {idx:02d}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_acceptance_01_pentagon_sandwich(capsys):
    t0 = time.monotonic()
    g = Graph(5, frozenset(cycle_edges(5)))
    rng = spectral_range(g)
    chi = chi_lb(rng).value
    ratio = alpha_ratio_ub(rng).value
    alpha = brute_force_alpha(5, cycle_edges(5))
    elapsed = time.monotonic() - t0
    ok = (
        abs(chi - math.sqrt(5.0)) < 1e-9
        and abs(5.0 * ratio - math.sqrt(5.0)) < 1e-9
        and alpha == 2
        and alpha <= 5.0 * ratio
        and elapsed < 1.0
    )
    _verdict(
        capsys,
        1,
        ok,
        f"C5 chi_lb {chi:.12f}, 5*alpha_ub {5.0 * ratio:.12f}, "
        f"alpha {alpha}, {elapsed:.2f}s",
    )
    assert abs(chi - math.sqrt(5.0)) < 1e-9
    assert abs(5.0 * ratio - math.sqrt(5.0)) < 1e-9
    assert alpha == 2 and alpha <= 5.0 * ratio
    assert elapsed < 1.0


def test_acceptance_02_petersen(capsys):
    t0 = time.monotonic()
    g = Graph(10, frozenset(petersen_edges()))
    rng = spectral_range(g)
    chi = chi_lb(rng).value
    ratio = alpha_ratio_ub(rng).value
    alpha = brute_force_alpha(10, petersen_edges())
    elapsed = time.monotonic() - t0
    ok = (
        abs(chi - 2.5) < 1e-9
        and abs(ratio - 0.4) < 1e-9
        and alpha == 4
        and elapsed < 1.0
    )
    _verdict(
        capsys,
        2,
        ok,
        f"Petersen chi_lb {chi:.12f}, alpha_ub {ratio:.12f}, alpha {alpha}, "
        f"{elapsed:.2f}s",
    )
    assert abs(chi - 2.5) < 1e-9
    assert abs(ratio - 0.4) < 1e-9
    assert alpha == 4
    assert elapsed < 1.0


def test_acceptance_03_plane_unit_distance(capsys):
    t0 = time.monotonic()
    rng, _ = unit_distance_range(2)
    chi, alpha = chi_lb(rng), alpha_ratio_ub(rng)
    elapsed = time.monotonic() - t0
    product = chi.value * alpha.value
    ok = (
        3.4828 <= chi.value <= 3.4830
        and 0.28711 <= alpha.value <= 0.28714
        and abs(product - 1.0) < 1e-9
        and elapsed < 1.0
    )
    _verdict(
        capsys,
        3,
        ok,
        f"plane chi_lb {chi.value:.10f}, alpha_ub {alpha.value:.10f}, "
        f"product {product:.12f}, {elapsed:.2f}s",
    )
    assert 3.4828 <= chi.value <= 3.4830
    assert 0.28711 <= alpha.value <= 0.28714
    assert abs(product - 1.0) < 1e-9
    assert elapsed < 1.0


def test_acceptance_04_dimensions_3_to_8(capsys):
    # goldens were cross-checked against an independent Bessel evaluation
    # (series + scipy) to 1e-13 before freezing
    goldens = {
        3: 5.603338848752,
        4: 8.559751097353,
        5: 12.604846505609,
        6: 18.059213017684,
        7: 25.327998356335,
        8: 34.921573752476,
    }
    t0 = time.monotonic()
    values = {n: chi_lb(unit_distance_range(n)[0]).value for n in range(3, 9)}
    elapsed = time.monotonic() - t0
    increasing = all(values[n] < values[n + 1] for n in range(3, 8))
    matched = all(abs(values[n] - goldens[n]) < 1e-8 for n in range(3, 9))
    ok = increasing and matched and elapsed < 5.0
    _verdict(
        capsys,
        4,
        ok,
        "chi_lb(3..8) "
        + ", ".join(f"{values[n]:.6f}" for n in range(3, 9))
        + f", {elapsed:.2f}s",
    )
    assert increasing
    assert matched
    assert elapsed < 5.0


def test_acceptance_05_sphere_tight_case(capsys):
    t0 = time.monotonic()
    alpha, chi = _single_t_bounds(3, -1.0 / 3.0)
    elapsed = time.monotonic() - t0
    ok = (
        abs(alpha.value - 0.25) < 1e-8
        and abs(chi.value - 4.0) < 1e-8
        and elapsed < 1.0
    )
    _verdict(
        capsys,
        5,
        ok,
        f"t=-1/3 alpha_ub {alpha.value:.12f}, chi_lb {chi.value:.12f}, "
        f"{elapsed:.2f}s",
    )
    assert abs(alpha.value - 0.25) < 1e-8
    assert abs(chi.value - 4.0) < 1e-8
    assert elapsed < 1.0


def test_acceptance_06_product_identity_suite(capsys):
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 9))
        t = float(rng.uniform(-1.0, 0.9))
        alpha, chi = _single_t_bounds(n, t)
        worst = max(worst, abs(alpha.value * chi.value - 1.0))
    ok = worst < 1e-8
    _verdict(capsys, 6, ok, f"25 random (n, t): worst |alpha*chi - 1| {worst:.2e}")
    assert worst < 1e-8


def test_acceptance_07_odd_distance_divergence(capsys):
    t0 = time.monotonic()
    schedule = ((1.3, 10), (1.15, 40), (1.05, 160))
    values = [
        chi_lb(radial_range(steinhardt_measure(beta, N))[0]).value
        for beta, N in schedule
    ]
    elapsed = time.monotonic() - t0
    ok = values[0] < values[1] < values[2] and values[2] > 8.0 and elapsed < 30.0
    _verdict(
        capsys,
        7,
        ok,
        "chi_lb trajectory "
        + " -> ".join(f"{v:.4f}" for v in values)
        + f", {elapsed:.1f}s",
    )
    assert values[0] < values[1] < values[2]
    assert values[2] > 8.0
    assert elapsed < 30.0


def test_acceptance_08_optimizer_soundness(capsys):
    t0 = time.monotonic()
    radial_base = chi_lb(optimize_radial_measure(2, [1.0])[1]).value
    target = chi_lb(unit_distance_range(2)[0]).value
    sphere_base = chi_lb(optimize_sphere_measure(3, [-1.0 / 3.0])[1]).value

    rng = np.random.default_rng(2024)
    radial_support, sphere_support = [1.0], [-1.0 / 3.0]
    radial_val, sphere_val = radial_base, sphere_base
    monotone = True
    for i in range(10):  # alternate the two optimizers, five augmentations each
        if i % 2 == 0:
            radial_support.append(float(rng.uniform(0.3, 3.0)))
            rep = chi_lb(optimize_radial_measure(2, radial_support)[1])
            monotone &= rep.value >= radial_val - 1e-9
            radial_val = rep.value
        else:
            sphere_support.append(float(rng.uniform(-0.95, 0.85)))
            rep = chi_lb(optimize_sphere_measure(3, sorted(sphere_support))[1])
            monotone &= rep.value >= sphere_val - 1e-9
            sphere_val = rep.value
    elapsed = time.monotonic() - t0
    ok = (
        abs(radial_base - target) < 1e-6
        and abs(sphere_base - 4.0) < 1e-6
        and monotone
        and elapsed < 30.0
    )
    _verdict(
        capsys,
        8,
        ok,
        f"radial {radial_base:.8f} vs {target:.8f}, sphere {sphere_base:.8f}, "
        f"10 augmentations monotone={monotone}, final radial {radial_val:.4f} "
        f"sphere {sphere_val:.4f}, {elapsed:.1f}s",
    )
    assert abs(radial_base - target) < 1e-6
    assert abs(sphere_base - 4.0) < 1e-6
    assert monotone
    assert elapsed < 30.0


def test_acceptance_09_oracle_equivalence(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    worst = 0.0
    pending = [(4096, 1, [1.0, 7.0]), (60, 2, [2.0, 5.0])]
    checked = 0
    while checked < 50:
        if pending:
            m, n, radii = pending.pop()
        else:
            n = int(rng.integers(1, 3))
            m = int(rng.integers(4, 200)) if n == 1 else int(rng.integers(3, 22))
            kmax = max(1, (m // 2) if n == 1 else int(m * 0.7))
            r = sorted(
                set(rng.integers(1, kmax + 1, size=int(rng.integers(1, 3))).tolist())
            )
            radii = [float(x) for x in r]
        cset = annulus_connection_set(m, n, radii, 0.25)
        if not cset:
            continue  # annulus may be empty for an unlucky draw; redraw
        got = circulant_range(m, n, radii)
        dense = np.linalg.eigvalsh(adjacency_matrix(Graph(*circulant_edges(m, n, cset))))
        worst = max(
            worst, abs(got.m - dense[0]), abs(got.M - dense[-1]), abs(got.R - len(cset))
        )
        checked += 1

    sound = True
    graphs_checked = 0
    while graphs_checked < 200:
        nv = int(rng.integers(4, 15))
        p = float(rng.uniform(0.2, 0.8))
        mask = rng.random((nv, nv)) < p
        edges = {(u, v) for u in range(nv) for v in range(u + 1, nv) if mask[u, v]}
        if not edges:
            continue
        spec_range = spectral_range(Graph(nv, frozenset(edges)))
        sound &= chi_lb(spec_range).value <= brute_force_chi(nv, edges) + 1e-9
        sound &= alpha_ratio_ub(spec_range).value >= brute_force_alpha(nv, edges) / nv - 1e-9
        graphs_checked += 1
    elapsed = time.monotonic() - t0
    ok = checked == 50 and worst < 1e-8 and sound and elapsed < 300.0
    _verdict(
        capsys,
        9,
        ok,
        f"{checked} circulants worst dev {worst:.2e}; {graphs_checked} random "
        f"graphs sound={sound}; {elapsed:.1f}s",
    )
    assert checked == 50 and worst < 1e-8
    assert sound
    assert elapsed < 300.0


def test_acceptance_10_special_functions(capsys):
    xs = np.linspace(0.5, 50.0, 100)
    worst_rec = 0.0
    for nu in range(1, 11):
        res = np.abs(
            bessel_j(nu - 1.0, xs) + bessel_j(nu + 1.0, xs)
            - (2.0 * nu / xs) * bessel_j(float(nu), xs)
        )
        worst_rec = max(worst_rec, float(np.max(res)))

    half_zero_err = abs(bessel_first_zero(0.5) - math.pi)

    rng = np.random.default_rng(77)
    ts = rng.uniform(-1.0, 1.0, size=40)
    worst_cheb = 0.0
    for k in (0, 1, 2, 3, 5, 10, 25, 60, 120, 200):
        got = jacobi_sequence(k, -0.5, ts)[k]
        want = np.cos(k * np.arccos(ts))
        worst_cheb = max(worst_cheb, float(np.max(np.abs(got - want))))

    grid = np.linspace(0.0, 100.0, 10_000)
    omega_peak = max(float(np.max(np.abs(omega(n, grid)))) for n in range(2, 9))

    ok = (
        worst_rec <= 1e-8
        and half_zero_err < 1e-10
        and worst_cheb < 1e-9
        and omega_peak <= 1.0 + 1e-12
    )
    _verdict(
        capsys,
        10,
        ok,
        f"recurrence {worst_rec:.2e}, |j_(1/2,1) - pi| {half_zero_err:.2e}, "
        f"chebyshev {worst_cheb:.2e}, max|omega| {omega_peak:.12f}",
    )
    assert worst_rec <= 1e-8
    assert half_zero_err < 1e-10
    assert worst_cheb < 1e-9
    assert omega_peak <= 1.0 + 1e-12
