"""Tests for sphere distance-graph bounds.

Eigenvalues are cross-checked against two independent routes: the Legendre
recurrence for S^2 and the cosine closed form for the circle.  The tight
simplex case t = -1/3 on S^2 pins the bound values exactly.
"""

import math
import sys

import numpy as np
import pytest

from hoffman import simplex, sphere
from hoffman.euclidean import steinhardt_measure
from hoffman.errors import UncertifiedRangeError, VacuousBoundError
from hoffman.reports import KIND_ALPHA_RATIO_UB, KIND_CHI_LB, alpha_ratio_ub, chi_lb
from hoffman.specfun import jacobi_sequence
from hoffman.sphere import (
    EigenSequence,
    SphereMeasure,
    eigenvalue_sequence,
    operator_range,
    optimize_sphere_measure,
    sphere_measure_from_json,
    sphere_measure_to_json,
)

from oracles import chebyshev_value, circle_eigenvalue_extremes, legendre_sequence


def test_measure_validation():
    with pytest.raises(ValueError):
        SphereMeasure(1, ((0.0, 1.0),))
    with pytest.raises(ValueError):
        SphereMeasure(65, ((0.0, 1.0),))
    with pytest.raises(ValueError):
        SphereMeasure(3, ((1.0, 1.0),))  # t = 1 means self-adjacency
    with pytest.raises(ValueError):
        SphereMeasure(3, ((-1.001, 1.0),))
    with pytest.raises(ValueError):
        SphereMeasure(3, ((0.5, 1.0), (0.5, 2.0)))
    with pytest.raises(ValueError):
        SphereMeasure(3, ((0.5, 1.0), (0.2, 2.0)))
    with pytest.raises(ValueError):
        SphereMeasure(3, ((float("nan"), 1.0),))
    for dim in (3.9, 3.0, True, "3"):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            SphereMeasure(dim, ((0.0, 1.0),))
    empty = SphereMeasure(3, ())
    assert not empty.weights().any() and empty.total_mass() == 0.0
    # a subnormal sum |w| is refused, cancelling weights too; zero is not
    for atoms in (((0.5, 1e-320),), ((-0.5, 3e-309), (0.5, -3e-309))):
        with pytest.raises(ValueError, match="below the smallest normal double"):
            SphereMeasure(3, atoms)
    assert SphereMeasure(3, ((0.5, sys.float_info.min),)).total_mass() == sys.float_info.min
    assert SphereMeasure(3, ((0.5, 0.0),)).total_mass() == 0.0
    # so is a sum |w| that overflows, cancelling weights too
    for atoms in (((0.1, 1e308), (0.2, 1e308)), ((0.1, 1e308), (0.2, -1e308))):
        with pytest.raises(ValueError, match="overflows a double"):
            SphereMeasure(3, atoms)


def test_measure_json_round_trip():
    mu = SphereMeasure(4, ((-0.5, 1.0), (0.25, -2.0)))
    again = sphere_measure_from_json(sphere_measure_to_json(mu))
    assert again == mu
    with pytest.raises(ValueError):
        sphere_measure_from_json({"dim": 3, "atoms": [[0.0, 1.0]], "extra": 1})
    with pytest.raises(ValueError):
        sphere_measure_from_json({"dim": 3, "atoms": [[0.0]]})
    with pytest.raises(ValueError):
        sphere_measure_from_json({"atoms": [[0.0, 1.0]]})
    with pytest.raises(ValueError):
        sphere_measure_from_json([3, [[0.0, 1.0]]])


def test_eigenvalue_trivial_degrees():
    # degree 0 is the total mass and degree 1 is the first moment in any dim
    rng = np.random.default_rng(3)
    for n in (2, 3, 5, 10):
        ts = np.sort(rng.uniform(-1.0, 0.99, size=3))
        ws = rng.uniform(-2.0, 2.0, size=3)
        mu = SphereMeasure(n, tuple(zip(ts, ws)))
        seq = eigenvalue_sequence(mu, 8)
        assert seq.values[0] == mu.total_mass()
        assert abs(seq.values[1] - float(ts @ ws)) < 1e-13


def test_eigenvalue_legendre_oracle():
    rng = np.random.default_rng(11)
    ts = np.sort(rng.uniform(-1.0, 0.99, size=4))
    ws = rng.uniform(-1.0, 1.0, size=4)
    mu = SphereMeasure(3, tuple(zip(ts, ws)))
    seq = eigenvalue_sequence(mu, 40)
    for k in range(41):
        want = sum(w * legendre_sequence(k, t)[k] for t, w in zip(ts, ws))
        assert abs(seq.values[k] - want) < 1e-12


def test_eigenvalue_circle_matches_cosines():
    # the Jacobi route at parameter -1/2 must agree with cos(k theta)
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 5))
        ts = np.sort(rng.uniform(-1.0, 0.999, size=m))
        ws = rng.uniform(-1.0, 1.0, size=m)
        mu = SphereMeasure(2, tuple(zip(ts, ws)))
        seq = eigenvalue_sequence(mu, 30)
        for k in range(31):
            want = sum(w * chebyshev_value(k, t) for t, w in zip(ts, ws))
            worst = max(worst, abs(seq.values[k] - want))
    assert worst < 1e-9


def test_eigenvalue_bounded_by_total_variation():
    rng = np.random.default_rng(23)
    for n in (2, 3, 4, 8):
        ts = np.sort(rng.uniform(-1.0, 0.99, size=5))
        ws = rng.uniform(-3.0, 3.0, size=5)
        mu = SphereMeasure(n, tuple(zip(ts, ws)))
        seq = eigenvalue_sequence(mu, 200)
        assert np.max(np.abs(seq.values)) <= np.sum(np.abs(ws)) + 1e-10


def test_eigenvalue_sequence_validation():
    mu = SphereMeasure(3, ((0.0, 1.0),))
    with pytest.raises(ValueError):
        eigenvalue_sequence(mu, 0)
    with pytest.raises(ValueError):
        eigenvalue_sequence(mu, 10_001)
    zero = eigenvalue_sequence(SphereMeasure(3, ()), 5)
    assert np.all(zero.values == 0.0) and zero.tail_bound == 0.0


def test_tail_probe_is_max_over_next_window():
    mu = SphereMeasure(4, ((-0.7, 0.5), (0.3, 0.5)))
    K = 16
    seq = eigenvalue_sequence(mu, K)
    longer = eigenvalue_sequence(mu, 2 * K)
    assert seq.tail_bound == pytest.approx(
        float(np.max(np.abs(longer.values[K + 1 :]))), abs=1e-15
    )
    assert isinstance(seq, EigenSequence) and seq.K == K


def _endpoints(mu, **kwargs):
    rng = operator_range(mu, **kwargs)
    return rng.m, rng.M


def test_operator_range_tight_simplex_case():
    m, M = _endpoints(SphereMeasure(3, ((-1.0 / 3.0, 1.0),)))
    assert abs(m + 1.0 / 3.0) < 1e-10
    assert M == 1.0


def test_operator_range_circle_rational_angles():
    # theta = pi/2: eigenvalues cycle through 1, 0, -1, 0 exactly
    m, M = _endpoints(SphereMeasure(2, ((0.0, 1.0),)))
    assert m == -1.0 and M == 1.0
    # theta = 2 pi / 3 gives the triangle: minimum -1/2
    m, M = _endpoints(SphereMeasure(2, ((-0.5, 1.0),)))
    assert abs(m + 0.5) < 1e-12 and M == 1.0


def test_operator_range_circle_irrational_angle():
    # cos(k) is dense in [-1, 1], so the infimum -1 is not attained but is m
    rng = operator_range(SphereMeasure(2, ((math.cos(1.0), 1.0),)))
    assert (rng.m, rng.M) == (-1.0, 1.0)
    assert rng.provenance["tail_bound"] == 1.0


def test_operator_range_circle_mixed_atoms():
    # theta = pi/2 is periodic (P = 4), theta = 1 is free: m = -0.5 - 0.25
    mu = SphereMeasure(2, ((0.0, 0.5), (math.cos(1.0), -0.25)))
    rng = operator_range(mu)
    assert rng.provenance == {"K": 4, "tail_bound": 0.25}
    _, lam = sphere._range(mu, 64, 1e-8, sphere._JacobiTable(2, mu.inner_products()))
    assert np.allclose(lam, [0.25, -0.25, -0.75, -0.25, 0.25], atol=1e-15)
    assert rng.m == -0.75 and rng.M == 0.25 and rng.R is None


def test_operator_range_circle_equal_weights_on_free_atoms_reach_minus_one():
    # independent irrational angles: the orbit comes arbitrarily close to
    # every angle at once, so the infimum is -sum w = -1, exactly
    for k in range(1, 6):
        ts = [-0.7, -0.2, 0.1, 0.45, 0.8][:k]
        rng = operator_range(SphereMeasure(2, tuple((t, 1.0 / k) for t in ts)))
        assert (rng.m, rng.M, rng.R) == (-1.0, 1.0, 1.0)
        assert chi_lb(rng).value == 2.0 and alpha_ratio_ub(rng).value == 0.5


def _circle_sweep_measure(rng):
    """(measure, exact angles): 1-5 atoms at angles pi p/q or at 6-digit t."""
    thetas, size = {}, int(rng.integers(1, 6))
    while len(thetas) < size:
        if rng.random() < 0.5:
            q = int(rng.integers(2, 41))
            p = int(rng.integers(1, q + 1))
            theta = math.pi * p / q
            t = math.cos(theta)
        else:
            t = round(float(rng.uniform(-0.999999, 0.999999)), 6)
            theta = math.acos(t)
        if t < 1.0:
            thetas.setdefault(t, theta)
    ts = sorted(thetas)
    ws = rng.uniform(-1.0, 1.0, len(ts)) if rng.random() < 0.5 else rng.uniform(0.0, 1.0, len(ts))
    return SphereMeasure(2, tuple(zip(ts, ws.tolist()))), [thetas[t] for t in ts]


def test_operator_range_circle_is_sound_against_a_long_cosine_scan():
    # every lambda_k is at least m, and M is a value the closure holds: both
    # ends lie at or below the extremes of 200 000 degrees of the cosines at
    # the exact angles
    rng = np.random.default_rng(2020)
    for _ in range(120):
        mu, thetas = _circle_sweep_measure(rng)
        lo, hi = circle_eigenvalue_extremes(thetas, mu.weights(), 200_000)
        got = operator_range(mu)
        assert got.m <= lo + 1e-10, mu
        assert got.M <= hi + 1e-10, mu


def test_operator_range_zero_measure():
    assert _endpoints(SphereMeasure(3, ())) == (0.0, 0.0)
    assert _endpoints(SphereMeasure(3, ((0.3, 0.0),))) == (0.0, 0.0)


def test_operator_range_contains_zero_in_high_dims():
    # eigenvalues decay, so 0 is always a limit point for n >= 3
    rng = np.random.default_rng(29)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, 4))
        ts = np.sort(rng.uniform(-1.0, 0.9, size=k))
        ws = rng.uniform(-1.0, 1.0, size=k)
        m, M = _endpoints(SphereMeasure(n, tuple(zip(ts, ws))))
        assert m <= 0.0 <= M


def test_operator_range_start_truncation_irrelevant():
    rng = np.random.default_rng(7)
    for _ in range(12):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, 4))
        ts = np.sort(rng.uniform(-1.0, 0.9, size=k))
        ws = rng.uniform(-1.0, 1.0, size=k)
        mu = SphereMeasure(n, tuple(zip(ts, ws)))
        assert _endpoints(mu, K=1) == _endpoints(mu, K=64)


def test_operator_range_tol_domain():
    mu = SphereMeasure(3, ((0.0, 1.0),))
    with pytest.raises(ValueError):
        operator_range(mu, tol=1e-13)
    with pytest.raises(ValueError):
        operator_range(mu, tol=1e-2)
    with pytest.raises(ValueError):
        operator_range(mu, K=0)


def single_t_bounds(n, t):
    """(alpha_ratio_ub, chi_lb) of the graph forbidding one inner product t."""
    rng = operator_range(SphereMeasure(n, ((t, 1.0),)))
    return alpha_ratio_ub(rng), chi_lb(rng)


def test_single_t_tight_case():
    alpha, chi = single_t_bounds(3, -1.0 / 3.0)
    assert alpha.kind == KIND_ALPHA_RATIO_UB and chi.kind == KIND_CHI_LB
    assert abs(alpha.value - 0.25) < 1e-10
    assert abs(chi.value - 4.0) < 1e-10
    assert alpha.R == 1.0 and alpha.epsilon == 0.0


def test_single_t_product_identity():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        t = float(rng.uniform(-1.0, 0.9))
        alpha, chi = single_t_bounds(n, t)
        assert abs(alpha.value * chi.value - 1.0) < 1e-12


def test_single_t_domain():
    with pytest.raises(ValueError):
        single_t_bounds(3, 1.0)
    alpha, chi = single_t_bounds(3, -1.0)  # antipodal pairs: bipartite-like
    assert abs(chi.value - 2.0) < 1e-12


def test_optimize_single_point_support():
    mu, rng = optimize_sphere_measure(3, [-1.0 / 3.0])
    assert mu.atoms == ((-1.0 / 3.0, 1.0),)
    assert abs(chi_lb(rng).value - 4.0) < 1e-9


def test_optimize_circle_supports():
    _, rng = optimize_sphere_measure(2, [0.0])
    assert abs(chi_lb(rng).value - 2.0) < 1e-9
    _, rng = optimize_sphere_measure(2, [-0.5])
    assert abs(chi_lb(rng).value - 3.0) < 1e-9


def test_optimize_monotone_in_support():
    r1, r2, r3 = (
        chi_lb(optimize_sphere_measure(3, support)[1])
        for support in ([-1.0 / 3.0], [-1.0 / 3.0, -0.8], [-1.0 / 3.0, -0.8, 0.2])
    )
    assert r2.value >= r1.value - 1e-8
    assert r3.value >= r2.value - 1e-8
    assert r3.value > 6.0  # strict gain over the single-point bound


def test_optimize_weights_form_probability_measure():
    mu, _ = optimize_sphere_measure(3, [-1.0 / 3.0, -0.8, 0.2])
    w = mu.weights()
    assert np.all(w >= -1e-12)
    assert abs(float(np.sum(w)) - 1.0) < 1e-9


def test_optimize_vacuous_truncation():
    # one positive row forces a nonnegative game value
    with pytest.raises(VacuousBoundError):
        optimize_sphere_measure(3, [0.9], K=1)


def test_optimize_validation():
    with pytest.raises(ValueError):
        optimize_sphere_measure(3, [])
    with pytest.raises(ValueError):
        optimize_sphere_measure(3, [0.2, 0.2])
    with pytest.raises(ValueError):
        optimize_sphere_measure(3, [1.0])
    for n in (1, 3.5):
        with pytest.raises(ValueError):
            optimize_sphere_measure(n, [-0.5])


def test_optimize_certifies_clustered_and_uniform_supports(monkeypatch):
    # half of the supports hold six points in [-0.590, -0.537], where the
    # game's optimum keeps a dip just past the truncation; every game's two
    # mixtures bracket its value within 1e-9
    gaps = []
    solve = simplex.solve_matrix_game

    def bracketed(payoff):
        lower, w, y, upper = solve(payoff)
        gaps.append(upper - lower)
        return lower, w, y, upper

    monkeypatch.setattr(simplex, "solve_matrix_game", bracketed)
    rng = np.random.default_rng(31)
    for i in range(100):
        n, size = int(rng.integers(3, 8)), int(rng.integers(24, 41))
        points = rng.uniform(-0.95, 0.9, size)
        if i % 2:
            points[:6] = rng.uniform(-0.590, -0.537, 6)
        mu, rng_ = optimize_sphere_measure(n, np.unique(points))
        K = rng_.provenance["K"]
        assert rng_.m == min(0.0, float(eigenvalue_sequence(mu, K).values.min())) < 0.0
    assert len(gaps) >= 100 and 0.0 <= min(gaps) and max(gaps) <= 1e-9


def test_optimize_game_grows_by_the_violated_degrees(monkeypatch):
    # the game on degrees 1..4 misses deeper dips; each later game adds
    # only the degrees the last mixture violated, where doubling K solved
    # games on 8, then 16 columns
    columns = []
    solve = simplex.solve_matrix_game

    def counted(payoff):
        columns.append(payoff.shape[1])
        return solve(payoff)

    monkeypatch.setattr(simplex, "solve_matrix_game", counted)
    optimize_sphere_measure(3, [-0.9, -0.6, -0.3, 0.0, 0.3], K=4)
    assert columns[0] == 4 and 4 < columns[1] < 8
    assert all(a < b for a, b in zip(columns, columns[1:]))


def test_optimize_circle_irrational_angle_reaches_the_infimum():
    # an irrational angle is a free atom: its payoff row is -1, the game's
    # value is the closure's infimum -1, and the oracle certifies it without
    # a degree past the period
    mu, rng = optimize_sphere_measure(2, [-0.038])
    assert mu.atoms == ((-0.038, 1.0),)
    assert rng.m == -1.0 and chi_lb(rng).value == 2.0
    assert rng.provenance == {"K": 2, "tail_bound": 1.0}


def test_optimize_circle_mixed_support_is_sound():
    # periodic and free atoms in one game: the certified m lies at or below
    # every eigenvalue of the optimized measure
    ts = [-0.7, -0.5, 0.0, 0.1]
    mu, rng = optimize_sphere_measure(2, ts)
    lo, _ = circle_eigenvalue_extremes([math.acos(t) for t in ts], mu.weights(), 200_000)
    assert rng.m <= lo + 1e-10 and rng.m < 0.0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: operator_range(SphereMeasure(3, ((-0.5, 1.0),)), K=2.9), "K must be an integer"),
        (lambda: eigenvalue_sequence(SphereMeasure(3, ((-0.5, 1.0),)), True), "K must be an integer"),
        (lambda: steinhardt_measure(1.5, 2.7), "N must be an integer"),
        (lambda: optimize_sphere_measure(3, [-0.5], K=0), r"K must lie in \[1, 8192\]"),
    ],
    ids=["operator_range-K", "eigenvalue_sequence-K", "steinhardt-N", "sphere-K0"],
)
def test_counts_are_refused_not_truncated_or_clamped(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_doubling_stops_at_the_cap_and_reports_it():
    # 3000 -> 6000 -> 12000 would pass the cap: the last table is at 8192,
    # and the error names that truncation, not 12000
    mu = SphereMeasure(3, ((0.9999999, 1.0),))
    with pytest.raises(UncertifiedRangeError, match="at truncation 8192$") as exc:
        operator_range(mu, K=3000)
    assert exc.value.k_used == 8192


@pytest.mark.parametrize(
    "call",
    [
        lambda: operator_range(SphereMeasure(3, ((0.3, 1.0),)), K=9000),
        lambda: eigenvalue_sequence(SphereMeasure(3, ((0.3, 1.0),)), 8193),
        lambda: optimize_sphere_measure(3, [-0.5, 0.2], K=8193),
        lambda: optimize_sphere_measure(3, [-0.5, 0.2], K=20_000),
    ],
    ids=["operator_range", "eigenvalue_sequence", "optimize-8193", "optimize-20000"],
)
def test_truncation_past_the_cap_is_refused(call):
    with pytest.raises(ValueError, match=r"K must lie in \[1, 8192\]"):
        call()


def test_optimize_sphere_refuses_tol_before_work(monkeypatch):
    def no_game(*args):
        raise AssertionError("the game ran before tol was checked")

    monkeypatch.setattr(sphere, "cutting_planes", no_game)
    with pytest.raises(ValueError, match=r"tol must lie in \[1e-12, 1e-3\]"):
        optimize_sphere_measure(3, [-0.5, 0.2], tol=0.01)


def test_optimize_deterministic():
    a = optimize_sphere_measure(3, [-1.0 / 3.0, -0.8, 0.2])
    b = optimize_sphere_measure(3, [-1.0 / 3.0, -0.8, 0.2])
    assert a[:2] == b[:2]


def test_uncertified_error_carries_partial_range():
    err = UncertifiedRangeError("probe too large", -0.4, 0.9, 128, 0.5)
    assert err.range == (-0.4, 0.9)
    assert err.k_used == 128 and err.tail_bound == 0.5
    assert str(err) == "uncertified range [-0.4, 0.9] (K=128, tail=0.5): probe too large"


# ------------------------------------------------------- one table per call


def test_table_grown_in_steps_matches_a_fresh_table_bit_for_bit():
    # alpha = (n - 3)/2 is 0, 0.5, 2.5 and 30.5 for n = 3, 4, 8 and 64
    t = np.array([-1.0, -0.7, 0.0, 0.31, 0.999])
    for n in (3, 4, 8, 64):
        table = sphere._JacobiTable(n, t)
        for rows in (1, 2, 5, 64, 1024):
            got = table.rows(rows - 1)
            assert got.shape == (rows, t.size)
            assert np.array_equal(got, jacobi_sequence(rows - 1, (n - 3) / 2.0, t)), (n, rows)


def _count_grown_rows(monkeypatch):
    """Record (first new row, last row, points) of every Jacobi table growth."""
    grown = []
    rows = sphere._jacobi_rows

    def counted(table, kmax, alpha, t):
        grown.append((len(table), kmax, t.size))
        return rows(table, kmax, alpha, t)

    monkeypatch.setattr(sphere, "_jacobi_rows", counted)
    return grown


def test_optimizer_computes_each_table_cell_once(monkeypatch):
    # 16 points on S^2: the payoff, four rounds of doubling and the cuts all
    # read one table, so the cells computed are its final rows x points
    grown = _count_grown_rows(monkeypatch)
    optimize_sphere_measure(3, np.linspace(-0.95, 0.85, 16), K=64)
    assert len(grown) > 2
    assert [start for start, _, _ in grown] == [0] + [kmax + 1 for _, kmax, _ in grown[:-1]]
    cells = sum((kmax + 1 - start) * points for start, kmax, points in grown)
    assert cells == (grown[-1][1] + 1) * 16


def test_operator_range_grows_its_table_across_doublings(monkeypatch):
    grown = _count_grown_rows(monkeypatch)
    K = operator_range(SphereMeasure(3, ((0.999, 1.0),))).provenance["K"]
    assert K > 64 and len(grown) > 1
    assert sum(kmax + 1 - start for start, kmax, _ in grown) == 2 * K + 1


def test_no_table_outlives_its_call(monkeypatch):
    grown = _count_grown_rows(monkeypatch)
    support = np.linspace(-0.95, 0.85, 16)
    optimize_sphere_measure(4, support, K=16)
    first = list(grown)
    optimize_sphere_measure(4, support, K=16)
    assert first and grown == first + first and first[0][0] == 0
