"""Finite-graph bounds, parsing, brute-force oracles, weight optimization."""

import math

import numpy as np
import pytest

from hoffman import (
    BoundInapplicableError,
    Graph,
    NoNegativeSpectrumError,
    SymMatrix,
    VacuousBoundError,
    WeightedAdjacency,
    adjacency_matrix,
    brute_force_alpha,
    brute_force_chi,
    fractional_chi_bound,
    hoffman_chi_bound,
    is_independent,
    optimize_weights,
    parse_graph,
    ratio_bound,
)

import oracles

SQRT5 = math.sqrt(5.0)


def cycle(n):
    return Graph.from_edges(n, oracles.cycle_edges(n))


def petersen():
    return Graph.from_edges(10, oracles.petersen_edges())


# ---------------------------------------------------------------- parsing

def test_parse_plain_edge_list():
    g = parse_graph("# comment\n0 1\n1 2\n\n2 3  # trailing\n")
    assert g.n == 4
    assert g.edge_list() == [(0, 1), (1, 2), (2, 3)]


def test_parse_dimacs_header_is_one_indexed():
    g = parse_graph("c petersen-ish header\np edge 3 2\ne 1 2\ne 2 3\n")
    assert g.n == 3
    assert g.edge_list() == [(0, 1), (1, 2)]


def test_parse_rejects_garbage():
    for text in ["0\n", "0 1 2\n", "a b\n", "p edge 2 1\ne 1 3\n", "0 0\n"]:
        with pytest.raises(ValueError):
            parse_graph(text)


def test_graph_validates_loops_and_range():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])


# ---------------------------------------------------- adjacency and sets

def test_adjacency_examples():
    assert adjacency_matrix(Graph(3, frozenset())).is_zero()
    single = adjacency_matrix(Graph.from_edges(2, [(0, 1)]))
    assert np.array_equal(single.to_dense(), [[0.0, 1.0], [1.0, 0.0]])
    c5 = adjacency_matrix(cycle(5)).to_dense()
    assert np.array_equal(c5[0], [0.0, 1.0, 0.0, 0.0, 1.0])


def test_is_independent_matches_quadratic_form():
    g = cycle(5)
    dense = adjacency_matrix(g).to_dense()
    for s in [set(), {0, 2}, {0, 1}, {1, 3}, {0, 2, 4}]:
        ind = np.zeros(5)
        ind[list(s)] = 1.0
        assert is_independent(g, s) == (float(ind @ dense @ ind) == 0.0)
    with pytest.raises(ValueError):
        is_independent(g, {7})


# ------------------------------------------------------------ the bounds

def test_hoffman_c5_is_sqrt5():
    rep = hoffman_chi_bound(adjacency_matrix(cycle(5)))
    assert abs(rep.value - SQRT5) < 1e-10
    assert abs(rep.value - (rep.M - rep.m) / (-rep.m)) < 1e-12


def test_hoffman_petersen_and_k4():
    assert abs(hoffman_chi_bound(adjacency_matrix(petersen())).value - 2.5) < 1e-10
    k4 = Graph.from_edges(4, oracles.complete_edges(4))
    assert abs(hoffman_chi_bound(adjacency_matrix(k4)).value - 4.0) < 1e-10


def test_hoffman_error_contracts():
    with pytest.raises(VacuousBoundError):
        hoffman_chi_bound(adjacency_matrix(Graph(3, frozenset())))
    with pytest.raises(NoNegativeSpectrumError):
        hoffman_chi_bound(SymMatrix.from_dense(np.eye(3)))


def test_ratio_bound_regular_graphs():
    rep = ratio_bound(adjacency_matrix(cycle(5)))
    assert rep.epsilon == 0.0
    assert abs(5.0 * rep.value - SQRT5) < 1e-10
    pet = ratio_bound(adjacency_matrix(petersen()))
    assert abs(pet.value - 0.4) < 1e-10  # alpha(Petersen) = 4 = 10 * 0.4


def test_ratio_bound_p3_hand_computed():
    # A1 = (1,2,1), R = 4/3, eps = sqrt(mean((deg - R)^2)) = sqrt(2/9)
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    rep = ratio_bound(adjacency_matrix(g))
    m = -math.sqrt(2.0)
    R = 4.0 / 3.0
    eps = math.sqrt((2 * (1 - R) ** 2 + (2 - R) ** 2) / 3.0)
    assert abs(rep.R - R) < 1e-12
    assert abs(rep.epsilon - eps) < 1e-12
    assert abs(rep.value - (-m + 2 * eps) / (R - m - eps)) < 1e-12


def test_ratio_bound_custom_r_on_regular_graph():
    # R = M(A) on a regular graph keeps eps = 0 and reproduces the plain bound
    a = adjacency_matrix(cycle(5))
    rep = ratio_bound(a, R=2.0)
    assert rep.epsilon == 0.0
    assert abs(rep.value - ratio_bound(a).value) < 1e-14


def test_ratio_bound_inapplicable():
    a = adjacency_matrix(cycle(5))
    with pytest.raises(BoundInapplicableError):
        ratio_bound(a, R=-5.0)


def test_fractional_bound_examples():
    assert abs(fractional_chi_bound(adjacency_matrix(cycle(5))).value - SQRT5) < 1e-10
    k4 = Graph.from_edges(4, oracles.complete_edges(4))
    assert abs(fractional_chi_bound(adjacency_matrix(k4)).value - 4.0) < 1e-10
    with pytest.raises(VacuousBoundError):
        fractional_chi_bound(adjacency_matrix(Graph(2, frozenset())))


# ------------------------------------------------------------ brute force

def test_brute_force_alpha_known():
    assert brute_force_alpha(cycle(5)) == 2
    assert brute_force_alpha(petersen()) == 4
    assert brute_force_alpha(Graph(7, frozenset())) == 7
    assert brute_force_alpha(Graph.from_edges(4, oracles.complete_edges(4))) == 1
    k33 = Graph.from_edges(6, oracles.complete_bipartite_edges(3, 3))
    assert brute_force_alpha(k33) == 3


def test_brute_force_chi_known():
    assert brute_force_chi(cycle(5)) == 3
    assert brute_force_chi(petersen()) == 3
    assert brute_force_chi(Graph.from_edges(4, oracles.complete_edges(4))) == 4
    assert brute_force_chi(Graph(5, frozenset())) == 1
    k33 = Graph.from_edges(6, oracles.complete_bipartite_edges(3, 3))
    assert brute_force_chi(k33) == 2


def test_brute_force_size_guards():
    with pytest.raises(ValueError):
        brute_force_alpha(Graph(31, frozenset()))
    with pytest.raises(ValueError):
        brute_force_chi(Graph(21, frozenset()))


def test_alpha_witness_is_independent():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        g = Graph.from_edges(n, edges)
        a = brute_force_alpha(g)
        assert 1 <= a <= n


def test_soundness_random_suite():
    # Hoffman never exceeds chi; n * ratio never undercuts alpha
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(4, 13))
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.45
        ]
        g = Graph.from_edges(n, edges)
        if not g.edges:
            continue
        a = adjacency_matrix(g)
        chi = brute_force_chi(g)
        alpha = brute_force_alpha(g)
        assert hoffman_chi_bound(a).value <= chi + 1e-9
        assert n * ratio_bound(a).value >= alpha - 1e-9
        assert fractional_chi_bound(a).value <= chi + 1e-9


# ------------------------------------------------------------- weighting

def test_weighted_adjacency_validates_support():
    g = cycle(5)
    bad = np.zeros((5, 5))
    bad[0, 2] = bad[2, 0] = 1.0  # not an edge
    with pytest.raises(ValueError):
        WeightedAdjacency(g, SymMatrix.from_dense(bad))
    diag = np.zeros((5, 5))
    diag[1, 1] = 1.0
    with pytest.raises(ValueError):
        WeightedAdjacency(g, SymMatrix.from_dense(diag))


def test_optimize_weights_never_regresses():
    for g in [cycle(5), petersen(), Graph.from_edges(4, oracles.complete_edges(4))]:
        base = hoffman_chi_bound(adjacency_matrix(g)).value
        _, rep = optimize_weights(g, steps=60)
        assert rep.value >= base - 1e-9


def test_optimize_weights_star_reaches_two():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    _, rep = optimize_weights(star, steps=60)
    assert rep.value >= 2.0 - 1e-9


def test_optimize_weights_edge_transitive_optimum():
    # C5 and K4 are edge-transitive: uniform weights already optimal
    _, rep = optimize_weights(cycle(5), steps=80)
    assert abs(rep.value - SQRT5) < 1e-6
    _, rep4 = optimize_weights(Graph.from_edges(4, oracles.complete_edges(4)), steps=80)
    assert abs(rep4.value - 4.0) < 1e-6


def test_optimize_weights_errors():
    with pytest.raises(VacuousBoundError):
        optimize_weights(Graph(3, frozenset()))
    with pytest.raises(ValueError):
        optimize_weights(cycle(5), steps=0)


def test_optimize_weights_nonneg_stays_nonneg():
    wa, _ = optimize_weights(petersen(), steps=40, nonneg=True)
    assert wa.matrix.to_dense().min() >= 0.0
