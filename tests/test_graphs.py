"""Finite-graph bounds and parsing, checked against brute-force oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hoffman import (
    BoundInapplicableError,
    Graph,
    NoNegativeSpectrumError,
    SymMatrix,
    VacuousBoundError,
    adjacency_matrix,
    alpha_ratio_ub,
    bounds,
    chi_frac_lb,
    chi_lb,
    parse_graph,
    spectral_range,
)

import oracles
from oracles import brute_force_alpha, brute_force_chi

SQRT5 = math.sqrt(5.0)


def cycle(n):
    return Graph(n, oracles.cycle_edges(n))


def petersen():
    return Graph(10, oracles.petersen_edges())


def graph_range(g):
    return spectral_range(adjacency_matrix(g))


# ---------------------------------------------------------------- parsing

def test_parse_plain_edge_list():
    g = parse_graph("# comment\n0 1\n1 2\n\n2 3  # trailing\n")
    assert g.n == 4
    assert sorted(g.edges) == [(0, 1), (1, 2), (2, 3)]


def test_parse_dimacs_header_is_one_indexed():
    g = parse_graph("c petersen-ish header\np edge 3 2\ne 1 2\ne 2 3\n")
    assert g.n == 3
    assert sorted(g.edges) == [(0, 1), (1, 2)]


def test_parse_rejects_plain_pairs_in_dimacs_input():
    # 0-indexed pairs must not mix with 1-indexed "e" lines, on either side
    for text in [
        "0 1\n1 2\n2 0\np edge 4 1\ne 3 4\n",
        "p edge 4 1\ne 3 4\n0 1\n",
    ]:
        with pytest.raises(ValueError, match="in DIMACS input"):
            parse_graph(text)


def test_parse_rejects_garbage():
    for text in ["0\n", "0 1 2\n", "a b\n", "p edge 2 1\ne 1 3\n", "0 0\n"]:
        with pytest.raises(ValueError):
            parse_graph(text)


def test_graph_validates_loops_and_range():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


# -------------------------------------------------------------- adjacency

def test_adjacency_examples():
    assert not adjacency_matrix(Graph(3, frozenset())).to_dense().any()
    single = adjacency_matrix(Graph(2, [(0, 1)]))
    assert np.array_equal(single.to_dense(), [[0.0, 1.0], [1.0, 0.0]])
    c5 = adjacency_matrix(cycle(5)).to_dense()
    assert np.array_equal(c5[0], [0.0, 1.0, 0.0, 0.0, 1.0])


# ------------------------------------------------------------ the bounds

def test_hoffman_c5_is_sqrt5():
    rep = chi_lb(graph_range(cycle(5)))
    assert abs(rep.value - SQRT5) < 1e-10
    assert abs(rep.value - (rep.M - rep.m) / (-rep.m)) < 1e-12


def test_hoffman_petersen_and_k4():
    assert abs(chi_lb(graph_range(petersen())).value - 2.5) < 1e-10
    k4 = Graph(4, oracles.complete_edges(4))
    assert abs(chi_lb(graph_range(k4)).value - 4.0) < 1e-10


def test_hoffman_error_contracts():
    with pytest.raises(VacuousBoundError):
        chi_lb(graph_range(Graph(3, frozenset())))
    with pytest.raises(NoNegativeSpectrumError):
        chi_lb(spectral_range(SymMatrix(np.eye(3))))


def test_ratio_bound_regular_graphs():
    rep = alpha_ratio_ub(graph_range(cycle(5)))
    assert rep.epsilon == 0.0
    assert abs(5.0 * rep.value - SQRT5) < 1e-10
    pet = alpha_ratio_ub(graph_range(petersen()))
    assert abs(pet.value - 0.4) < 1e-10  # alpha(Petersen) = 4 = 10 * 0.4


def test_ratio_bound_p3_hand_computed():
    # A1 = (1,2,1), R = 4/3, eps = sqrt(mean((deg - R)^2)) = sqrt(2/9)
    g = Graph(3, [(0, 1), (1, 2)])
    rep = alpha_ratio_ub(graph_range(g))
    m = -math.sqrt(2.0)
    R = 4.0 / 3.0
    eps = math.sqrt((2 * (1 - R) ** 2 + (2 - R) ** 2) / 3.0)
    assert abs(rep.R - R) < 1e-12
    assert abs(rep.epsilon - eps) < 1e-12
    assert abs(rep.value - (-m + 2 * eps) / (R - m - eps)) < 1e-12


def test_ratio_bound_inapplicable():
    rng = replace(graph_range(cycle(5)), R=-5.0)
    with pytest.raises(BoundInapplicableError):
        alpha_ratio_ub(rng)
    assert set(bounds(rng, chi_lb, alpha_ratio_ub)) == {"chi_lb"}


def test_fractional_bound_examples():
    assert abs(chi_frac_lb(graph_range(cycle(5))).value - SQRT5) < 1e-10
    k4 = Graph(4, oracles.complete_edges(4))
    assert abs(chi_frac_lb(graph_range(k4)).value - 4.0) < 1e-10
    with pytest.raises(VacuousBoundError):
        chi_frac_lb(graph_range(Graph(2, frozenset())))


# ------------------------------------------------------------ brute force

def test_brute_force_alpha_known():
    assert brute_force_alpha(5, oracles.cycle_edges(5)) == 2
    assert brute_force_alpha(10, oracles.petersen_edges()) == 4
    assert brute_force_alpha(7, []) == 7
    assert brute_force_alpha(4, oracles.complete_edges(4)) == 1
    assert brute_force_alpha(6, oracles.complete_bipartite_edges(3, 3)) == 3


def test_brute_force_chi_known():
    assert brute_force_chi(5, oracles.cycle_edges(5)) == 3
    assert brute_force_chi(10, oracles.petersen_edges()) == 3
    assert brute_force_chi(4, oracles.complete_edges(4)) == 4
    assert brute_force_chi(5, []) == 1
    assert brute_force_chi(6, oracles.complete_bipartite_edges(3, 3)) == 2


def test_brute_force_size_guards():
    with pytest.raises(ValueError):
        brute_force_alpha(31, [])
    with pytest.raises(ValueError):
        brute_force_chi(21, [])


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
        a = brute_force_alpha(n, edges)
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
        g = Graph(n, edges)
        if not g.edges:
            continue
        spec = graph_range(g)
        chi = brute_force_chi(n, edges)
        alpha = brute_force_alpha(n, edges)
        assert chi_lb(spec).value <= chi + 1e-9
        assert n * alpha_ratio_ub(spec).value >= alpha - 1e-9
        assert chi_frac_lb(spec).value <= chi + 1e-9
