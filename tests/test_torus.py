"""Tests for circulant torus discretizations.

The FFT spectrum is checked against closed forms for cycles and against a
dense eigensolver on random instances; the discrete Hoffman bounds are
checked against brute force on small circulants and against their continuous
targets along refining moduli.
"""

import numpy as np
import pytest

from hoffman import torus
from hoffman.cli import run
from hoffman.graphs import Graph, adjacency_matrix, spectral_range
from hoffman.reports import alpha_ratio_ub, chi_lb
from hoffman.torus import (
    CirculantGraph,
    build_torus_graph,
    circulant_spectrum,
    convergence_csv,
    convergence_study,
)

from oracles import (
    brute_force_alpha,
    brute_force_chi,
    circulant_edges,
    cycle_edges,
    cycle_spectrum,
)

def test_circulant_validation():
    with pytest.raises(ValueError):
        CirculantGraph(2, 1, frozenset({(1,)}))
    with pytest.raises(ValueError):
        CirculantGraph(5, 0, frozenset())
    with pytest.raises(ValueError):
        CirculantGraph(256, 4, frozenset({(1, 0, 0, 0), (255, 0, 0, 0)}))
    with pytest.raises(ValueError):
        CirculantGraph(5, 1, frozenset({(0,)}))
    with pytest.raises(ValueError):
        CirculantGraph(5, 1, frozenset({(1,)}))  # missing -1 mod 5
    with pytest.raises(ValueError):
        CirculantGraph(5, 2, frozenset({(1,), (4,)}))  # arity mismatch
    g = CirculantGraph(5, 1, frozenset({(1,), (4,)}))
    assert g.vertex_count == 5 and g.degree == 2


@pytest.mark.parametrize("dim", [1.5, 2.0, True, "2"])
def test_non_integral_dimension_is_refused(dim):
    # int() would truncate 1.5 to 1 and read True as 1
    with pytest.raises(ValueError, match="dimension must be an integer"):
        CirculantGraph(5, dim, frozenset({(1,), (4,)}))
    with pytest.raises(ValueError, match="dimension must be an integer"):
        build_torus_graph(8, dim, [1.0])
    with pytest.raises(ValueError, match="dimension must be an integer"):
        convergence_study(dim, [1.0], [8])


@pytest.mark.parametrize("m", [8.5, 8.0, True])
def test_non_integral_modulus_is_refused(m):
    with pytest.raises(ValueError, match="modulus must be an integer"):
        CirculantGraph(m, 1, frozenset({(1,), (7,)}))
    with pytest.raises(ValueError, match="modulus must be an integer"):
        build_torus_graph(m, 1, [1.0])
    with pytest.raises(ValueError, match="modulus must be an integer"):
        convergence_study(1, [1.0], [m, 16])


def test_build_annulus_examples():
    g = build_torus_graph(12, 1, [1.0])
    assert g.connection_set == frozenset({(1,), (11,)})
    g = build_torus_graph(6, 1, [1.0, 2.0])
    assert g.connection_set == frozenset({(1,), (2,), (4,), (5,)})
    g = build_torus_graph(8, 2, [1.0])
    assert g.degree == 4
    assert (1, 0) in g.connection_set and (0, 7) in g.connection_set


def test_build_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_torus_graph(12, 1, [0.4])  # annulus catches nothing
    with pytest.raises(ValueError):
        build_torus_graph(12, 1, [])
    with pytest.raises(ValueError):
        build_torus_graph(12, 1, [-1.0])
    with pytest.raises(ValueError):
        build_torus_graph(12, 1, [1.0], tol=1.5)
    with pytest.raises(ValueError):
        build_torus_graph(4097, 2, [1.0])


def test_spectrum_cycles_match_closed_form():
    for m in (5, 7, 12):
        spec = circulant_spectrum(build_torus_graph(m, 1, [1.0]))
        assert np.allclose(spec, cycle_spectrum(m), atol=1e-12)


def test_spectrum_complete_graph():
    # radii {1, 2} on Z_4 connect everything: K4 has spectrum 3, -1, -1, -1
    spec = circulant_spectrum(build_torus_graph(4, 1, [1.0, 2.0]))
    assert np.allclose(spec, [3.0, -1.0, -1.0, -1.0], atol=1e-12)


def test_spectrum_matches_dense_eigensolver():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(4, 11 if n == 2 else 31))
        max_r = (m // 2) if n == 1 else int(m / 1.5)
        radii = sorted(rng.choice(np.arange(1, max(2, max_r)), size=1) + 0.0)
        try:
            g = build_torus_graph(m, n, radii)
        except ValueError:
            continue
        fft_spec = circulant_spectrum(g)
        a = adjacency_matrix(Graph(*circulant_edges(m, n, g.connection_set)))
        dense = np.linalg.eigvalsh(a)[::-1]
        assert np.max(np.abs(fft_spec - dense)) < 1e-8


def test_expanded_graph_is_the_cycle():
    g = build_torus_graph(5, 1, [1.0])
    n, edges = circulant_edges(g.modulus, g.dim, g.connection_set)
    want = {tuple(sorted(e)) for e in cycle_edges(5)}
    assert n == 5 and set(edges) == want


def test_expanded_graph_edge_count():
    g = build_torus_graph(8, 2, [1.0])
    n, edges = circulant_edges(g.modulus, g.dim, g.connection_set)
    assert n == 64
    assert len(edges) == 64 * g.degree // 2


def test_discrete_bounds_sound_on_small_circulants():
    # exact alpha and chi by brute force; Hoffman bounds must bracket them
    for m, radii in ((5, [1.0]), (7, [1.0]), (9, [1.0, 2.0]), (13, [1.0, 3.0])):
        g = build_torus_graph(m, 1, radii)
        n, edges = circulant_edges(g.modulus, g.dim, g.connection_set)
        rng = spectral_range(Graph(n, edges))
        alpha_exact = brute_force_alpha(n, edges)
        chi_exact = brute_force_chi(n, edges)
        assert alpha_ratio_ub(rng).value >= alpha_exact / m - 1e-9
        assert chi_lb(rng).value <= chi_exact + 1e-9


def test_convergence_dim1_exact_at_every_modulus():
    # lattice radii rescale exactly with m, so all rows agree
    rows = convergence_study(1, [1.0, 2.0], [64, 128, 256])
    chis = [r[1] for r in rows]
    alphas = [r[2] for r in rows]
    assert max(chis) - min(chis) < 1e-12
    assert max(alphas) - min(alphas) < 1e-12
    assert abs(chis[0] - rows[0][3]) / rows[0][3] < 0.005


def test_convergence_dim2_refines_toward_continuum():
    rows = convergence_study(2, [12.0], [64, 128, 256])
    cont_chi = rows[0][3]
    assert abs(cont_chi - 3.4828719346) < 1e-9  # single shell = unit distance
    gaps = [abs(r[1] - cont_chi) / cont_chi for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.02
    a_gaps = [abs(r[2] - r[4]) / r[4] for r in rows]
    assert a_gaps[0] > a_gaps[1] > a_gaps[2]
    assert a_gaps[2] < 0.02


def test_convergence_dim3_refines_toward_continuum():
    rows = convergence_study(3, [6.0], [64, 128, 256])
    cont_chi = rows[0][3]
    assert abs(cont_chi - 5.6033388488) < 1e-9
    gaps = [abs(r[1] - cont_chi) / cont_chi for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.02


def test_convergence_study_refuses_sizes_before_the_scan(monkeypatch):
    def no_scan(*args):
        raise AssertionError("the continuous scan ran before the sizes were checked")

    monkeypatch.setattr(torus, "radial_range", no_scan)
    with pytest.raises(ValueError, match="exceed the cap"):
        convergence_study(40, [1.0], [8])
    with pytest.raises(ValueError, match="exceed the cap"):
        convergence_study(2, [1.0], [8, 16, 8192])
    with pytest.raises(ValueError, match="modulus must be at least 3"):
        convergence_study(2, [1.0], [2, 8])
    # a huge dimension is refused without computing m^n
    with pytest.raises(ValueError, match="exceed the cap"):
        CirculantGraph(3, 10**12, frozenset())


def test_torus_refuses_annulus_before_the_scan(monkeypatch, capsys):
    def no_scan(*args):
        raise AssertionError("the continuous scan ran before the annulus was checked")

    monkeypatch.setattr(torus, "radial_range", no_scan)
    assert run(["torus", "--radii", "1", "--moduli", "8", "--annulus", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "hoffman: annulus must lie in (0, 1), got 2.0\n"


def test_convergence_validation():
    with pytest.raises(ValueError):
        convergence_study(2, [1.0], [32, 32])
    with pytest.raises(ValueError):
        convergence_study(2, [], [16, 32])
    with pytest.raises(ValueError):
        convergence_study(2, [0.001], [16, 32])  # rounds to the zero vector


def test_convergence_csv_format():
    rows = convergence_study(1, [1.0], [8, 16])
    text = convergence_csv(rows)
    lines = text.splitlines()
    assert lines[0] == (
        "m,discrete_chi_lb,discrete_alpha_ub,continuous_chi_lb,continuous_alpha_ub"
    )
    assert len(lines) == 3 and text.endswith("\n")
    first = lines[1].split(",")
    assert first[0] == "8" and len(first) == 5
    float(first[1])  # numeric cells parse back
