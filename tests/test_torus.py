"""Tests for circulant torus discretizations.

The half-box FFT range is checked against closed forms for cycles and K4
and against a dense eigensolver on the vertex-by-vertex form of random
instances, whose connection sets come from a plain-Python oracle; the
discrete Hoffman bounds are checked against brute force on small circulants
and against their continuous targets along refining moduli.
"""

import math

import numpy as np
import pytest

from hoffman import torus
from hoffman.cli import run
from hoffman.graphs import Graph, adjacency_matrix, spectral_range
from hoffman.reports import alpha_ratio_ub, chi_lb
from hoffman.torus import circulant_range, convergence_csv, convergence_study

from oracles import (
    annulus_connection_set,
    brute_force_alpha,
    brute_force_chi,
    circulant_edges,
    cycle_edges,
    cycle_spectrum,
)


@pytest.mark.parametrize("dim", [1.5, 2.0, True, "2"])
def test_non_integral_dimension_is_refused(dim):
    # int() would truncate 1.5 to 1 and read True as 1
    with pytest.raises(ValueError, match="dimension must be an integer"):
        circulant_range(8, dim, [1.0])
    with pytest.raises(ValueError, match="dimension must be an integer"):
        convergence_study(dim, [1.0], [8])


@pytest.mark.parametrize("m", [8.5, 8.0, True])
def test_non_integral_modulus_is_refused(m):
    with pytest.raises(ValueError, match="modulus must be an integer"):
        circulant_range(m, 1, [1.0])
    with pytest.raises(ValueError, match="modulus must be an integer"):
        convergence_study(1, [1.0], [m, 16])


def test_build_annulus_examples():
    assert annulus_connection_set(12, 1, [1.0], 0.25) == {(1,), (11,)}
    assert annulus_connection_set(6, 1, [1.0, 2.0], 0.25) == {(1,), (2,), (4,), (5,)}
    s = annulus_connection_set(8, 2, [1.0], 0.25)
    assert s == {(1, 0), (7, 0), (0, 1), (0, 7)}
    # R is the size of the connection set
    assert circulant_range(12, 1, [1.0]).R == 2.0
    assert circulant_range(6, 1, [1.0, 2.0]).R == 4.0
    assert circulant_range(8, 2, [1.0]).R == 4.0
    # the annulus around 0.5 reaches 0, but 0 is never in the set
    assert annulus_connection_set(12, 1, [0.5], 0.75) == {(1,), (11,)}
    assert circulant_range(12, 1, [0.5], 0.75).R == 2.0
    # the norm-2 vectors lie exactly on the annulus edge, |2 - 1.75| = 0.25,
    # and the edge belongs to the annulus: S is the four double steps
    s = annulus_connection_set(8, 2, [1.75], 0.25)
    assert s == {(2, 0), (6, 0), (0, 2), (0, 6)}
    edge = circulant_range(8, 2, [1.75], 0.25)
    assert (edge.m, edge.M, edge.R) == (-4.0, 4.0, len(s))
    # sqrt(5) is within 0.3 of 2: the knight moves join the axis steps
    assert circulant_range(8, 2, [2.0], 0.3).R == len(
        annulus_connection_set(8, 2, [2.0], 0.3)
    ) == 12


def test_build_rejects_bad_inputs():
    with pytest.raises(ValueError, match="connection set empty"):
        circulant_range(12, 1, [0.4])  # annulus catches nothing
    with pytest.raises(ValueError, match="radii must be positive"):
        circulant_range(12, 1, [])
    with pytest.raises(ValueError, match="radii must be positive"):
        circulant_range(12, 1, [-1.0])
    with pytest.raises(ValueError, match="annulus must lie in"):
        circulant_range(12, 1, [1.0], tol=1.5)
    with pytest.raises(ValueError, match="annulus must lie in"):
        circulant_range(12, 1, [1.0], tol=1.0)
    with pytest.raises(ValueError, match="modulus must be at least 3"):
        circulant_range(2, 1, [1.0])
    with pytest.raises(ValueError, match="dimension must be at least 1"):
        circulant_range(5, 0, [1.0])
    with pytest.raises(ValueError, match="exceed the cap"):
        circulant_range(4097, 2, [1.0])
    with pytest.raises(ValueError, match="exceed the cap"):
        circulant_range(256, 4, [1.0])


def test_spectrum_cycles_match_closed_form():
    for m in (5, 7, 12):
        rng = circulant_range(m, 1, [1.0])
        spec = cycle_spectrum(m)
        assert abs(rng.m - spec[-1]) < 1e-12 and abs(rng.M - spec[0]) < 1e-12
        assert rng.R == 2.0


def test_spectrum_complete_graph():
    # radii {1, 2} on Z_4 connect everything: K4 has spectrum 3, -1, -1, -1
    rng = circulant_range(4, 1, [1.0, 2.0])
    assert abs(rng.m + 1.0) < 1e-12 and abs(rng.M - 3.0) < 1e-12
    assert rng.R == 3.0


def test_spectrum_matches_dense_eigensolver():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(4, 11 if n == 2 else 31))
        max_r = (m // 2) if n == 1 else int(m / 1.5)
        radii = sorted(rng.choice(np.arange(1, max(2, max_r)), size=1) + 0.0)
        cset = annulus_connection_set(m, n, radii, 0.25)
        if not cset:
            with pytest.raises(ValueError, match="connection set empty"):
                circulant_range(m, n, radii)
            continue
        got = circulant_range(m, n, radii)
        dense = np.linalg.eigvalsh(adjacency_matrix(Graph(*circulant_edges(m, n, cset))))
        assert abs(got.m - dense[0]) < 1e-8 and abs(got.M - dense[-1]) < 1e-8
        assert got.R == len(cset)


@pytest.mark.parametrize(
    "m, n, radii",
    [(600, 1, [1.0, 7.0, 30.0]), (1024, 1, [1.0, 5.0, 11.0]), (24, 2, [3.0])],
    ids=["Z_600", "Z_1024", "Z_24^2"],
)
def test_lanczos_range_of_the_vertex_form_matches_the_fft(m, n, radii):
    # from 500 vertices on the finite route is Lanczos with a proven m: it
    # stays below the FFT's minimum, up to the FFT's own rounding, and close
    fft = circulant_range(m, n, radii)
    vertices, edges = circulant_edges(m, n, annulus_connection_set(m, n, radii, 0.25))
    finite = spectral_range(Graph(vertices, edges))
    scale = max(1.0, finite.M)
    fft_rounding = 8 * math.log2(vertices) * np.finfo(float).eps * fft.R
    assert finite.provenance["solver"] == "lanczos"
    assert finite.m <= fft.m + fft_rounding
    assert fft.m - finite.m <= 1e-9 * scale
    assert abs(finite.M - fft.M) <= 1e-9 * scale
    assert finite.R == fft.R


def test_expanded_graph_is_the_cycle():
    n, edges = circulant_edges(5, 1, annulus_connection_set(5, 1, [1.0], 0.25))
    want = {tuple(sorted(e)) for e in cycle_edges(5)}
    assert n == 5 and set(edges) == want


def test_expanded_graph_edge_count():
    cset = annulus_connection_set(8, 2, [1.0], 0.25)
    n, edges = circulant_edges(8, 2, cset)
    assert n == 64
    assert len(edges) == 64 * len(cset) // 2


def test_discrete_bounds_sound_on_small_circulants():
    # exact alpha and chi by brute force; Hoffman bounds must bracket them
    for m, radii in ((5, [1.0]), (7, [1.0]), (9, [1.0, 2.0]), (13, [1.0, 3.0])):
        n, edges = circulant_edges(m, 1, annulus_connection_set(m, 1, radii, 0.25))
        alpha_exact = brute_force_alpha(n, edges)
        chi_exact = brute_force_chi(n, edges)
        for rng in (spectral_range(Graph(n, edges)), circulant_range(m, 1, radii)):
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
        circulant_range(3, 10**12, [1.0])


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
