"""The checked symmetric matrix type and its numerical range."""

import math

import numpy as np
import pytest

from hoffman import SymMatrix, numerical_range

import oracles


def test_symmatrix_holds_a_read_only_copy():
    source = np.array([[1.0, 2.0], [2.0, 5.0]])
    a = SymMatrix(source)
    source[0, 0] = 9.0
    assert a.size == 2
    assert np.array_equal(a.to_dense(), [[1.0, 2.0], [2.0, 5.0]])
    with pytest.raises(ValueError):
        a.to_dense()[0, 0] = 3.0


def test_symmatrix_rejects_asymmetry_and_nonfinite():
    with pytest.raises(ValueError):
        SymMatrix(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError):
        SymMatrix([[math.nan]])
    with pytest.raises(ValueError):
        SymMatrix([[1.0, math.inf], [math.inf, 2.0]])
    with pytest.raises(ValueError):
        SymMatrix([[1.0, 2.0]])  # not square


def test_identity_eigenvalues():
    m, M = numerical_range(SymMatrix(np.eye(4)))
    assert abs(m - 1.0) < 1e-14 and abs(M - 1.0) < 1e-14


def test_single_edge_eigenvalues():
    m, M = numerical_range(SymMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert abs(m + 1.0) < 1e-14 and abs(M - 1.0) < 1e-14


def test_cycle5_closed_form_spectrum():
    a = np.zeros((5, 5))
    for u, v in oracles.cycle_edges(5):
        a[u, v] = a[v, u] = 1.0
    want = oracles.cycle_spectrum(5)
    m, M = numerical_range(SymMatrix(a))
    assert abs(m - want[-1]) < 1e-10 and abs(M - want[0]) < 1e-10


def test_eigenvalues_sorted_nonincreasing():
    # m is the smallest eigenvalue and M the largest, checked against the
    # general (nonsymmetric) eigensolver
    rng = np.random.default_rng(3)
    b = rng.standard_normal((8, 8))
    m, M = numerical_range(SymMatrix(b + b.T))
    vals = np.linalg.eigvals(b + b.T).real
    assert abs(m - vals.min()) < 1e-10 and abs(M - vals.max()) < 1e-10


def test_rayleigh_quotients_inside_range():
    rng = np.random.default_rng(17)
    b = rng.standard_normal((15, 15))
    a = SymMatrix(b + b.T)
    m, M = numerical_range(a)
    dense = a.to_dense()
    for _ in range(100):
        f = rng.standard_normal(15)
        f /= np.linalg.norm(f)
        q = float(f @ dense @ f)
        assert m - 1e-10 <= q <= M + 1e-10


def test_permutation_similarity():
    rng = np.random.default_rng(23)
    b = rng.standard_normal((12, 12))
    a = b + b.T
    base = numerical_range(SymMatrix(a))
    for _ in range(5):
        p = rng.permutation(12)
        permuted = numerical_range(SymMatrix(a[np.ix_(p, p)]))
        assert np.allclose(base, permuted, atol=1e-10)


def test_numerical_range_examples():
    assert numerical_range(SymMatrix(np.zeros((3, 3)))) == (0.0, 0.0)
    a = np.zeros((5, 5))
    for u, v in oracles.cycle_edges(5):
        a[u, v] = a[v, u] = 1.0
    m, M = numerical_range(SymMatrix(a))
    assert abs(m - (-1.6180339887498949)) < 1e-10
    assert abs(M - 2.0) < 1e-10


def test_petersen_numerical_range():
    a = np.zeros((10, 10))
    for u, v in oracles.petersen_edges():
        a[u, v] = a[v, u] = 1.0
    m, M = numerical_range(SymMatrix(a))
    assert abs(m + 2.0) < 1e-10 and abs(M - 3.0) < 1e-10


def test_determinism():
    rng = np.random.default_rng(29)
    b = rng.standard_normal((9, 9))
    a = SymMatrix(b + b.T)
    assert numerical_range(a) == numerical_range(a)
