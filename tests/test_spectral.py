"""Dense symmetric eigendecomposition and numerical range."""

import math

import numpy as np
import pytest

from hoffman import ConvergenceError, Spectrum, SymMatrix, eigen_decompose, numerical_range

import oracles


def test_symmatrix_holds_a_read_only_copy():
    source = np.array([[1.0, 2.0], [2.0, 5.0]])
    a = SymMatrix.from_dense(source)
    source[0, 0] = 9.0
    assert a.size == 2
    assert np.array_equal(a.to_dense(), [[1.0, 2.0], [2.0, 5.0]])
    with pytest.raises(ValueError):
        a.to_dense()[0, 0] = 3.0


def test_symmatrix_rejects_asymmetry_and_nonfinite():
    with pytest.raises(ValueError):
        SymMatrix.from_dense(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError):
        SymMatrix([[math.nan]])
    with pytest.raises(ValueError):
        SymMatrix([[1.0, math.inf], [math.inf, 2.0]])
    with pytest.raises(ValueError):
        SymMatrix([[1.0, 2.0]])  # not square


def test_identity_eigenvalues():
    spec = eigen_decompose(SymMatrix.from_dense(np.eye(4)))
    assert np.allclose(spec.eigenvalues, np.ones(4), atol=1e-14)


def test_single_edge_eigenvalues():
    spec = eigen_decompose(SymMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert np.allclose(spec.eigenvalues, [1.0, -1.0], atol=1e-14)


def test_cycle5_closed_form_spectrum():
    a = np.zeros((5, 5))
    for u, v in oracles.cycle_edges(5):
        a[u, v] = a[v, u] = 1.0
    spec = eigen_decompose(SymMatrix.from_dense(a))
    assert np.allclose(spec.eigenvalues, oracles.cycle_spectrum(5), atol=1e-10)


def test_eigenvalues_sorted_nonincreasing():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((8, 8))
    spec = eigen_decompose(SymMatrix.from_dense(b + b.T))
    assert all(x >= y for x, y in zip(spec.eigenvalues, spec.eigenvalues[1:]))


def test_eigenvector_residuals_and_orthogonality():
    rng = np.random.default_rng(11)
    b = rng.standard_normal((40, 40))
    a = SymMatrix.from_dense(b + b.T)
    spec = eigen_decompose(a)
    dense = a.to_dense()
    v = spec.eigenvectors
    fro = np.linalg.norm(dense)
    for i in range(40):
        r = dense @ v[:, i] - spec.eigenvalues[i] * v[:, i]
        assert np.linalg.norm(r) <= 1e-10 * fro
    assert np.max(np.abs(v.T @ v - np.eye(40))) <= 1e-8


def test_trace_and_reconstruction():
    rng = np.random.default_rng(5)
    b = rng.standard_normal((60, 60))
    a = SymMatrix.from_dense(b + b.T)
    spec = eigen_decompose(a)
    dense = a.to_dense()
    fro = np.linalg.norm(dense)
    assert abs(sum(spec.eigenvalues) - np.trace(dense)) <= 1e-10 * 60 * fro
    recon = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.T
    assert np.linalg.norm(recon - dense) <= 1e-8 * fro


def test_rayleigh_quotients_inside_range():
    rng = np.random.default_rng(17)
    b = rng.standard_normal((15, 15))
    a = SymMatrix.from_dense(b + b.T)
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
    base = eigen_decompose(SymMatrix.from_dense(a)).eigenvalues
    for _ in range(5):
        p = rng.permutation(12)
        permuted = eigen_decompose(SymMatrix.from_dense(a[np.ix_(p, p)])).eigenvalues
        assert np.allclose(base, permuted, atol=1e-10)


def test_numerical_range_examples():
    assert numerical_range(SymMatrix.from_dense(np.zeros((3, 3)))) == (0.0, 0.0)
    a = np.zeros((5, 5))
    for u, v in oracles.cycle_edges(5):
        a[u, v] = a[v, u] = 1.0
    m, M = numerical_range(SymMatrix.from_dense(a))
    assert abs(m - (-1.6180339887498949)) < 1e-10
    assert abs(M - 2.0) < 1e-10


def test_petersen_numerical_range():
    a = np.zeros((10, 10))
    for u, v in oracles.petersen_edges():
        a[u, v] = a[v, u] = 1.0
    m, M = numerical_range(SymMatrix.from_dense(a))
    assert abs(m + 2.0) < 1e-10 and abs(M - 3.0) < 1e-10


def test_determinism():
    rng = np.random.default_rng(29)
    b = rng.standard_normal((9, 9))
    a = SymMatrix.from_dense(b + b.T)
    s1 = eigen_decompose(a)
    s2 = eigen_decompose(a)
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


def test_spectrum_invariant_checked():
    with pytest.raises(ValueError):
        Spectrum(np.array([1.0, 2.0]), np.eye(2))  # increasing order rejected
