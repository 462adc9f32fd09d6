"""Limits that tie the cases together: the sphere tends to the Euclidean case.

Mehler-Heine (Szego, Orthogonal Polynomials, Thm 8.1.1; DLMF 18.11.5):
Pbar_k^(alpha,alpha)(cos(x/k)) -> Gamma(alpha+1) (x/2)^(-alpha) J_alpha(x) =
Omega_{2 alpha + 2}(x).  With alpha = (n-3)/2, a measure on S^(n-1) with
atoms at t_i = cos(d_i/rho) has eigenvalues lambda_k that tend to nuhat(k/rho)
of the radial measure on R^(n-1) with atoms at radii d_i, as rho grows.  The
Jacobi recurrence and the Bessel kernels check each other here without scipy
or mpmath; the limit is coarse, so it catches a wrong order, parameter or
regime, not a last digit.

Two more links: on the circle S^1 the eigenvalues are sum_i w_i cos(k theta_i),
the profile of the measure on R^1 with atoms at radii theta_i, read at r = k;
and nuhat of a measure with every radius times s is nuhat(s r), so the range
does not move.
"""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hoffman.euclidean import RadialMeasure, fourier_radial, radial_range
from hoffman.specfun import jacobi_sequence
from hoffman.sphere import SphereMeasure, eigenvalue_sequence, operator_range

_ATOMS = ((1.0, 0.6), (1.7, 0.4))  # (d_i, w_i)


def _pair(n, rho):
    """The sphere measure on S^(n-1) at t_i = cos(d_i/rho) and its radial limit on R^(n-1)."""
    # t falls as d grows, and SphereMeasure wants increasing inner products
    sphere = SphereMeasure(n, tuple(sorted((math.cos(d / rho), w) for d, w in _ATOMS)))
    return sphere, RadialMeasure(n - 1, _ATOMS)


@pytest.mark.parametrize("n", [3, 4, 6])
@pytest.mark.parametrize("rho", [50, 200])
def test_sphere_eigenvalues_tend_to_the_radial_profile(n, rho):
    # measured: max |lambda_k - nuhat(k/rho)| times rho is 0.35, 0.52 and 0.74
    # for n = 3, 4 and 6, at both rho
    sphere, radial = _pair(n, rho)
    k = np.arange(6 * rho + 1)
    table = jacobi_sequence(int(k[-1]), (n - 3) / 2.0, sphere.inner_products())
    eigenvalues = table @ sphere.weights()
    gap = np.max(np.abs(eigenvalues - fourier_radial(radial, k / rho)))
    assert gap <= 1.0 / rho


@pytest.mark.parametrize("n", [3, 4, 6])
@pytest.mark.parametrize("rho, K", [(50, 512), (200, 2048)])
def test_sphere_range_tends_to_the_radial_range(n, rho, K):
    # through the public range functions; the minima converge about as
    # 1/rho^2 (measured: |dm| times rho^2 at most 0.017)
    sphere, radial = _pair(n, rho)
    gap = abs(operator_range(sphere, K=K).m - radial_range(radial).m)
    assert gap <= 0.05 / rho**2


@st.composite
def _atoms(draw):
    """1-4 atoms (d_i, w_i): radii on the grid 0.25, 0.26, ..., 2 and signed
    weights with sum |w_i| = 1."""
    grid = sorted(draw(st.lists(st.integers(25, 200), min_size=1, max_size=4, unique=True)))
    weights = [draw(st.floats(0.05, 1.0)) * draw(st.sampled_from((1.0, -1.0))) for _ in grid]
    total = sum(abs(w) for w in weights)
    return tuple((k / 100.0, w / total) for k, w in zip(grid, weights))


@seed(30)
@settings(max_examples=60, deadline=None)
@given(st.integers(3, 6), _atoms(), st.sampled_from((50, 200)))
def test_mehler_heine_holds_for_drawn_measures(n, atoms, rho):
    # the Jacobi argument runs at k + (n - 2)/2 where the profile's runs at k
    # (Szego 8.21.17), so the gap is first order in d_i/rho; measured on
    # these draws: the gap times rho over sum |w_i| d_i reached 0.28 (n = 3)
    # to 0.62 (n = 6), and over sum |w_i| d_i^2 it reached 2.04
    sphere = SphereMeasure(n, tuple(sorted((math.cos(d / rho), w) for d, w in atoms)))
    k = np.arange(6 * rho + 1)
    table = jacobi_sequence(int(k[-1]), (n - 3) / 2.0, sphere.inner_products())
    profile = fourier_radial(RadialMeasure(n - 1, atoms), k / rho)
    gap = np.max(np.abs(table @ sphere.weights() - profile))
    assert gap <= sum(abs(w) * d for d, w in atoms) / rho


def test_circle_eigenvalues_are_the_line_profile_at_the_integers():
    # lambda_k = sum_i w_i cos(k theta_i) = nuhat(k) of the measure on R^1 with
    # radii theta_i; measured: the gap over k + 1 is at most 7.9e-16
    rng = np.random.default_rng(30)
    K = 400
    ks = np.arange(K + 1)
    for _ in range(50):
        size = int(rng.integers(1, 6))
        theta = np.sort(rng.choice(np.arange(1, 1000), size, replace=False)) * math.pi / 1000
        w = rng.uniform(-1.0, 1.0, size)
        circle = SphereMeasure(2, tuple(sorted(zip(np.cos(theta).tolist(), w.tolist()))))
        line = RadialMeasure(1, tuple(zip(theta.tolist(), w.tolist())))
        gap = np.abs(eigenvalue_sequence(circle, K).values - fourier_radial(line, ks.astype(float)))
        assert np.all(gap <= 1e-13 * (ks + 1)), (theta, w)


@seed(30)
@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), _atoms(), st.floats(0.25, 4.0))
def test_radial_range_does_not_move_when_the_radii_scale(n, atoms, s):
    # nuhat_s(r) = nuhat(s r); measured on these draws: |dm| and |dM| at most 6.9e-14
    got = radial_range(RadialMeasure(n, atoms))
    scaled = radial_range(RadialMeasure(n, tuple((s * d, w) for d, w in atoms)))
    assert abs(scaled.m - got.m) <= 1e-9 and abs(scaled.M - got.M) <= 1e-9
