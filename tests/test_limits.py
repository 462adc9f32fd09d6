"""Limits that tie the cases together: the sphere tends to the Euclidean case.

Mehler-Heine (Szego, Orthogonal Polynomials, Thm 8.1.1; DLMF 18.11.5):
Pbar_k^(alpha,alpha)(cos(x/k)) -> Gamma(alpha+1) (x/2)^(-alpha) J_alpha(x) =
Omega_{2 alpha + 2}(x).  With alpha = (n-3)/2, a measure on S^(n-1) with
atoms at t_i = cos(d_i/rho) has eigenvalues lambda_k that tend to nuhat(k/rho)
of the radial measure on R^(n-1) with atoms at radii d_i, as rho grows.  The
Jacobi recurrence and the Bessel kernels check each other here without scipy
or mpmath; the limit is coarse, so it catches a wrong order, parameter or
regime, not a last digit.
"""

import math

import numpy as np
import pytest

from hoffman.euclidean import RadialMeasure, fourier_radial, radial_range
from hoffman.specfun import jacobi_sequence
from hoffman.sphere import SphereMeasure, operator_range

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
