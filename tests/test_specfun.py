"""Bessel functions, their zeros, the radial profile Omega_n, Jacobi polynomials."""

import math

import numpy as np
import pytest
import scipy.special as sps

from hoffman import (
    SphereMeasure,
    bessel_first_zero,
    bessel_j,
    jacobi_sequence,
    omega,
)

import oracles


# ------------------------------------------------------------------ bessel

def test_bessel_trivial_values():
    assert bessel_j(0.0, 0.0) == 1.0
    assert bessel_j(2.5, 0.0) == 0.0
    assert abs(bessel_j(0.5, math.pi)) < 1e-12  # J_{1/2} ~ sin


def test_bessel_against_scipy_dense_grid():
    xs = np.concatenate([np.linspace(0.0, 50.0, 300), np.linspace(50.0, 2000.0, 120)])
    worst = 0.0
    for nu in [0.0, 0.5, 1.0, 1.5, 2.0, 5.0, 10.0, 17.5, 30.0, 45.0, 60.0]:
        got = bessel_j(nu, xs)
        want = sps.jv(nu, xs)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-10


def test_bessel_against_independent_series():
    # the series oracle shares no code with the package evaluation
    for nu in [0.0, 1.0, 2.5]:
        for x in [0.5, 3.0, 7.5, 12.0]:
            assert abs(bessel_j(nu, x) - oracles.bessel_series(nu, x)) < 1e-11


def test_bessel_recurrence_residual_on_stated_grid():
    # |J_{v-1} + J_{v+1} - (2v/x) J_v| <= 1e-8 for v in 1..10, x in [0.5, 50]
    xs = np.linspace(0.5, 50.0, 250)
    for nu in range(1, 11):
        res = bessel_j(nu - 1.0, xs) + bessel_j(nu + 1.0, xs) - (2.0 * nu / xs) * bessel_j(
            float(nu), xs
        )
        assert np.max(np.abs(res)) <= 1e-8


def test_bessel_domain_guards():
    with pytest.raises(ValueError):
        bessel_j(-0.5, 1.0)
    with pytest.raises(ValueError):
        bessel_j(61.0, 1.0)
    with pytest.raises(ValueError):
        bessel_j(1.0, -0.1)


def test_first_zero_examples():
    assert abs(bessel_first_zero(1.0) - 3.8317059702075125) < 1e-10
    assert abs(bessel_first_zero(0.5) - math.pi) < 1e-10
    # order 3/2: first positive root of tan x = x, by an independent bisection
    assert abs(bessel_first_zero(1.5) - oracles.tan_x_equals_x_root()) < 1e-10


def test_first_zeros_against_scipy():
    for order in range(0, 8):
        want = float(sps.jn_zeros(order, 1)[0])
        assert abs(bessel_first_zero(float(order)) - want) < 1e-10


def test_first_zero_is_a_sign_change():
    for nu in [0.0, 0.75, 2.5, 7.0, 30.0]:
        z = bessel_first_zero(nu)
        assert bessel_j(nu, z - 1e-4) > 0.0 > bessel_j(nu, z + 1e-4)


# ------------------------------------------------------------------- omega

def test_omega_at_zero_is_one():
    for n in range(2, 33):
        assert omega(n, 0.0) == 1.0


def test_omega_3_is_sinc():
    ts = np.linspace(1e-3, 40.0, 400)
    assert np.max(np.abs(omega(3, ts) - np.sin(ts) / ts)) < 1e-12
    assert abs(omega(3, math.pi / 2.0) - 2.0 / math.pi) < 1e-14
    assert abs(omega(3, math.pi)) < 1e-14


def test_omega_2_minimum_matches_series_oracle():
    j11 = oracles.bessel_first_zero_series(1.0, 3.0, 4.5)
    assert abs(omega(2, j11) - oracles.bessel_series(0.0, j11)) < 1e-11
    assert abs(omega(2, 3.8317059702) - (-0.4027593957)) < 1e-9


def test_omega_bounded_by_one():
    ts = np.linspace(0.0, 100.0, 10_000)
    for n in range(2, 9):
        vals = omega(n, ts)
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12


def test_omega_domain_guards():
    with pytest.raises(ValueError):
        omega(0, 1.0)
    with pytest.raises(ValueError):
        omega(2, -1.0)


# ------------------------------------------------------------------ jacobi

def jacobi(k, alpha, t):
    """Pbar_k(t) as row k of the normalized Jacobi table."""
    return jacobi_sequence(k, alpha, t)[k]


def test_jacobi_trivial_degrees():
    for t in [-1.0, -0.3, 0.2, 1.0]:
        assert jacobi(0, 0.7, t) == 1.0
        assert abs(jacobi(1, 0.7, t) - t) < 1e-14


def test_jacobi_legendre_value():
    # alpha = (n - 3)/2 = 0 on S^2: the Legendre polynomials
    assert abs(jacobi(2, 0.0, -1.0 / 3.0) - (-1.0 / 3.0)) < 1e-14


def test_jacobi_against_scipy():
    rng = np.random.default_rng(31)
    for alpha in [-0.5, 0.0, 0.5, 1.0, 2.5]:
        ts = rng.uniform(-1.0, 1.0, 20)
        for k in [1, 2, 5, 17, 60, 200]:
            want = sps.eval_jacobi(k, alpha, alpha, ts) / sps.eval_jacobi(
                k, alpha, alpha, 1.0
            )
            got = jacobi(k, alpha, ts)
            assert np.max(np.abs(got - want)) < 1e-9


def test_jacobi_against_independent_legendre_recurrence():
    for t in [-0.9, -1.0 / 3.0, 0.1, 0.77]:
        want = oracles.legendre_sequence(30, t)
        got = jacobi_sequence(30, 0.0, t)[:, 0]
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12


def test_chebyshev_specialization():
    thetas = np.linspace(0.0, math.pi, 37)
    for k in [0, 1, 2, 7, 40, 150]:
        got = jacobi(k, -0.5, np.cos(thetas))
        assert np.max(np.abs(got - np.cos(k * thetas))) < 1e-10


def test_jacobi_bounded_on_interval():
    ts = np.linspace(-1.0, 1.0, 501)
    for alpha in [-0.5, 0.0, 1.5, 4.0]:
        table = jacobi_sequence(200, alpha, ts)
        assert np.max(np.abs(table)) <= 1.0 + 1e-12


def test_jacobi_orthogonality_by_quadrature():
    # Gauss-Legendre against weight (1-u^2)^alpha; alpha = -1/2 is excluded
    # (integrable endpoint singularity), per the Chebyshev closed-form route.
    nodes, weights = np.polynomial.legendre.leggauss(220)
    for alpha in [0.0, 1.0, 2.5]:
        table = jacobi_sequence(20, alpha, nodes)
        w = weights * (1.0 - nodes**2) ** alpha
        gram = table @ np.diag(w) @ table.T
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) <= 1e-8


def test_jacobi_tail_decay_for_spheres():
    # Szego-type decay: the probe max over [K, 2K] shrinks as K doubles
    for n in [3, 4, 6]:
        alpha = (n - 3) / 2.0
        t = np.array([-0.41])
        table = jacobi_sequence(1024, alpha, t)[:, 0]
        probes = [float(np.max(np.abs(table[k : 2 * k + 1]))) for k in (64, 128, 256)]
        assert probes[0] > probes[1] > probes[2]


def test_jacobi_sequence_matches_pointwise_eval():
    ts = np.linspace(-1.0, 1.0, 11)
    table = jacobi_sequence(12, 0.25, ts)
    for k in range(13):
        want = sps.eval_jacobi(k, 0.25, 0.25, ts) / sps.eval_jacobi(k, 0.25, 0.25, 1.0)
        assert np.max(np.abs(table[k] - want)) < 1e-13


def test_jacobi_domain_guards():
    with pytest.raises(ValueError):
        jacobi_sequence(4, -0.6, 0.0)
    with pytest.raises(ValueError):
        SphereMeasure(3, ((1.5, 1.0),))  # the inner products fed to the table
    with pytest.raises(ValueError):
        jacobi_sequence(-1, 0.0, 0.0)
