"""Bessel functions, their zeros, the radial profile Omega_n, Jacobi polynomials."""

import itertools
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
    specfun,
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
    # one order per call: an array of orders is refused, even of valid ones
    for orders in (np.array([0.0, 2.5]), [1.0], np.array([[3.0]])):
        with pytest.raises(ValueError, match=r"order must be a scalar in \[0, 60\], got"):
            bessel_j(orders, [1.0, 2.0])
    assert bessel_j(np.float64(2.5), 3.0) == bessel_j(2.5, 3.0)
    for bad in (-0.1, 1.5e6, math.nan, math.inf, [1.0, math.nan]):
        with pytest.raises(ValueError, match="argument must be finite and lie in"):
            bessel_j(1.0, bad)
    # the first zero has no order check of its own: bessel_j refuses it
    for order in (61, -1, math.nan):
        with pytest.raises(ValueError, match=r"order must be a scalar in \[0, 60\]"):
            bessel_first_zero(order)


def test_first_zero_examples():
    assert abs(bessel_first_zero(1.0) - 3.8317059702075125) < 1e-10
    assert abs(bessel_first_zero(0.5) - math.pi) < 1e-10
    # order 3/2: first positive root of tan x = x, by an independent bisection
    assert abs(bessel_first_zero(1.5) - oracles.tan_x_equals_x_root()) < 1e-10


def test_first_zeros_against_scipy():
    for order in range(0, 8):
        want = float(sps.jn_zeros(order, 1)[0])
        assert abs(bessel_first_zero(float(order)) - want) < 1e-10


def test_first_zeros_against_mpmath_for_every_order_the_package_uses():
    # radial_range and unit_distance_range ask for the orders n/2 with
    # n = 2..32; here 0, 1/2, ..., 16.  The bisection stops once its bracket
    # is at most _ZERO_TOL max(1, mid) wide and returns the midpoint, so it
    # lies within half that of a sign change of the computed J_nu, and with
    # |bessel_j - J_nu| <= _OMEGA_ABS_ERR that sign change lies within
    # _OMEGA_ABS_ERR / |J_nu'(j)| of the zero j, to first order in the error
    for nu in [0.5 * i for i in range(33)]:
        j, slope = oracles.bessel_first_zero_mpmath(nu)
        bound = 0.5 * specfun._ZERO_TOL * max(1.0, j) + specfun._OMEGA_ABS_ERR / slope
        assert abs(bessel_first_zero(nu) - j) <= bound, nu


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
    # a tuple of dimensions is checked element by element
    for n in (0, (2, 67), (0, 3)):
        with pytest.raises(ValueError):
            omega(n, 1.0)
    for bad in (-1.0, 1.5e6, math.nan, -math.inf, [0.0, math.inf]):
        with pytest.raises(ValueError, match="argument must be finite and lie in"):
            omega(2, bad)


def test_omega_refuses_non_integral_dimension():
    # int() used to truncate: 2.7 gave the n = 2 profile and True gave cos
    for n in (2.7, 2.0, True, "3", None, (2, 2.5)):
        with pytest.raises(ValueError):
            omega(n, 1.0)
    assert omega(np.int64(3), math.pi / 2.0) == omega(3, math.pi / 2.0)


# ------------------------------------------ table kernels vs term-by-term loops
# The term-by-term loops that specfun's tables replaced, kept here as
# references: every table kernel must agree with its loop within the error
# budget _OMEGA_ABS_ERR.  The tables may add terms below 1e-17 that a loop
# leaves out and sum in another rounding, so the bits may differ.

_BUDGET = specfun._OMEGA_ABS_ERR


def _ascending_loop(nu, x):
    term = np.ones_like(x)
    total = term.copy()
    q = 0.25 * x * x
    for m in range(700):
        term *= -q / ((m + 1.0) * (nu + m + 1.0))
        total += term
        if np.all(np.abs(term) <= 1e-17 * (1.0 + np.abs(total))):
            return total
    raise AssertionError("reference series did not converge")


def _asymptotic_loop(nu, x):
    mu = 4.0 * nu * nu
    p_sum = np.ones_like(x)
    q_sum = np.zeros_like(x)
    term = np.ones_like(x)
    prev_mag = np.full_like(x, np.inf)
    frozen = np.zeros(x.shape, dtype=bool)
    for k in range(40):
        term = term * (mu - (2.0 * k + 1.0) ** 2) / (8.0 * x * (k + 1.0))
        mag = np.abs(term)
        frozen |= mag >= prev_mag
        live = ~frozen
        j = k + 1
        sign = -1.0 if (j // 2) % 2 else 1.0
        if j % 2:
            q_sum[live] += sign * term[live]
        else:
            p_sum[live] += sign * term[live]
        frozen |= mag < 1e-17
        if np.all(frozen):
            break
        prev_mag = mag
    phase = x - (0.5 * nu + 0.25) * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (p_sum * np.cos(phase) - q_sum * np.sin(phase))


# The degree-by-degree form of jacobi_sequence: one vectorized step over all
# points per degree k.  The per-point recurrence must give the same bits.
def _jacobi_loop_reference(kmax, alpha, t):
    t = np.atleast_1d(np.asarray(t, dtype=float))
    vals = np.empty((kmax + 1, t.size))
    vals[0] = 1.0
    if kmax >= 1:
        vals[1] = t
    two_alpha = 2.0 * alpha
    for k in range(2, kmax + 1):
        vals[k] = ((2.0 * k + two_alpha - 1.0) * t * vals[k - 1] - (k - 1.0) * vals[k - 2]) / (
            k + two_alpha
        )
    return vals


# up to 256 elements a table takes all 64 series or 40 Hankel terms in one
# accumulation; a wider one counts its terms and runs row by row, one table
# per 1024 arguments
_KERNEL_SIZES = (1, 7, 256, 257, 1024, 1025, 5000, 1 << 14)


def _ulps_around(x, count):
    """The doubles within count ulps of x, x included."""
    return (np.float64(x).view(np.int64) + np.arange(-count, count + 1)).view(np.float64)


def test_regime_map_limits_are_where_the_gates_stop_passing():
    # the bisection's invariant at the series limit: the gate passes at x_S
    # and fails one double up; Hankel's edge is the rule's, and omega and
    # bessel_j read the same map
    others = np.random.default_rng(108).uniform(0.0, 60.0, 8).tolist()
    for nu in [0.5 * i for i in range(121)] + others:
        (x_s, x_h), lg = specfun._regime_map(nu)
        assert lg == math.lgamma(nu + 1.0)
        log_max = specfun._series_log_maxterm
        assert 14.1 < x_s < 50.0, nu  # the recurrence's Hankel sums need x > 13
        assert log_max(nu, x_s) <= specfun._LOG_SERIES_GATE, nu
        assert specfun._LOG_SERIES_GATE < log_max(nu, np.nextafter(x_s, math.inf)), nu
        assert x_h == max(x_s, 13.0, 0.8 * nu * nu), nu


def test_omega_agrees_with_mpmath_around_every_regime_limit():
    # two ulps on each side of both edges of every order's map, for omega in
    # every dimension with a map (n = 1 is cos) and for bessel_j on the same
    # orders; the map from the bisection leaves no ragged stretch to the
    # gate formula, and the kernels on both sides of an edge keep the budget
    worst = 0.0
    for n in range(2, 67):
        nu = 0.5 * n - 1.0
        edges, _ = specfun._regime_map(nu)
        x = np.concatenate([_ulps_around(e, 2) for e in sorted(set(edges))])
        want = np.array([oracles.omega_mpmath(n, v) for v in x.tolist()])
        worst = max(worst, float(np.max(np.abs(omega(n, x) - want))))
        want = np.array([oracles.bessel_j_mpmath(nu, v) for v in x.tolist()])
        worst = max(worst, float(np.max(np.abs(bessel_j(nu, x) - want))))
    assert worst <= _BUDGET


def test_omega_within_its_error_budget_against_mpmath():
    # _OMEGA_ABS_ERR was measured on seeded arguments in every regime of every
    # dimension; fresh seeds here, three arguments per regime and dimension,
    # the last regime's on a log scale out to 1e6
    rng = np.random.default_rng(2406)
    worst = 0.0
    for n in range(1, 67):
        edges = (0.0,) + (specfun._regime_map(0.5 * n - 1.0)[0] if n > 1 else ())
        spans = [(a, b) for a, b in zip(edges, edges[1:]) if b > a]
        x = np.concatenate(
            [rng.uniform(a, b, 3) for a, b in spans]
            + [np.exp(rng.uniform(math.log(max(edges[-1], 1.0)), math.log(1e6), 3))]
        )
        want = np.array([oracles.omega_mpmath(n, v) for v in x.tolist()])
        worst = max(worst, float(np.max(np.abs(omega(n, x) - want))))
    assert worst <= _BUDGET


def test_bessel_within_its_stated_error_against_mpmath():
    # bessel_j's budget is _OMEGA_ABS_ERR; fresh seeded arguments, four per
    # regime of bessel_j's map for each order 0 to 60 in steps of 1.5,
    # Hankel's on a log scale out to 1e6
    rng = np.random.default_rng(2507)
    worst = 0.0
    for nu in [1.5 * i for i in range(41)]:
        edges, _ = specfun._regime_map(nu)
        bounds = [0.0, *edges]
        spans = [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]
        x = np.concatenate(
            [rng.uniform(a, b, 4) for a, b in spans]
            + [np.exp(rng.uniform(math.log(edges[-1]), math.log(1e6), 4))]
        )
        want = np.array([oracles.bessel_j_mpmath(nu, v) for v in x.tolist()])
        worst = max(worst, float(np.max(np.abs(bessel_j(nu, x) - want))))
    assert worst <= _BUDGET


def test_bessel_past_the_turning_point_against_mpmath():
    # from order 28 on, x_S < nu, and the middle band's recurrence runs past
    # its turning point for the arguments in (x_S, nu); fresh seeded
    # arguments there, for J_nu and for omega on the same orders
    assert specfun._regime_map(27.5)[0][0] > 27.5
    rng = np.random.default_rng(3101)
    worst = 0.0
    for nu in [0.5 * i for i in range(56, 121)]:
        (x_s, _), _ = specfun._regime_map(nu)
        assert x_s < nu, nu
        x = rng.uniform(x_s, nu, 6)
        want = np.array([oracles.bessel_j_mpmath(nu, v) for v in x.tolist()])
        worst = max(worst, float(np.max(np.abs(bessel_j(nu, x) - want))))
        if nu <= 32.0:  # an order of omega's, n = 2 nu + 2 <= 66
            n = int(2.0 * nu) + 2
            want = np.array([oracles.omega_mpmath(n, v) for v in x.tolist()])
            worst = max(worst, float(np.max(np.abs(omega(n, x) - want))))
    assert worst <= _BUDGET


def test_omega_sends_each_element_to_one_kernel(monkeypatch):
    # each element of one omega call, and of one bessel_j call, reaches
    # exactly the kernel its order's map names, through no gate formula and
    # (for omega) not through bessel_j: the series, the upward recurrence or
    # Hankel; the two Hankel sums the recurrence starts from are counted on
    # their own, twice per element of the recurrence.  122 elements per omega
    # call, and 602 for the sorted dispatch of wider calls
    rng = np.random.default_rng(107)
    narrow = np.concatenate([[0.0], np.sort(np.exp(rng.uniform(-4.0, 7.5, 60)))])
    wide = np.concatenate([[0.0], np.exp(rng.uniform(-4.0, 7.5, 300))])
    first = {(n, t.size): omega((n, n + 2), t) for n in range(1, 65) for t in (narrow, wide)}
    seen, nested, inside = [], [], []

    def counting(name, fn):
        def counted(x, nu):
            (nested if inside else seen).extend((name, v) for v in x.tolist())
            inside.append(name)
            try:
                return fn(x, nu)
            finally:
                inside.pop()

        return counted

    def refuse(*args):
        raise AssertionError("omega went through a gate formula or bessel_j")

    def dispatched(edges, t):
        regime = np.searchsorted(edges, t)
        return [(kernels[r], v) for r, v in zip(regime.tolist(), t.tolist())]

    def starts():  # the recurrence's two Hankel sums per element
        return [("_hankel_table", v) for name, v in seen if name == "_upward_table"] * 2

    kernels = ("_series_table", "_upward_table", "_hankel_table")
    for name in kernels:
        monkeypatch.setattr(specfun, name, counting(name, getattr(specfun, name)))
    monkeypatch.setattr(specfun, "_series_log_maxterm", refuse)
    monkeypatch.setattr(specfun, "bessel_j", refuse)
    ran = set()
    for n, t in itertools.product(range(1, 65), (narrow, wide)):
        seen.clear()
        nested.clear()
        assert np.array_equal(omega((n, n + 2), t), first[n, t.size]), n
        want = []
        for k in (n, n + 2):
            if k > 1:
                want += dispatched(specfun._regime_map(0.5 * k - 1.0)[0], t)
        assert sorted(seen) == sorted(want), (n, t.size)
        assert sorted(nested) == sorted(starts()), (n, t.size)
        ran |= {name for name, _ in seen}
        if n in (1, 16, 33, 64):  # bessel_j on the order of n + 2, n/2
            seen.clear()
            nested.clear()
            bessel_j(0.5 * n, t)  # the package's name; specfun's refuses
            assert sorted(seen) == sorted(dispatched(specfun._regime_map(0.5 * n)[0], t)), n
            assert sorted(nested) == sorted(starts()), n
    assert ran == set(kernels)


def test_row_sum_adds_rows_in_order_at_every_width():
    # _row_sum leans on numpy's reduce adding the rows of two or more columns
    # in order; a lone column, which reduce adds pairwise, it accumulates
    rng = np.random.default_rng(30)
    pairwise_differs = False
    for cols in range(1, 301):
        rows = int(rng.integers(1, 70))
        for layout in ("contiguous", "strided"):
            table = rng.standard_normal((2 * rows, cols)) * 10.0 ** rng.integers(-6, 7, (2 * rows, 1))
            table = table[:rows].copy() if layout == "contiguous" else table[0::2]
            want = table[0].tolist()
            for row in table[1:].tolist():
                want = [a + b for a, b in zip(want, row)]
            if cols == 1:
                pairwise_differs |= float(np.add.reduce(table, axis=0)[0]) != want[0]
            assert specfun._row_sum(table).tolist() == want, (cols, rows, layout)
    assert pairwise_differs


def test_ascending_series_table_matches_loop():
    rng = np.random.default_rng(102)
    for n in range(2, 67):
        nu = 0.5 * n - 1.0
        for size in _KERNEL_SIZES if n in (2, 3, 34, 66) else (1, 7, 1000):
            x = rng.uniform(0.0, 12.0 + 0.3 * n, size)
            got = specfun._in_blocks(specfun._series_table, x, nu)
            assert np.max(np.abs(got - _ascending_loop(nu, x))) <= _BUDGET, (n, size)


def test_hankel_table_matches_loop():
    rng = np.random.default_rng(103)
    for n in range(2, 67):
        nu = 0.5 * n - 1.0
        lo = max(13.0, 0.8 * nu * nu)
        for size in _KERNEL_SIZES if n in (2, 3, 34, 66) else (1, 7, 1000):
            # near the regime edge the expansion needs all 40 terms
            x = lo * np.exp(rng.uniform(0.0, 4.0, size))
            got = specfun._in_blocks(specfun._hankel_table, x, nu)
            err = np.max(np.abs(got - _asymptotic_loop(nu, x)))
            assert err <= _BUDGET, (n, size)
            # and the table drops the terms the loop drops: keeping diverging
            # terms up to |ratio| < 4 moves values by 4e-12, inside the budget
            assert err <= 1e-15, (n, size)


def test_omega_and_bessel_match_loop_kernels_in_every_regime(monkeypatch):
    rng = np.random.default_rng(104)
    # series, recurrence and Hankel arguments for every order
    t = np.concatenate([[0.0], np.sort(np.exp(rng.uniform(-4.0, 7.5, 600)))])
    block = rng.uniform(0.0, 60.0, (8, 1 << 11))
    table = {}
    for n in range(1, 67):
        cases = [t, block] if n in (2, 3, 6, 34, 66) else [t]
        table[n] = [(omega(n, a), bessel_j(0.5 * n - 1.0, a) if n > 1 else None) for a in cases]
    # the references: the term-by-term loops in place of the tables, on the
    # same regime maps
    monkeypatch.setattr(specfun, "_series_table", lambda x, nu: _ascending_loop(nu, x))
    monkeypatch.setattr(specfun, "_hankel_table", lambda x, nu: _asymptotic_loop(nu, x))
    for n, got in table.items():
        cases = [t, block] if n in (2, 3, 6, 34, 66) else [t]
        for a, (o, j) in zip(cases, got):
            assert np.max(np.abs(o - omega(n, a))) <= _BUDGET, n
            if j is not None:
                assert np.max(np.abs(j - bessel_j(0.5 * n - 1.0, a))) <= _BUDGET, n


def test_kernels_take_one_order_per_element():
    # the order-array kernels against the loops, which broadcast an order
    # array elementwise; every element carries its own order
    rng = np.random.default_rng(105)
    for size in (1, 7, 1000, 5000):
        nu = 0.5 * rng.integers(0, 66, size)
        x = rng.uniform(0.0, 14.0, size)
        got = specfun._in_blocks(specfun._series_table, x, nu)
        assert np.max(np.abs(got - _ascending_loop(nu, x))) <= _BUDGET
        x = np.maximum(13.0, 0.8 * nu * nu) * np.exp(rng.uniform(0.0, 4.0, size))
        got = specfun._in_blocks(specfun._hankel_table, x, nu)
        assert np.max(np.abs(got - _asymptotic_loop(nu, x))) <= _BUDGET


def test_fused_omega_matches_separate_calls(monkeypatch):
    # one pass for Omega_n and Omega_{n+2}, as the Newton jet asks, against
    # two calls, with arguments in the series, recurrence and Hankel regimes
    ran = {"upward": 0, "hankel": 0}

    def counting(name, fn):
        def counted(*args):
            ran[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(specfun, "_upward_table", counting("upward", specfun._upward_table))
    monkeypatch.setattr(specfun, "_hankel_table", counting("hankel", specfun._hankel_table))
    rng = np.random.default_rng(106)
    for n in range(1, 65):
        hankel = max(13.0, 0.2 * (n + 2) ** 2)  # 0.8 nu^2 for the order of n + 2
        t = np.concatenate(
            [
                [0.0],
                rng.uniform(0.0, 2.0, 29),
                rng.uniform(2.0, hankel, 100),
                hankel * np.exp(rng.uniform(0.0, 2.0, 40)),
            ]
        )
        shapes = (t, t.reshape(10, 17)) if n in (1, 2, 33, 64) else (t,)
        for args in shapes + (0.0, float(t[-1])):
            both = omega((n, n + 2), args)
            assert both.shape == (2,) + np.shape(args)
            assert np.max(np.abs(both[0] - omega(n, args))) <= 1e-15, n
            assert np.max(np.abs(both[1] - omega(n + 2, args))) <= 1e-15, n
        assert omega((n, n + 2), 0.0).tolist() == [1.0, 1.0]
    assert ran["upward"] and ran["hankel"]


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


def test_jacobi_table_matches_degree_loop_bit_for_bit():
    rng = np.random.default_rng(13)
    ends = [-1.0, 0.0, 0.999]
    point_sets = [np.array([])] + [np.array([v]) for v in ends]
    point_sets.append(np.array(ends + [-0.41]))
    point_sets.append(np.concatenate([ends, rng.uniform(-1.0, 1.0, 13)]))
    point_sets.append(np.concatenate([ends, rng.uniform(-1.0, 1.0, 37)]))
    for alpha in [-0.5, 0.0, 0.5, 1.0, 2.5, 30.5]:
        for kmax in [0, 1, 2, 64, 1024]:
            for t in point_sets:
                got = jacobi_sequence(kmax, alpha, t)
                assert got.shape == (kmax + 1, t.size) and got.flags.c_contiguous
                assert np.array_equal(got, _jacobi_loop_reference(kmax, alpha, t)), (
                    alpha,
                    kmax,
                    t.size,
                )
        assert np.array_equal(
            jacobi_sequence(64, alpha, 0.3), _jacobi_loop_reference(64, alpha, 0.3)
        )


def test_jacobi_domain_guards():
    with pytest.raises(ValueError):
        jacobi_sequence(4, -0.6, 0.0)
    with pytest.raises(ValueError):
        jacobi_sequence(4, math.inf, 0.0)
    with pytest.raises(ValueError):
        SphereMeasure(3, ((1.5, 1.0),))  # the inner products fed to the table
    with pytest.raises(ValueError):
        jacobi_sequence(-1, 0.0, 0.0)
    # the degree count is refused, not truncated, like every count
    for kmax in [True, False, 2.0, 3.5, "3"]:
        with pytest.raises(ValueError, match="kmax must be an integer"):
            jacobi_sequence(kmax, 0.0, 0.3)
    assert jacobi_sequence(np.int64(3), 0.0, 0.3).shape == (4, 1)
    for t in [math.nan, [0.2, math.inf], np.array([-math.inf]), [0.1, math.nan]]:
        with pytest.raises(ValueError, match="finite"):
            jacobi_sequence(3, 0.5, t)
    for kmax in [0, 3]:
        with pytest.raises(ValueError, match="1-D"):
            jacobi_sequence(kmax, 0.5, np.zeros((2, 2)))
    # any finite t is a point of the recurrence, |t| > 1 included
    t = np.array([-2.5, 1.5, 40.0])
    assert np.array_equal(jacobi_sequence(5, 1.0, t), _jacobi_loop_reference(5, 1.0, t))
    assert jacobi_sequence(2, 0.0, 1.5)[2, 0] == 2.875  # Legendre (3t^2 - 1)/2
