"""Dense-tableau simplex and the matrix-game reduction."""

import math

import numpy as np
import pytest
from scipy.optimize import linprog

import oracles

from hoffman import (
    ConvergenceError,
    euclidean,
    simplex,
    simplex_maximize,
    solve_matrix_game,
    sphere,
)


def test_small_lp_known_optimum():
    # max x + y  s.t.  x <= 2, y <= 3, x + y <= 4
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    x, duals, value = simplex_maximize(A, np.array([2.0, 3.0, 4.0]), np.array([1.0, 1.0]))
    assert abs(value - 4.0) < 1e-12
    assert np.allclose(A @ x, np.minimum(A @ x, [2.0, 3.0, 4.0]) + 1e-12)
    # strong duality: b . duals = optimum
    assert abs(np.dot(duals, [2.0, 3.0, 4.0]) - 4.0) < 1e-12


def test_lp_rejects_negative_rhs():
    with pytest.raises(ValueError):
        simplex_maximize(np.eye(2), np.array([-1.0, 1.0]), np.ones(2))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: simplex_maximize(np.eye(2), np.ones(3), np.ones(2)), ValueError, "inconsistent"),
        (lambda: simplex_maximize(np.eye(2), np.ones(2), np.ones(3)), ValueError, "inconsistent"),
        # max x subject to -x <= 1: no row limits the entering column
        (lambda: simplex_maximize([[-1.0]], [1.0], [1.0]), ConvergenceError, "unbounded"),
        (lambda: solve_matrix_game([1.0, 2.0]), ValueError, "nonempty 2-d"),
        (lambda: solve_matrix_game(np.zeros((0, 3))), ValueError, "nonempty 2-d"),
    ],
    ids=["rows", "columns", "unbounded", "1-d-payoff", "empty-payoff"],
)
def test_malformed_or_unbounded_lp_is_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_degenerate_lp_terminates():
    # redundant constraints force degenerate pivots; Bland's rule must exit
    A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 1.0, 1.0, 1.0])
    x, _, value = simplex_maximize(A, b, np.array([1.0, 1.0]))
    assert abs(value - 1.0) < 1e-12


def test_rock_paper_scissors_value_zero():
    p = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
    value, w, _, _ = solve_matrix_game(p)
    assert abs(value) < 1e-12
    assert np.allclose(w, np.ones(3) / 3.0, atol=1e-12)


def test_two_by_two_mixed_game():
    p = np.array([[2.0, 1.0], [1.0, 2.0]])
    value, w, _, _ = solve_matrix_game(p)
    assert abs(value - 1.5) < 1e-12
    assert np.allclose(w, [0.5, 0.5], atol=1e-12)


def test_dominant_row_gets_all_weight():
    p = np.array([[1.0, 2.0], [3.0, 4.0]])
    value, w, _, _ = solve_matrix_game(p)
    assert abs(value - 3.0) < 1e-12
    assert np.allclose(w, [0.0, 1.0], atol=1e-12)


def test_game_value_certified_by_weights():
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = rng.uniform(-3.0, 3.0, size=(int(rng.integers(2, 6)), int(rng.integers(2, 9))))
        value, w, _, _ = solve_matrix_game(p)
        assert abs(np.sum(w) - 1.0) < 1e-10
        assert np.min(w) >= -1e-12
        # the value is exactly the payoff the mixture guarantees
        assert value == float(np.min(w @ p))


def test_game_determinism():
    rng = np.random.default_rng(19)
    p = rng.uniform(-1.0, 1.0, size=(4, 7))
    v1, w1, y1, u1 = solve_matrix_game(p)
    v2, w2, y2, u2 = solve_matrix_game(p)
    assert v1 == v2 and u1 == u2
    assert np.array_equal(w1, w2) and np.array_equal(y1, y2)


def test_game_value_matches_scipy_linprog():
    rng = np.random.default_rng(23)
    for _ in range(40):
        p, q = int(rng.integers(2, 12)), int(rng.integers(2, 80))
        payoff = rng.uniform(-2.0, 2.0, size=(p, q))
        value, w, _, _ = solve_matrix_game(payoff)
        # max v s.t. w @ P >= v, sum w = 1, w >= 0, over (w, v)
        res = linprog(
            np.r_[np.zeros(p), -1.0],
            A_ub=np.c_[-payoff.T, np.ones(q)],
            b_ub=np.zeros(q),
            A_eq=np.r_[np.ones(p), 0.0][None, :],
            b_eq=[1.0],
            bounds=[(0.0, None)] * p + [(None, None)],
            method="highs",
        )
        assert res.status == 0
        assert abs(value - (-res.fun)) < 1e-9
        # the returned mixture is feasible and guarantees the value
        assert np.min(w) >= -1e-12 and abs(np.sum(w) - 1.0) < 1e-12
        assert np.min(w @ payoff) >= value - 1e-9


def test_game_mixtures_bracket_the_value():
    # weak duality: the row mixture guarantees lower, the column mixture
    # concedes at most upper, and at an optimal tableau the two meet
    rng = np.random.default_rng(37)
    for _ in range(60):
        p, q = int(rng.integers(2, 12)), int(rng.integers(2, 300))
        payoff = rng.uniform(-2.0, 2.0, size=(p, q))
        lower, w, y, upper = solve_matrix_game(payoff)
        assert np.min(y) >= 0.0 and abs(np.sum(y) - 1.0) < 1e-12
        assert upper == float(np.max(payoff @ y))
        assert lower <= upper <= lower + 1e-9


# Beale (1955): Dantzig's rule with a smallest-index leaving row cycles
# through degenerate bases at the origin forever
BEALE_A = np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]])
BEALE_B = np.array([0.0, 0.0, 1.0])
BEALE_C = np.array([0.75, -20.0, 0.5, -6.0])


def test_beale_cycling_lp_ends_at_its_optimum_through_bland(monkeypatch):
    stats = {}
    x, duals, value = simplex_maximize(BEALE_A, BEALE_B, BEALE_C, stats=stats)
    assert abs(value - 1.25) < 1e-12
    assert np.allclose(x, [1.0, 0.0, 1.0, 0.0], atol=1e-12)
    assert abs(np.dot(duals, BEALE_B) - 1.25) < 1e-12
    assert stats["bland_pivots"] > 0
    ref = linprog(-BEALE_C, A_ub=BEALE_A, b_ub=BEALE_B, method="highs")
    assert abs(-ref.fun - value) < 1e-12
    # without the fallback, Dantzig's rule cycles until the 2000 (m + n)
    # pivot budget runs out
    monkeypatch.setattr(simplex, "_STALL_PIVOTS", math.inf)
    with pytest.raises(ConvergenceError, match="budget") as exc:
        simplex_maximize(BEALE_A, BEALE_B, BEALE_C)
    assert exc.value.iterations == 2000 * (3 + 4)


def test_non_finite_data_is_refused_up_front():
    A, b, c = np.eye(2), np.ones(2), np.ones(2)
    for bad in (math.nan, math.inf, -math.inf):
        for which in range(3):
            args = [A.copy(), b.copy(), c.copy()]
            args[which][0] = bad
            with pytest.raises(ValueError, match="finite"):
                simplex_maximize(*args)
        payoff = np.array([[1.0, 2.0], [3.0, bad]])
        with pytest.raises(ValueError, match="finite"):
            solve_matrix_game(payoff)


def test_cutting_planes_give_up_after_the_round_budget():
    rounds = []

    def never_certifies(value, w, y):
        rounds.append(value)
        return np.array([float(len(rounds))]), None

    with pytest.raises(ConvergenceError, match="rounds exhausted") as exc:
        simplex.cutting_planes(
            lambda xs: np.vstack([np.cos(xs), np.sin(xs)]), np.array([0.0]), never_certifies
        )
    assert len(rounds) == simplex._LP_ROUNDS == exc.value.iterations


def _optimizer_pivots(monkeypatch, optimizer, *args, **kw):
    """(payoff shape, pivots) of every game one optimizer call solves."""
    pivots = []

    def counted(payoff):
        stats = {}
        out = solve_matrix_game(payoff, stats=stats)
        pivots.append((payoff.shape, stats["pivots"]))
        return out

    monkeypatch.setattr(simplex, "solve_matrix_game", counted)
    optimizer(*args, **kw)
    return pivots


def test_radial_games_take_a_fifth_of_the_bland_pivots(monkeypatch):
    # Bland's rule alone took 145 pivots on the first 2 x 512 game of the
    # support {1, 2} and 1314 on the first 21 x 512 game of the odd shells
    # 1, 3, ..., 41 (more in later rounds, as columns are added)
    radial = euclidean.optimize_radial_measure
    small = _optimizer_pivots(monkeypatch, radial, 2, [1.0, 2.0])
    # the grid game alone: the local reduction's point is accepted by its bound U
    assert [shape for shape, _ in small] == [(2, 512)]
    assert max(k for _, k in small) <= 145 // 5
    odd = _optimizer_pivots(monkeypatch, radial, 2, [float(d) for d in range(1, 42, 2)], tol=1e-7)
    # eleven weights on one low basin: the reduction fails and Kelley's
    # rounds go on, each game with the columns of the last
    assert odd[0][0] == (21, 512) and len(odd) == 17
    assert all(a[1] < b[1] for (a, _), (b, _) in zip(odd, odd[1:]))
    assert max(k for _, k in odd) <= 1314 // 5


def _same_pivots_as_the_reference(A, b, c) -> dict:
    """The stats of simplex_maximize, after checking it against the oracle's pivots bit for bit."""
    stats = {}
    x, duals, value = simplex_maximize(A, b, c, stats=stats)
    ref_x, ref_duals, ref_value, ref_stats = oracles.simplex_maximize_pivots(A, b, c)
    assert np.array_equal(x, ref_x) and np.array_equal(duals, ref_duals)
    assert value == ref_value and stats == ref_stats
    return stats


def _game_lp(payoff):
    """solve_matrix_game's LP of a payoff: the shifted payoff, b = 1, c = 1."""
    return payoff + (1.0 - payoff.min()), np.ones(payoff.shape[0]), np.ones(payoff.shape[1])


def test_pivots_match_the_reference_on_seeded_games():
    rng = np.random.default_rng(29)
    for _ in range(40):
        p, q = int(rng.integers(2, 12)), int(rng.integers(2, 80))
        _same_pivots_as_the_reference(*_game_lp(rng.uniform(-2.0, 2.0, size=(p, q))))


def test_pivots_match_the_reference_where_blands_rule_fires():
    assert _same_pivots_as_the_reference(BEALE_A, BEALE_B, BEALE_C)["bland_pivots"] > 0
    A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    _same_pivots_as_the_reference(A, np.ones(4), np.ones(2))


def test_pivots_match_the_reference_on_tied_ratios():
    # repeated rows of a small-integer payoff tie in every ratio test whose
    # column is positive on them, so the Bland tie-break decides the row;
    # nudged by 2e-13, they tie only within the test's 1e-12
    rng = np.random.default_rng(31)
    for nudge in (0.0, 2e-13):
        for _ in range(30):
            base = rng.integers(-2, 3, size=(int(rng.integers(2, 6)), int(rng.integers(2, 12))))
            payoff = base[rng.integers(0, len(base), size=2 * len(base))].astype(float)
            payoff += nudge * rng.integers(0, 2, size=payoff.shape)
            _same_pivots_as_the_reference(*_game_lp(payoff))


@pytest.mark.parametrize("rows", [8, 12, 16])
def test_pivots_match_the_reference_on_optimize_shapes(monkeypatch, rows):
    # games of 8-16 support points by 64-512 degrees, seeded and from the
    # sphere optimizer's own rounds
    rng = np.random.default_rng(rows)
    for cols in (64, 128, 256, 512):
        _same_pivots_as_the_reference(*_game_lp(rng.uniform(-1.0, 1.0, size=(rows, cols))))
    games = []
    solve = simplex.simplex_maximize

    def recorded(A, b, c, stats=None):
        games.append((A, b, c))
        return solve(A, b, c, stats)

    monkeypatch.setattr(simplex, "simplex_maximize", recorded)
    support = -0.95 + 1.75 / rows * (np.arange(rows) + rng.uniform(0.2, 0.8, rows))
    sphere.optimize_sphere_measure(3 + rows % 5, support, K=64 * (rows // 4))
    assert games and all(A.shape[0] == rows for A, _, _ in games)
    for game in games:
        _same_pivots_as_the_reference(*game)
