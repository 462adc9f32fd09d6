"""Radial-measure bounds: profile extrema, chromatic/density bounds, LP optimizer."""

import json
import math

import numpy as np
import pytest

import hoffman.euclidean as euclidean
from hoffman.cli import run
from hoffman import (
    ConvergenceError,
    RadialMeasure,
    VacuousBoundError,
    chromatic_bound_euclidean,
    density_bound,
    fourier_radial,
    global_extrema,
    omega,
    optimize_radial_measure,
    radial_measure_from_json,
    radial_measure_to_json,
    steinhardt_measure,
    unit_distance_bound,
)

import oracles

UNIT2 = RadialMeasure(2, ((1.0, 1.0),))
UNIT3 = RadialMeasure(3, ((1.0, 1.0),))

# derived once by the independent series/bisection oracles (see oracles.py)
J11 = 3.8317059702075125
J0_MIN = -0.4027593957025531
SINC_ARG = 4.493409457909064
SINC_MIN = -0.21723362821122166


def test_oracle_constants_rederive():
    assert abs(oracles.bessel_first_zero_series(1.0, 3.0, 4.5) - J11) < 1e-11
    assert abs(oracles.bessel_series(0.0, J11) - J0_MIN) < 1e-12
    assert abs(oracles.tan_x_equals_x_root() - SINC_ARG) < 1e-11
    assert abs(math.sin(SINC_ARG) / SINC_ARG - SINC_MIN) < 1e-14


def test_measure_validation():
    with pytest.raises(ValueError):
        RadialMeasure(2, ((0.0, 1.0),))
    with pytest.raises(ValueError):
        RadialMeasure(2, ((2.0, 1.0), (1.0, 1.0)))
    with pytest.raises(ValueError):
        RadialMeasure(2, ((1.0, 1.0), (1.0, 0.5)))
    with pytest.raises(ValueError):
        RadialMeasure(0, ((1.0, 1.0),))


def test_measure_json_round_trip():
    mu = RadialMeasure(3, ((1.0, 0.25), (2.5, -0.5)))
    assert radial_measure_from_json(radial_measure_to_json(mu)) == mu
    text = json.dumps(radial_measure_to_json(mu))
    assert radial_measure_from_json(json.loads(text)) == mu
    for bad in [{"dim": 2}, {"dim": 2, "atoms": [[1.0]]}, {"dim": 2, "atoms": 3, "x": 1}]:
        with pytest.raises(ValueError):
            radial_measure_from_json(bad)


def test_fourier_radial_examples():
    assert fourier_radial(UNIT2, 0.0) == 1.0
    assert abs(fourier_radial(UNIT3, math.pi)) < 1e-14  # sinc at pi
    two = RadialMeasure(2, ((1.0, 0.5), (2.0, 0.5)))
    assert abs(fourier_radial(two, 0.0) - 1.0) < 1e-15
    grid = fourier_radial(UNIT3, np.array([1.0, 2.0]))
    assert np.allclose(grid, [math.sin(1.0), math.sin(2.0) / 2.0], atol=1e-13)


def test_global_extrema_unit_shells():
    e2 = global_extrema(UNIT2)
    assert abs(e2.inf_value - J0_MIN) < 1e-10
    assert abs(e2.inf_arg - J11) < 1e-6
    assert abs(e2.sup_value - 1.0) < 1e-12
    e3 = global_extrema(UNIT3)
    assert abs(e3.inf_value - SINC_MIN) < 1e-10
    assert abs(e3.inf_arg - SINC_ARG) < 1e-6


def test_extrema_report_invariants():
    rng = np.random.default_rng(7)
    for _ in range(5):
        radii = np.sort(rng.uniform(0.5, 4.0, 3))
        weights = rng.uniform(0.05, 1.0, 3)
        mu = RadialMeasure(2, tuple(zip(radii, weights)))
        ext = global_extrema(mu)
        nu0 = fourier_radial(mu, 0.0)
        assert ext.inf_value <= nu0 <= ext.sup_value
        assert 0.0 <= ext.inf_arg <= ext.cutoff
        assert ext.grid_points > 0


def test_zero_measure_extrema():
    ext = global_extrema(RadialMeasure(2, ((1.0, 0.0),)))
    assert ext.inf_value == ext.sup_value == 0.0


def test_extrema_tol_guard():
    with pytest.raises(ValueError):
        global_extrema(UNIT2, tol=1e-13)


def test_dimension_one_profile_is_cosine():
    ext = global_extrema(RadialMeasure(1, ((1.0, 1.0),)))
    assert abs(ext.inf_value + 1.0) < 1e-12
    assert abs(ext.inf_arg - math.pi) < 1e-7
    # two commensurable pair distances: exact minimum of (cos r + cos 2r)/2 is -9/16
    ext2 = global_extrema(RadialMeasure(1, ((1.0, 0.5), (2.0, 0.5))))
    assert abs(ext2.inf_value + 9.0 / 16.0) < 1e-12


def test_chromatic_bound_unit_shells():
    r2 = chromatic_bound_euclidean(UNIT2)
    assert abs(r2.value - (1.0 - J0_MIN) / (-J0_MIN)) < 1e-9
    r3 = chromatic_bound_euclidean(UNIT3)
    assert abs(r3.value - (1.0 - SINC_MIN) / (-SINC_MIN)) < 1e-9
    assert abs(r2.value - (r2.M - r2.m) / (-r2.m)) < 1e-12


def test_chromatic_bound_weight_scale_invariance():
    scaled = RadialMeasure(2, ((1.0, 7.5),))
    assert abs(chromatic_bound_euclidean(scaled).value - chromatic_bound_euclidean(UNIT2).value) < 1e-9


def test_chromatic_bound_radius_scale_invariance():
    for c in [0.5, 3.0]:
        mu = RadialMeasure(2, ((1.0 * c, 0.5), (2.0 * c, 0.5)))
        base = RadialMeasure(2, ((1.0, 0.5), (2.0, 0.5)))
        assert abs(
            chromatic_bound_euclidean(mu).value - chromatic_bound_euclidean(base).value
        ) < 1e-9


def test_density_bound_values_and_duality():
    d2 = density_bound(UNIT2)
    assert abs(d2.value - (-J0_MIN) / (1.0 - J0_MIN)) < 1e-9
    assert d2.R == 1.0 and d2.epsilon == 0.0
    # chromatic x density = 1 for nonnegative measures (sup = mass)
    rng = np.random.default_rng(21)
    for _ in range(5):
        radii = np.sort(rng.uniform(0.5, 3.0, 2))
        weights = rng.uniform(0.1, 1.0, 2)
        mu = RadialMeasure(3, tuple(zip(radii, weights)))
        prod = chromatic_bound_euclidean(mu).value * density_bound(mu).value
        assert abs(prod - 1.0) < 1e-9


def test_density_bound_rejects_signed_and_zero():
    with pytest.raises(ValueError):
        density_bound(RadialMeasure(2, ((1.0, -0.1), (2.0, 1.0))))
    with pytest.raises(VacuousBoundError):
        density_bound(RadialMeasure(2, ((1.0, 0.0),)))


def test_steinhardt_atoms():
    mu = steinhardt_measure(2.0, 0)
    assert mu.atoms == ((1.0, 0.5),)
    assert fourier_radial(mu, 0.0) == 0.5
    m20 = steinhardt_measure(2.0, 20)
    assert abs(m20.total_mass() - (1.0 - 2.0**-21)) < 1e-15
    assert m20.atoms[3][0] == 7.0
    with pytest.raises(ValueError):
        steinhardt_measure(1.0, 5)
    with pytest.raises(ValueError):
        steinhardt_measure(11.0, 5)
    with pytest.raises(ValueError):
        steinhardt_measure(2.0, -1)


def test_steinhardt_divergence_ordering():
    slow = chromatic_bound_euclidean(steinhardt_measure(1.05, 200)).value
    fast = chromatic_bound_euclidean(steinhardt_measure(1.3, 20)).value
    assert slow > fast


def test_unit_distance_bound_examples():
    chi2, alpha2 = unit_distance_bound(2)
    assert abs(chi2.value - 3.482871934633955) < 1e-9
    assert abs(alpha2.value - 0.28711937124529924) < 1e-9
    chi3, alpha3 = unit_distance_bound(3)
    assert abs(chi3.value - 5.603338848751701) < 1e-9
    assert abs(alpha3.value - 0.17846502362118918) < 1e-9
    for n in range(2, 33):
        chi, alpha = unit_distance_bound(n)
        assert abs(chi.value * alpha.value - 1.0) < 1e-9
    with pytest.raises(ValueError):
        unit_distance_bound(1)


def test_unit_distance_matches_scan():
    chi, alpha = unit_distance_bound(2)
    assert abs(chi.value - chromatic_bound_euclidean(UNIT2).value) < 1e-9
    assert abs(alpha.value - density_bound(UNIT2).value) < 1e-9


def test_optimizer_single_shell_matches_closed_form():
    mu, rep = optimize_radial_measure(2, [1.0])
    assert mu.atoms == ((1.0, 1.0),)
    assert abs(rep.value - unit_distance_bound(2)[0].value) < 1e-6


def test_optimizer_monotone_in_support():
    _, r1 = optimize_radial_measure(2, [1.0])
    _, r2 = optimize_radial_measure(2, [1.0, 2.0])
    assert r2.value >= r1.value - 1e-9


def test_optimizer_odd_distances_beat_single_shell():
    # all single shells tie by scale invariance, so any strict gain is real
    odd = list(range(1, 42, 2))
    _, rep = optimize_radial_measure(2, [float(d) for d in odd], tol=1e-7)
    single = unit_distance_bound(2)[0].value
    assert rep.value > single + 0.5


def test_optimizer_cutting_plane_soundness():
    mu, rep = optimize_radial_measure(3, [1.0, 1.8, 2.6])
    ext = global_extrema(mu)
    fine = fourier_radial(mu, np.linspace(0.0, ext.cutoff, 5120))
    assert float(np.min(fine)) >= rep.m - 10.0 * 1e-8
    # reported value reproduces from the certified extrema of the measure
    assert abs(rep.value - (ext.sup_value - ext.inf_value) / (-ext.inf_value)) < 1e-9


def test_optimizer_deterministic_and_validated():
    a = optimize_radial_measure(2, [1.0, 2.0])
    b = optimize_radial_measure(2, [1.0, 2.0])
    assert a[0] == b[0] and a[1].value == b[1].value
    with pytest.raises(ValueError):
        optimize_radial_measure(2, [])
    with pytest.raises(ValueError):
        optimize_radial_measure(2, [1.0, 1.0])
    with pytest.raises(ValueError):
        optimize_radial_measure(1, [1.0])


def _golden_reference(f, lo, hi, sign):
    """Scalar golden-section search minimizing sign * f on [lo, hi]."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = sign * f(c), sign * f(d)
    for _ in range(euclidean._REFINE_ITERS):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = sign * f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = sign * f(d)
    return (c, sign * fc) if fc < fd else (d, sign * fd)


def _scalar_refine(f, lo, hi, sign):
    pairs = [
        _golden_reference(lambda x: float(f(np.array([x]))[0]), a, b, s)
        for a, b, s in zip(lo, hi, sign)
    ]
    return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


def test_batched_refinement_matches_scalar_golden_section(monkeypatch):
    rng = np.random.default_rng(20261018)
    measures = []
    for i in range(20):
        k = int(rng.integers(1, 7))
        radii = np.sort(rng.choice(np.arange(1, 60), size=k, replace=False)) / 20.0
        weights = rng.uniform(0.05, 1.0, k)
        if i % 2:
            weights[rng.choice(k, size=max(1, k // 2), replace=False)] *= -1.0
        measures.append(
            RadialMeasure(int(rng.integers(2, 7)), tuple(zip(radii, weights)))
        )
    batched = [global_extrema(mu) for mu in measures]
    monkeypatch.setattr(euclidean, "_refine", _scalar_refine)
    for mu, fast in zip(measures, batched):
        ref = global_extrema(mu)
        assert abs(fast.inf_value - ref.inf_value) <= 1e-12
        assert abs(fast.sup_value - ref.sup_value) <= 1e-12


def test_blocked_fourier_radial_matches_per_atom_loop():
    mu = steinhardt_measure(1.1, 40)
    grid = np.linspace(0.0, 16.4, 20_000)
    assert grid.size * len(mu.atoms) > 10 * euclidean._BLOCK_ELEMENTS
    expected = np.zeros_like(grid)
    for d, w in mu.atoms:
        expected += w * omega(2, d * grid)
    # same summation order; omega's series stops once every element of a call
    # has converged, so a block may add vanishing terms that move a last bit
    assert np.max(np.abs(fourier_radial(mu, grid) - expected)) < 1e-13


@pytest.mark.parametrize(
    "measure, argv",
    [
        ({"dim": 3, "atoms": [[1.0, 0.4], [1.7, 0.6]]}, ["euclidean"]),
        ({"dim": 2, "atoms": [[1.0, 1.0], [2.0, -0.2]]}, ["euclidean"]),
        (None, ["odd-distance", "--beta", "1.3", "-N", "4"]),
    ],
)
def test_cli_runs_one_extrema_pass_per_request(
    measure, argv, monkeypatch, tmp_path, capsys
):
    if measure is not None:
        path = tmp_path / "measure.json"
        path.write_text(json.dumps(measure))
        argv = argv + [str(path)]
    calls = []
    inner = euclidean._refined_extrema

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(euclidean, "_refined_extrema", counted)
    assert run(argv) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "ok"
