"""End-to-end tests of the command-line interface.

Every happy path is validated against the declared output schema, exit codes
follow the 0 / 2 (vacuous) / 1 (input error) contract, and identical
invocations must produce byte-identical output.
"""

import ast
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hoffman.cli
import hoffman.graphs
from hoffman import specfun, sphere
from hoffman.cli import OUTPUT_SCHEMA, _json, run
from hoffman.euclidean import (
    RadialMeasure,
    optimize_radial_measure,
    radial_measure_from_json,
    radial_range,
    steinhardt_measure,
    unit_distance_range,
)
from hoffman.graphs import read_graph, spectral_range
from hoffman.reports import BoundReport
from hoffman.sphere import (
    SphereMeasure,
    eigenvalue_sequence,
    operator_range,
    optimize_sphere_measure,
)

import oracles

C5_TEXT = "0 1\n1 2\n2 3\n3 4\n4 0\n"
# a signed plane measure whose scan takes the growth step (CI runs it too)
_SIX_ATOMS_N2 = [[1.05, -0.23], [1.2, 0.22], [1.35, -0.11], [1.5, 0.24], [1.7, 0.07], [1.9, 0.13]]
EDGELESS_TEXT = "p edge 3 0\n"


def _payload(capsys):
    out = capsys.readouterr().out
    obj = json.loads(out)
    jsonschema.validate(obj, OUTPUT_SCHEMA)
    return obj


@pytest.fixture()
def c5_path(tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text(C5_TEXT)
    return str(path)


def test_no_subcommand_is_an_input_error(capsys):
    assert run([]) == 1
    assert "subcommand" in capsys.readouterr().err


def test_unknown_subcommand_is_an_input_error(capsys):
    assert run(["frobnicate"]) == 1
    assert capsys.readouterr().err.startswith("hoffman:")


def test_finite_bounds_for_cycle(capsys, c5_path):
    assert run(["finite", c5_path]) == 0
    obj = _payload(capsys)
    assert obj["status"] == "ok" and obj["command"] == "finite"
    assert obj["graph"]["vertices"] == 5 and obj["graph"]["edges"] == 5
    assert abs(obj["bounds"]["chi_lb"]["value"] - math.sqrt(5.0)) < 1e-9
    assert abs(obj["bounds"]["alpha_ratio_ub"]["value"] - 1.0 / math.sqrt(5.0)) < 1e-9
    assert obj["bounds"]["chi_frac_lb"]["kind"] == "chi_frac_lb"


def test_finite_vacuous_graph_exits_2(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text(EDGELESS_TEXT)
    assert run(["finite", str(path)]) == 2
    obj = _payload(capsys)
    assert obj["status"] == "vacuous" and "detail" in obj


def test_finite_omits_an_inapplicable_ratio_bound(capsys, tmp_path):
    # K10 plus 90 isolated vertices: R - m - eps = 0.9 + 1 - 2.7 < 0
    path = tmp_path / "k10.txt"
    edges = [f"e {u} {v}" for u in range(1, 11) for v in range(u + 1, 11)]
    path.write_text("\n".join(["p edge 100 45", *edges]) + "\n")
    assert run(["finite", str(path)]) == 0
    bounds = _payload(capsys)["bounds"]
    assert "alpha_ratio_ub" not in bounds
    assert bounds["chi_lb"]["value"] == 10.0
    assert bounds["chi_frac_lb"]["value"] == 1.9


def test_finite_missing_file_exits_1(capsys, tmp_path):
    assert run(["finite", str(tmp_path / "nope.txt")]) == 1
    assert capsys.readouterr().err


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("finite", b"\xff\xfe0 1\n", "not UTF-8 text"),
        ("euclidean", b'{"dim": 2, "atoms": [[1.0, 1.0]]}\xff', "not UTF-8 text"),
        ("sphere", b"\xff", "not UTF-8 text"),
        ("euclidean", b'{"dim": 2, "atoms": [[1.0, 1.0]', "not JSON"),
        ("sphere", b'{"dim": 3, "atoms": [[-0.5, 1.0]', "not JSON"),
    ],
    ids=["finite-bytes", "euclidean-bytes", "sphere-bytes", "euclidean-cut", "sphere-cut"],
)
def test_unreadable_input_file_is_named_in_one_line(capsys, tmp_path, command, content, message):
    path = tmp_path / "input"
    path.write_bytes(content)
    assert run([command, str(path)]) == 1
    assert _one_error_line(capsys).startswith(f"hoffman: {path}: {message} (")


def test_unit_distance_plane(capsys):
    assert run(["unit-distance", "-n", "2"]) == 0
    obj = _payload(capsys)
    assert abs(obj["bounds"]["chi_lb"]["value"] - 3.482871935) < 1e-8
    assert obj["provenance"]["bessel_first_zero"] == pytest.approx(
        3.831705970, abs=1e-8
    )


def test_euclidean_measure_file(capsys, tmp_path):
    path = tmp_path / "unit.json"
    path.write_text(json.dumps({"dim": 2, "atoms": [[1.0, 1.0]]}))
    assert run(["euclidean", str(path)]) == 0
    obj = _payload(capsys)
    chi = obj["bounds"]["chi_lb"]["value"]
    alpha = obj["bounds"]["alpha_ratio_ub"]["value"]
    assert abs(chi - 3.482871935) < 1e-7
    assert abs(chi * alpha - 1.0) < 1e-7
    assert obj["provenance"]["cutoff"] > 0


def test_euclidean_signed_measure_has_no_density_bound(capsys, tmp_path):
    path = tmp_path / "signed.json"
    path.write_text(json.dumps({"dim": 2, "atoms": [[1.0, 1.0], [2.0, -0.2]]}))
    assert run(["euclidean", str(path)]) == 0
    obj = _payload(capsys)
    assert "alpha_ratio_ub" not in obj["bounds"]


def test_euclidean_malformed_measure_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "atoms": [[1.0, 1.0]], "junk": 0}))
    assert run(["euclidean", str(path)]) == 1
    assert capsys.readouterr().err


@pytest.mark.parametrize(
    "command, measure",
    [
        ("euclidean", {"dim": 2.7, "atoms": [[1.0, 1.0]]}),
        ("euclidean", {"dim": True, "atoms": [[1.0, 1.0]]}),
        ("euclidean", {"dim": math.inf, "atoms": [[1.0, 1.0]]}),
        ("sphere", {"dim": 3.9, "atoms": [[-0.5, 1.0]]}),
        ("sphere", {"dim": True, "atoms": [[-0.5, 1.0]]}),
    ],
)
def test_non_integral_measure_dimension_exits_1(capsys, tmp_path, command, measure):
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(measure))
    assert run([command, str(path)]) == 1
    assert "dimension must be an integer" in _one_error_line(capsys)


@pytest.mark.parametrize(
    "command, measure, message",
    [
        # float() would read these strings and bools as numbers
        ("sphere", {"dim": 3, "atoms": [["-0.5", True]]}, "'-0.5' in ['-0.5', True] is not a"),
        ("euclidean", {"dim": 2, "atoms": [["1.5", "1"], [" 2 ", "-0.25"]]}, "'1.5' in"),
        ("euclidean", {"dim": 2, "atoms": [[1.0, True]]}, "True in [1.0, True] is not a number"),
        ("sphere", {"dim": 3, "atoms": [[-0.5, 1.0], [False, 1.0]]}, "False in"),
        ("euclidean", {"dim": 2, "atoms": [[1.0, None]]}, "None in"),
        ("sphere", {"dim": 3, "atoms": [[-0.5, [1.0]]]}, "[1.0] in"),
        ("euclidean", {"dim": 2, "atoms": [[1.0]]}, "[1.0] is not a pair"),
        ("sphere", {"dim": 3, "atoms": [[-0.5, 1.0, 2.0]]}, "is not a pair"),
        ("euclidean", {"dim": 2, "atoms": "1.0 1.0"}, "a str, not a list"),
        ("sphere", {"dim": 3, "atoms": {"-0.5": 1.0}}, "a dict, not a list"),
        # an integer past the largest double
        ("euclidean", {"dim": 2, "atoms": [[1.0, 10**400]]}, "too large to convert to float"),
    ],
)
def test_measure_file_atoms_must_be_json_numbers(capsys, tmp_path, command, measure, message):
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(measure))
    assert run([command, str(path)]) == 1
    err = _one_error_line(capsys)
    assert err.startswith("hoffman: malformed atoms list: ") and message in err


@pytest.mark.parametrize(
    "command, ints, floats",
    [
        ("euclidean", [[1, 1], [2, -1]], [[1.0, 1.0], [2.0, -1.0]]),
        ("sphere", [[-0.5, 1], [0, -2]], [[-0.5, 1.0], [0.0, -2.0]]),
    ],
)
def test_measure_file_accepts_integer_atoms(capsys, tmp_path, command, ints, floats):
    outputs = []
    for atoms in (ints, floats):
        path = tmp_path / "measure.json"
        path.write_text(json.dumps({"dim": 3, "atoms": atoms}))
        assert run([command, str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "measure, message",
    [
        ({"dim": 3, "atoms": [[1e308, 1.0]]}, "radii below about 1.3e154"),
        ({"dim": 3, "atoms": [[1.0, 1.0], [2e154, 1.0]]}, "radii below about 1.3e154"),
        ({"dim": 2, "atoms": [[1.0, 1.0], [1.0, 0.5]]}, "radii must be positive and strictly"),
        # finite radius and weight, but the profile's curvature w r^2 overflows
        ({"dim": 3, "atoms": [[1e10, 1e300]]}, "max(1, radius^2) must be finite"),
        # each weight is finite, their sum is not
        ({"dim": 3, "atoms": [[1.0, 1e308], [2.0, 1e308]]}, "max(1, radius^2) must be finite"),
        # the grid step 2 pi / (40 r) overflows, and so did the cutoff: their
        # ratio was nan, and the scan's int(ceil(nan)) raised
        ({"dim": 2, "atoms": [[1e-320, 1.0]]}, "radii too small to scan"),
        ({"dim": 1, "atoms": [[1e-320, 1.0], [2e-320, -0.5]]}, "radii too small to scan"),
    ],
    ids=[
        "1e308",
        "2e154",
        "repeated",
        "huge-weight",
        "two-1e308-weights",
        "tiny-radius",
        "tiny-radii-dim1",
    ],
)
def test_bad_radial_measure_exits_1_with_one_line(capsys, tmp_path, measure, message):
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(measure))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning would raise here
        assert run(["euclidean", str(path)]) == 1
    assert message in _one_error_line(capsys)


@pytest.mark.parametrize(
    "argv, far, reach",
    [
        (["euclidean", "{file}"], "150000", "6.9733"),
        (["optimize", "--mode", "radial", "--support", "1", "62000"], "62000", "16.3981"),
        (["optimize", "--mode", "radial", "--support", "1", "150000"], "150000", "16.3981"),
    ],
    ids=["euclidean", "optimize", "optimize-150000"],
)
def test_scan_past_bessel_domain_exits_1_before_scanning(
    capsys, scan_segments, tmp_path, argv, far, reach
):
    # the scan's first window ends at 6.9733 and the optimizer's game grid
    # at 16.3981, 3 pi further; either past omega's domain is refused
    # before a point is evaluated
    path = tmp_path / "measure.json"
    path.write_text(json.dumps({"dim": 2, "atoms": [[1.0, 0.5], [float(far), 0.5]]}))
    t0 = time.monotonic()
    assert run([a.replace("{file}", str(path)) for a in argv]) == 1
    assert time.monotonic() - t0 < 0.5
    assert scan_segments == []
    assert _one_error_line(capsys) == (
        f"hoffman: profile scan past Omega_n's domain: radii 1 to {far} need a scan"
        f" out to {reach}, and {far} x {reach} exceeds 1e+06\n"
    )


def test_growth_past_bessel_domain_exits_1_before_the_segment(capsys, scan_segments, tmp_path):
    # the two terms nearly cancel, so the extremes are about 1e-9 and the
    # growth step would reach 6.4e15, past omega's domain: refused after the
    # first window, before that segment is evaluated
    path = tmp_path / "measure.json"
    path.write_text(json.dumps({"dim": 2, "atoms": [[1.0, 0.5], [1.000000001, -0.5]]}))
    t0 = time.monotonic()
    assert run(["euclidean", str(path)]) == 1
    assert time.monotonic() - t0 < 0.5
    assert [r.size for r, _ in scan_segments] == [46]  # the first window only
    assert _one_error_line(capsys) == (
        "hoffman: profile scan past Omega_n's domain: radii 1 to 1 need a scan"
        " out to 6.3662e+15, and 1 x 6.3662e+15 exceeds 1e+06\n"
    )


def test_growth_over_budget_exits_1_before_the_segment(capsys, monkeypatch, scan_segments, tmp_path):
    # the six atoms' first window holds 82 x 6 = 492 atom evaluations and the
    # grown window 203 x 6 = 1218: a budget of 1000 refuses the growth step
    monkeypatch.setattr(hoffman.euclidean, "_SCAN_BUDGET", 1000)
    path = tmp_path / "measure.json"
    path.write_text(json.dumps({"dim": 2, "atoms": _SIX_ATOMS_N2}))
    assert run(["euclidean", str(path)]) == 1
    assert [r.size for r, _ in scan_segments] == [82]
    assert _one_error_line(capsys) == (
        "hoffman: profile scan too large: about 1.22e+03 atom evaluations out to"
        " 16.578, limit 1e+03\n"
    )


@pytest.mark.parametrize(
    "command, dim, position", [("euclidean", 2, 1.0), ("sphere", 3, 0.5)]
)
def test_measure_too_small_to_compute_exits_1(capsys, tmp_path, command, dim, position):
    # a subnormal weight keeps about 3 significant digits: the scale-invariant
    # bound came out as 3.483435583 (plane) and 3.284424379 (S^2), both wrong
    path = tmp_path / "measure.json"

    def request(weight):
        path.write_text(json.dumps({"dim": dim, "atoms": [[position, weight]]}))
        return run([command, str(path)])

    assert request(1e-320) == 1
    assert "below the smallest normal double" in _one_error_line(capsys)
    values = []
    for weight in (sys.float_info.min, 1.0):
        assert request(weight) == 0
        values.append({k: b["value"] for k, b in _payload(capsys)["bounds"].items()})
    assert values[0] == values[1]
    assert request(0.0) == 2  # no nonzero weight: accepted, and vacuous
    assert _payload(capsys)["status"] == "vacuous"


@pytest.mark.parametrize("dim", [2, 3])
def test_sphere_measure_whose_mass_overflows_exits_1(capsys, tmp_path, dim):
    # each weight is finite, but the eigenvalues summed them to inf (n = 3) or
    # nan (n = 2) after numpy overflow warnings
    path = tmp_path / "measure.json"
    path.write_text(json.dumps({"dim": dim, "atoms": [[0.1, 1e308], [0.2, 1e308]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning would raise here
        assert run(["sphere", str(path)]) == 1
    assert "sum of |weight| overflows a double" in _one_error_line(capsys)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_radial_bounds_do_not_depend_on_the_scale(capsys, tmp_path, dim):
    # scaling every radius by s scales the profile's argument by 1/s, so the
    # range and the printed bounds are the same at every scale
    path = tmp_path / "measure.json"
    printed = set()
    for radius in (1.0, 1e4, 1e8, 1e10, 1e150):
        path.write_text(json.dumps({"dim": dim, "atoms": [[radius, 1.0]]}))
        assert run(["euclidean", str(path)]) == 0
        printed.add(_payload(capsys)["bounds"]["chi_lb"]["value"])
    assert len(printed) == 1, printed


def test_dimension_64_minimum_matches_mpmath(capsys, tmp_path):
    # one shell at radius 1: m is Omega_64 at its first minimum, the first
    # zero of J_32 (Omega_64' = -(t/64) Omega_66); the series that took it
    # once read m wrong from its 6th digit
    path = tmp_path / "shell.json"
    path.write_text(json.dumps({"dim": 64, "atoms": [[1.0, 1.0]]}))
    assert run(["euclidean", str(path)]) == 0
    m = _payload(capsys)["bounds"]["chi_lb"]["m"]
    want = oracles.omega_mpmath(64, oracles.bessel_first_zero_mpmath(32.0)[0])
    assert abs(m - want) <= 1e-9 * abs(want)


def test_odd_distance_measure(capsys):
    assert run(["odd-distance", "--beta", "1.3", "-N", "10"]) == 0
    obj = _payload(capsys)
    assert obj["bounds"]["chi_lb"]["value"] > 4.0
    assert abs(obj["measure_mass"] - (1.0 - 1.3**-11)) < 1e-9


def test_sphere_single_inner_product(capsys):
    assert run(["sphere", "-t", "-0.3333333333333333", "-n", "3"]) == 0
    obj = _payload(capsys)
    assert abs(obj["bounds"]["chi_lb"]["value"] - 4.0) < 1e-8
    assert abs(obj["bounds"]["alpha_ratio_ub"]["value"] - 0.25) < 1e-9


def test_sphere_measure_file(capsys, tmp_path):
    path = tmp_path / "sph.json"
    path.write_text(json.dumps({"dim": 3, "atoms": [[-0.5, 1.0]]}))
    assert run(["sphere", str(path)]) == 0
    obj = _payload(capsys)
    assert obj["bounds"]["chi_lb"]["value"] > 1.0
    assert "tail_bound" in obj["provenance"]


def test_sphere_file_reports_the_certifying_truncation(capsys, tmp_path):
    # the tail probe certifies this range only after K is doubled from 64
    path = tmp_path / "near_one.json"
    path.write_text(json.dumps({"dim": 3, "atoms": [[0.999, 1.0]]}))
    assert run(["sphere", str(path)]) == 0
    assert _payload(capsys)["provenance"] == {"K": 128, "tail_bound": 0.3001268623}


@pytest.mark.parametrize(
    "dim, t, provenance",
    [
        # the tail probe checks this range only after K is doubled from 64
        ("3", "0.999", {"K": 128, "tail_bound": 0.3001268623}),
        # n = 2, theta = pi/3: the cosine sequence is scanned over one period
        ("2", "0.5", {"K": 6, "tail_bound": 0.0}),
    ],
)
def test_sphere_t_reports_the_certifying_truncation(capsys, dim, t, provenance):
    assert run(["sphere", "-n", dim, "-t", t]) == 0
    obj = _payload(capsys)
    assert obj["provenance"] == provenance
    assert obj["dimension"] == int(dim) and obj["t"] == float(t)


def test_circle_with_irrational_angles_reports_the_infimum(capsys, tmp_path):
    # no theta_i/pi of these atoms is p/q with q <= 512: the orbit comes
    # arbitrarily close to -1 at every atom at once, so m = -1, where a
    # finite scan of degrees stops above it (2.045782224 at 10 000 degrees)
    path = tmp_path / "five.json"
    atoms = [[t, 0.2] for t in (-0.7, -0.2, 0.1, 0.45, 0.8)]
    path.write_text(json.dumps({"dim": 2, "atoms": atoms}))
    assert run(["sphere", str(path)]) == 0
    obj = _payload(capsys)
    assert obj["status"] == "ok"
    assert obj["bounds"]["chi_lb"]["value"] == 2.0
    assert obj["bounds"]["alpha_ratio_ub"]["value"] == 0.5
    assert obj["provenance"] == {"K": 2, "tail_bound": 1.0}
    # theta = 4.5e-4 rad is free too; 10 000 degrees reached only -0.9999999966
    assert run(["sphere", "-n", "2", "-t", "0.9999999"]) == 0
    assert _payload(capsys)["bounds"]["chi_lb"]["value"] == 2.0


def test_optimize_circle_with_irrational_angles_exits_0(capsys):
    argv = ["optimize", "--mode", "sphere", "-n", "2", "--support", "-0.7", "-0.2", "0.1"]
    assert run(argv) == 0
    obj = _payload(capsys)
    assert obj["bounds"]["chi_lb"]["value"] == 2.0 and obj["provenance"]["K"] == 2


def test_sphere_needs_exactly_one_input(capsys, tmp_path):
    assert run(["sphere"]) == 1
    path = tmp_path / "sph.json"
    path.write_text(json.dumps({"dim": 3, "atoms": [[-0.5, 1.0]]}))
    assert run(["sphere", str(path), "-t", "0.2"]) == 1


def test_sphere_zero_measure_is_vacuous(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"dim": 3, "atoms": [[0.0, 0.0]]}))
    assert run(["sphere", str(path)]) == 2
    obj = _payload(capsys)
    assert obj["status"] == "vacuous"


def test_optimize_radial_single_shell(capsys):
    code = run(["optimize", "--mode", "radial", "--support", "1", "-n", "2"])
    assert code == 0
    obj = _payload(capsys)
    assert abs(obj["bounds"]["chi_lb"]["value"] - 3.482871935) < 1e-6
    assert obj["measure"]["atoms"] == [[1.0, 1.0]]


def test_optimize_sphere_mode(capsys):
    code = run(
        ["optimize", "--mode", "sphere", "--support", "-0.3333333333333333", "-n", "3"]
    )
    assert code == 0
    obj = _payload(capsys)
    assert abs(obj["bounds"]["chi_lb"]["value"] - 4.0) < 1e-8


def test_optimize_sphere_reports_the_certifying_truncation(capsys):
    # the game on degrees 1..4 misses deeper dips, so the certifying
    # operator_range call needs more degrees than --kmax
    support = [-0.9, -0.6, -0.3, 0.0, 0.3]
    argv = ["optimize", "--mode", "sphere", "-n", "3", "--kmax", "4", "--support"]
    assert run(argv + [str(t) for t in support]) == 0
    obj = _payload(capsys)
    assert obj["measure"]["atoms"] == [
        [-0.9, 0.1325714233],
        [-0.6, 0.2290081313],
        [-0.3, 0.09405060828],
        [0.0, 0.04515865807],
        [0.3, 0.499211179],
    ]
    chi = obj["bounds"]["chi_lb"]
    assert chi["value"] == 8.398037189
    # the reported truncation gives the printed range, and its tail probe
    # passes operator_range's rule there
    K = obj["provenance"]["K"]
    assert K > 4
    mu = optimize_sphere_measure(3, support, K=4)[0]
    seq = eigenvalue_sequence(mu, K)
    m, big = min(0.0, float(seq.values.min())), max(0.0, float(seq.values.max()))
    assert json.loads(_json([m, big, seq.tail_bound])) == [
        chi["m"],
        chi["M"],
        obj["provenance"]["tail_bound"],
    ]
    assert seq.tail_bound <= max(-m, 1e-8) and seq.tail_bound <= max(big, 1e-8)


def test_torus_defaults_to_csv(capsys):
    assert run(["torus", "--radii", "1", "--moduli", "8", "16", "-n", "1"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == (
        "m,discrete_chi_lb,discrete_alpha_ub,continuous_chi_lb,continuous_alpha_ub"
    )
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "8"


def test_torus_json_format(capsys):
    code = run(
        ["torus", "--radii", "1", "--moduli", "8", "16", "-n", "1", "--format", "json"]
    )
    assert code == 0
    obj = _payload(capsys)
    assert len(obj["rows"]) == 2 and len(obj["rows"][0]) == 5
    assert obj["columns"][0] == "m"


def test_output_flag_writes_file(capsys, tmp_path, c5_path):
    out_path = tmp_path / "report.json"
    assert run(["finite", c5_path, "-o", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert run(["finite", c5_path]) == 0
    assert out_path.read_text() == capsys.readouterr().out


def test_identical_runs_are_byte_identical(capsys):
    assert run(["unit-distance", "-n", "4"]) == 0
    first = capsys.readouterr().out
    assert run(["unit-distance", "-n", "4"]) == 0
    assert capsys.readouterr().out == first


def test_all_floats_carry_ten_significant_digits(capsys, c5_path):
    assert run(["finite", c5_path]) == 0
    obj = json.loads(capsys.readouterr().out)

    def walk(node):
        if isinstance(node, float):
            assert float(f"{node:.10g}") == node
        elif isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(obj)


def test_dimension_validation(capsys):
    # unit-distance and optimize --mode radial take [2, 32], and say so, not
    # RadialMeasure's [1, 64]
    radial = ["optimize", "--mode", "radial", "--support", "1", "2", "-n"]
    argvs = [["unit-distance", "-n", n] for n in ("1", "33", "100")] + [radial + ["0"], radial + ["65"]]
    for argv in argvs:
        assert run(argv) == 1
        assert "dimension must lie in [2, 32], got" in _one_error_line(capsys), argv


def test_numeric_flag_validation(capsys):
    assert run(["sphere", "-t", "-0.5", "--tol", "0.01"]) == 1
    assert "tol must lie in [1e-12, 1e-3]" in _one_error_line(capsys)
    assert run(["optimize", "--mode", "sphere", "--kmax", "0", "--support", "-0.5"]) == 1
    assert "K must lie in [1, 8192]" in _one_error_line(capsys)
    assert run(["optimize", "--mode", "radial", "--tol", "0.01", "--support", "1"]) == 1
    assert "tol must lie in [1e-12, 1e-3]" in _one_error_line(capsys)
    assert run(["torus", "--radii", "1", "--moduli", "8", "-n", "0"]) == 1
    assert "dimension must be at least 1" in _one_error_line(capsys)
    assert run(["sphere", "-t", "0.3", "--kmax", "two"]) == 1
    assert "invalid int value" in _one_error_line(capsys)


def test_sphere_truncation_is_capped_at_8192(capsys):
    # doubling 3000 -> 6000 -> 12000 stops at the cap, and the error names it
    assert run(["sphere", "-n", "3", "-t", "0.9999999", "--kmax", "3000"]) == 1
    line = _one_error_line(capsys)
    assert "(K=8192," in line and "at truncation 8192" in line
    assert run(["sphere", "-t", "0.3", "--kmax", "9000"]) == 1
    assert "K must lie in [1, 8192], got 9000" in _one_error_line(capsys)


def test_sphere_dimension_is_the_measure_types(capsys):
    # SphereMeasure takes dimensions up to 64; the command line adds no cap of its own
    assert run(["sphere", "-t", "0.3", "-n", "40"]) == 0
    assert _payload(capsys)["dimension"] == 40
    assert run(["sphere", "-t", "0.3", "-n", "65"]) == 1
    assert "sphere dimension must lie in [2, 64]" in _one_error_line(capsys)


def _library_accepts(call) -> bool:
    try:
        call()
    except ValueError:
        return False
    return True


def _cli_accepts(capsys, argv, refusal) -> bool:
    """True on exit 0; a refusal must be exit 1 with one line naming the limit."""
    code = run(argv)
    if code == 0:
        capsys.readouterr()
        return True
    assert code == 1 and refusal in _one_error_line(capsys), argv
    return False


_SPHERE = SphereMeasure(3, ((0.3, 1.0),))
_RADIAL_FILE_ATOMS = {"dim": 2, "atoms": [[1.0, 1.0]]}


@pytest.mark.parametrize(
    "argv, defaults",
    [
        (["euclidean", "{file}"], ["--tol", "1e-8"]),
        (["odd-distance", "--beta", "1.3", "-N", "3"], ["--tol", "1e-8"]),
        (["sphere", "-t", "-0.3"], ["--tol", "1e-8", "--kmax", "64"]),
        (["optimize", "--mode", "radial", "--support", "1", "1.5"], ["--tol", "1e-8"]),
        (["optimize", "--mode", "sphere", "--support", "-0.5"], ["--tol", "1e-8", "--kmax", "64"]),
        (["torus", "--radii", "2", "--moduli", "8", "12"], ["--annulus", "0.25"]),
    ],
)
def test_left_out_options_take_the_library_defaults(capsys, tmp_path, argv, defaults):
    # the parsers declare no default of their own: an option left out is not
    # passed on, and the library's default gives the same output as spelling it
    path = tmp_path / "radial.json"
    path.write_text(json.dumps(_RADIAL_FILE_ATOMS))
    argv = [a.replace("{file}", str(path)) for a in argv]
    outputs = []
    for args in (argv, argv + defaults):
        assert run(args) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "value, accepted", [("1e-12", True), ("1e-3", True), ("9.9e-13", False), ("1.1e-3", False)]
)
def test_tol_limit_is_the_librarys(capsys, tmp_path, value, accepted):
    path = tmp_path / "radial.json"
    path.write_text(json.dumps(_RADIAL_FILE_ATOMS))
    mu = radial_measure_from_json(_RADIAL_FILE_ATOMS)
    tol = float(value)
    routes = [
        (["sphere", "-t", "0.3", "--tol", value], lambda: operator_range(_SPHERE, tol=tol)),
        (["euclidean", str(path), "--tol", value], lambda: radial_range(mu, tol)),
    ]
    for argv, call in routes:
        assert _cli_accepts(capsys, argv, "tol must lie in [1e-12, 1e-3]") is accepted, argv
        assert _library_accepts(call) is accepted, argv


@pytest.mark.parametrize(
    "value, accepted", [(1, True), (8192, True), (0, False), (8193, False)]
)
def test_kmax_limit_is_the_librarys(capsys, value, accepted):
    argv = ["sphere", "-t", "0.3", "--kmax", str(value)]
    assert _cli_accepts(capsys, argv, "K must lie in [1, 8192]") is accepted
    assert _library_accepts(lambda: operator_range(_SPHERE, K=value)) is accepted
    assert _library_accepts(lambda: eigenvalue_sequence(_SPHERE, value)) is accepted


@pytest.mark.parametrize(
    "argv",
    [
        ["odd-distance", "--beta", "1.15", "-N", "5", "-n", "3"],
        ["finite", "{c5}", "--tol", "1e-6"],
        ["euclidean", "{radial}", "--kmax", "8"],
        ["unit-distance", "--format", "csv"],
    ],
)
def test_option_of_another_subcommand_exits_1(capsys, tmp_path, c5_path, argv):
    radial = tmp_path / "radial.json"
    radial.write_text(json.dumps({"dim": 2, "atoms": [[1.0, 1.0]]}))
    argv = [a.format(c5=c5_path, radial=radial) for a in argv]
    assert run(argv) == 1
    assert "unrecognized arguments" in _one_error_line(capsys)


def test_option_of_another_mode_exits_1(capsys, tmp_path):
    path = tmp_path / "sph.json"
    path.write_text(json.dumps({"dim": 3, "atoms": [[-0.5, 1.0]]}))
    assert run(["sphere", str(path), "-n", "3"]) == 1
    assert "-n does not apply to a measure file" in _one_error_line(capsys)
    assert run(["optimize", "--mode", "radial", "--kmax", "64", "--support", "1"]) == 1
    assert "--kmax applies only to --mode sphere" in _one_error_line(capsys)
    # the radial game grid is fixed, so no mode takes a --grid
    assert run(["optimize", "--mode", "radial", "--grid", "512", "--support", "1"]) == 1
    assert "unrecognized arguments: --grid" in _one_error_line(capsys)


def test_json_rejects_nonfinite():
    with pytest.raises(ValueError, match="^non-finite value nan in output$"):
        _json({"x": float("nan")})
    with pytest.raises(ValueError, match="^non-finite value inf in output$"):
        _json([float("inf")])
    # a finite float whose 10-digit rounding overflows is refused too;
    # json.dumps of the rounded value printed Infinity, which is not JSON
    with pytest.raises(ValueError, match="non-finite value -1.7976931348623157e"):
        _json({"m": -sys.float_info.max})


def test_json_refuses_what_json_dumps_refuses():
    # another type is a TypeError with json.dumps's message, not a string
    # a BoundReport too: the payload carries its as_dict(), never the object
    for bad in (object(), {1, 2}, b"bytes", BoundReport("chi_lb", 2.0, -1.0, 1.0)):
        with pytest.raises(TypeError) as exc:
            json.dumps(bad)
        with pytest.raises(TypeError, match=f"^{exc.value}$"):
            _json({"x": [bad]})


def _rounded(obj):
    """10 significant digits on every float, recursively, as a separate pass."""
    if isinstance(obj, float):
        return float(f"{obj:.10g}")
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


# every finite double whose 10-digit rounding is finite too
_FINITE = st.floats(min_value=-1.797693134e308, max_value=1.797693134e308)
_TEXT = st.text() | st.sampled_from(["", "\x00\x1f\x7f", '"\\/', "\u2028é€", "\ud800", "🂡"])
_LEAVES = (
    _FINITE
    | st.sampled_from([-0.0, 0.0, 1e-05, 5e-324, 1.797693134e308, 12345678901.5])
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.booleans()
    | st.none()
    | _TEXT
)
_JSON_OBJECTS = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_OBJECTS)
def test_json_is_json_dumps_of_the_rounded_object(obj):
    assert _json(obj) == json.dumps(_rounded(obj), sort_keys=True, indent=2)


def _fresh_process_stdout(argv):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hoffman.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_reused_parser_keeps_no_state_between_runs(capsys, tmp_path):
    sph = tmp_path / "sph.json"
    sph.write_text(json.dumps({"dim": 3, "atoms": [[-0.5, 1.0]]}))
    radial = tmp_path / "radial.json"
    radial.write_text(json.dumps({"dim": 2, "atoms": [[1.0, 1.0]]}))
    requests = [
        ["sphere", "-t", "-0.25", "-n", "4"],
        ["euclidean", str(radial), "--tol", "1e-7"],
        ["sphere", str(sph)],
    ]
    fresh = [_fresh_process_stdout(argv) for argv in requests]
    for _ in range(2):
        for argv, expected in zip(requests, fresh):
            assert run(argv) == 0
            assert capsys.readouterr().out == expected


def test_negative_values_in_exponent_notation(capsys):
    assert run(["sphere", "-n", "3", "-t", "-4.5e-05"]) == 0
    assert _payload(capsys)["t"] == -4.5e-05
    code = run(["optimize", "--mode", "sphere", "-n", "3", "--support", "-0.5", "-4.5e-05"])
    assert code == 0
    assert _payload(capsys)["support"] == [-0.5, -4.5e-05]


def _one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("hoffman: ") and captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize(
    "argv, target",
    [
        (["unit-distance"], "missing/x.json"),
        (["unit-distance"], "."),
        (["torus", "--radii", "1", "--moduli", "8"], "missing/x.csv"),
        (["finite", "EDGELESS"], "missing/v.json"),
    ],
    ids=["json", "directory", "csv", "vacuous"],
)
def test_unwritable_output_exits_1_with_one_line(capsys, tmp_path, argv, target):
    edgeless = tmp_path / "edgeless.txt"
    edgeless.write_text(EDGELESS_TEXT)
    argv = [str(edgeless) if a == "EDGELESS" else a for a in argv]
    assert run([*argv, "-o", str(tmp_path / target)]) == 1
    _one_error_line(capsys)


def test_convergence_error_exits_1_with_one_line(capsys, tmp_path):
    path = tmp_path / "long_period.json"
    path.write_text(json.dumps({"dim": 1, "atoms": [[1.0, -0.5], [1.00001, 0.5]]}))
    assert run(["euclidean", str(path)]) == 1
    assert "period too long to scan" in _one_error_line(capsys)


def test_incommensurable_dimension_1_radii_exit_1_with_one_line(capsys, tmp_path):
    path = tmp_path / "incommensurable.json"
    path.write_text(json.dumps({"dim": 1, "atoms": [[1.0, -0.5], [math.sqrt(2.0), 0.5]]}))
    assert run(["euclidean", str(path)]) == 1
    assert "need commensurable radii" in _one_error_line(capsys)


def test_radial_scan_over_budget_exits_1_quickly(capsys):
    t0 = time.monotonic()
    assert run(["odd-distance", "--beta", "1.01", "-N", "10000"]) == 1
    assert time.monotonic() - t0 < 5.0
    assert "scan too large" in _one_error_line(capsys)


def test_dimension_1_scan_keeps_its_period_rule_alone(capsys, monkeypatch, tmp_path):
    # the budget covers scans in dimension 2 and up; a line's period scan is
    # bounded by its 2e6 grid points alone (100 radii 1..99 and 40000 scan
    # 1.6e6 points, 1.6e8 atom evaluations, and print a bound)
    monkeypatch.setattr(hoffman.euclidean, "_SCAN_BUDGET", 10)
    path = tmp_path / "measure.json"
    path.write_text(json.dumps({"dim": 1, "atoms": [[1.0, 0.5], [2.0, 0.5]]}))
    assert run(["euclidean", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["provenance"]["grid_points"] == 82


def test_finite_makes_one_eigen_solve(capsys, monkeypatch, tmp_path):
    # C5 takes the dense path: one eigvalsh call; a large sparse graph takes
    # the Lanczos path: no eigvalsh call and one Cholesky factorization, of
    # the Schur complement left after the eliminated independent set
    solved, factored = [], []
    eigvalsh = np.linalg.eigvalsh
    cholesky_lo = hoffman.graphs._umath_linalg.cholesky_lo

    def counted(a):
        solved.append(a.shape)
        return eigvalsh(a)

    def counted_factor(b, out):
        factored.append(b.shape)
        return cholesky_lo(b, out=out)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    monkeypatch.setattr(hoffman.graphs._umath_linalg, "cholesky_lo", counted_factor)
    path = tmp_path / "c5.txt"
    path.write_text(C5_TEXT)
    assert run(["finite", str(path)]) == 0
    assert (solved, factored) == ([(5, 5)], [])
    payload = _payload(capsys)
    assert payload["status"] == "ok" and payload["provenance"] == {"solver": "dense"}

    solved.clear()
    n = 600
    path = tmp_path / "circulant.txt"
    path.write_text("".join(f"{i} {(i + s) % n}\n" for i in range(n) for s in (1, 7, 30)))
    g = hoffman.graphs.read_graph(path)
    degrees = np.bincount(g.edges.ravel(), minlength=n)
    kept = n - int(np.count_nonzero(hoffman.graphs._eliminated(g, degrees)))
    assert run(["finite", str(path)]) == 0
    assert kept < n and (solved, factored) == ([], [(kept, kept)])
    payload = _payload(capsys)
    assert payload["status"] == "ok" and payload["provenance"]["solver"] == "lanczos"


def test_finite_refuses_graph_too_large_for_dense_path(capsys, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("p edge 60000 1\ne 1 2\n")
    tracemalloc.start()
    try:
        code = run(["finite", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert peak < 16 * 2**20
    assert "60000 vertices" in _one_error_line(capsys)


# The finite parser's contract: exit code, and the stderr line (exit 1) or
# the vacuous detail (exit 2).  A malformed file never exits 0.
_FINITE_PARSE_CASES = [
    ("", 1, "adjacency matrix needs at least one vertex"),
    ("0\n", 1, "expected 'u v' pair, got '0'"),
    ("0 1 2\n", 1, "expected 'u v' pair, got '0 1 2'"),
    ("0 1\n1 2 3\n", 1, "expected 'u v' pair, got '1 2 3'"),
    ("a b\n", 1, "expected 'u v' pair, got 'a b'"),
    ("1e1 2\n", 1, "expected 'u v' pair, got '1e1 2'"),
    ("1.5 2\n", 1, "expected 'u v' pair, got '1.5 2'"),
    ("1_0 2\n", 1, "expected 'u v' pair, got '1_0 2'"),
    ("0 1\n99999999999999999999 1\n", 1, "expected 'u v' pair, got '99999999999999999999 1'"),
    ("0 1\n3000000000 1\n", 1, "vertex 3000000000 exceeds the largest index 2147483647"),
    ("-1 2\n", 1, "edge (-1, 2) out of range for n=3"),
    ("0 0\n", 1, "loop at vertex 0 not allowed"),
    ("e 1 2\n", 1, "edge descriptor before problem header"),
    ("p edge 3 1\np edge 3 1\ne 1 2\n", 1, "duplicate problem header"),
    ("p node 3 1\n", 1, "malformed header line 'p node 3 1'"),
    ("p edge abc 1\n", 1, "malformed header line 'p edge abc 1'"),
    ("p edge 3 x\n", 1, "malformed header line 'p edge 3 x'"),
    ("p edge -2 0\n", 1, "malformed header line 'p edge -2 0'"),
    ("p edge 3\n", 2, "smallest spectral value 0 is nonnegative; bound is vacuous"),
    ("p edge 99999999999999999999 1\ne 1 2\n", 1, "graph has 99999999999999999999 vertices"),
    ("p edge 2 1\ne 1 3\n", 1, "edge (0, 2) out of range for n=2"),
    ("p edge 3 1\ne 1 2\ne 2 2\n", 1, "loop at vertex 1 not allowed"),
    ("p edge 3 1\ne 1\n", 1, "malformed edge line 'e 1'"),
    ("p edge 3 1\ne 1 2 3\n", 1, "malformed edge line 'e 1 2 3'"),
    ("p edge 3 1\ne # no endpoints\n", 1, "malformed edge line 'e'"),
    ("p edge 3 1\nx 1 2\n", 1, "unrecognised line 'x 1 2' in DIMACS input"),
    ("p edge 5 0\n", 2, "smallest spectral value 0 is nonnegative; bound is vacuous"),
    ("0 1\n1 2\n2 0\np edge 4 1\ne 3 4\n", 1, "unrecognised line '0 1' in DIMACS input"),
    ("p edge 4 1\ne 3 4\n0 1\n", 1, "unrecognised line '0 1' in DIMACS input"),
]


@pytest.mark.parametrize("text, code, message", _FINITE_PARSE_CASES)
def test_finite_parse_contract(capsys, tmp_path, text, code, message):
    path = tmp_path / "graph.txt"
    path.write_text(text)
    assert run(["finite", str(path)]) == code
    if code == 1:
        assert _one_error_line(capsys).startswith(f"hoffman: {message}")
    else:
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["detail"] == message


# rows holding a tag character or U+1BCA0 inside a number, each run in a
# fresh process, so that a reader that crashes on them fails the test rather
# than ending the test run
@pytest.mark.parametrize(
    "text, message",
    [
        ("0 1\n1\U000e0001 2\n", "expected 'u v' pair, got '1\\U000e0001 2'"),
        ("0 1\n1\U0001bca02 3\n", "expected 'u v' pair, got '1\\U0001bca02 3'"),
        ("p edge 4 2\ne 1 2\ne 2\U000e0001 3\n", "malformed edge line 'e 2\\U000e0001 3'"),
        ("p edge 4 2\ne 1 2\ne 2\U0001bca03 4\n", "malformed edge line 'e 2\\U0001bca03 4'"),
    ],
)
def test_finite_names_a_row_with_a_format_character(tmp_path, text, message):
    path = tmp_path / "graph.txt"
    path.write_text(text, encoding="utf-8")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hoffman.cli", "finite", str(path)],
        capture_output=True,
        encoding="utf-8",
        env=env,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"hoffman: {message}\n")


def test_read_graph_peak_memory_on_64000_edges(tmp_path):
    # 800 vertices, 64 000 edges: about 0.5 MB of text and 1 MB of pairs
    rng = np.random.default_rng(3)
    iu, ju = np.triu_indices(800, 1)
    pick = rng.choice(iu.size, size=64_000, replace=False)
    path = tmp_path / "g.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in zip(iu[pick].tolist(), ju[pick].tolist())))
    tracemalloc.start()
    try:
        g = read_graph(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 800 and len(g.edges) == 64_000
    assert peak < 9 * 2**20


def test_read_graph_peak_memory_on_25000_dimacs_edges(tmp_path):
    # the DIMACS counterpart: 800 vertices, 25 000 "e u v" lines
    rng = np.random.default_rng(4)
    iu, ju = np.triu_indices(800, 1)
    pick = rng.choice(iu.size, size=25_000, replace=False)
    path = tmp_path / "g.txt"
    rows = "".join(f"e {u + 1} {v + 1}\n" for u, v in zip(iu[pick].tolist(), ju[pick].tolist()))
    path.write_text("c seeded graph\np edge 800 25000\n" + rows)
    tracemalloc.start()
    try:
        g = read_graph(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 800 and len(g.edges) == 25_000
    assert peak < 9 * 2**20


# One small request per subcommand, with its expected stdout in
# tests/pinned/<name>.out.  Input files are written to a temporary directory
# whose path stands as "{dir}" in both the argv and the expected output.
# The finite_*.txt graphs are committed beside the outputs and copied byte
# for byte: two hold the edge-list formats' corner cases (comment lines,
# duplicate and reversed edges, tabs, a CRLF line, a "+" sign), and
# finite_random_500.txt a seeded random graph of degree 6.
_PINNED_INPUTS = {
    "c5.txt": C5_TEXT,
    # 600 vertices of degree 6: the Lanczos path, through the edge list
    "circulant_600.txt": "".join(
        f"{i} {(i + s) % 600}\n" for i in range(600) for s in (1, 7, 30)
    ),
    "radial.json": json.dumps({"dim": 3, "atoms": [[1.0, 0.6], [1.7, 0.4]]}),
    # certifies at its own --kmax 32, with no K doubling
    "sphere.json": json.dumps({"dim": 4, "atoms": [[-0.5, 0.7], [0.2, 0.3]]}),
    # three vertices and no edge: a zero matrix, so every bound is vacuous
    "empty_3.txt": "p edge 3\n",
}
PINNED_REQUESTS = {
    "finite_c5": ["finite", "{dir}/c5.txt"],
    "finite_dimacs": ["finite", "{dir}/finite_dimacs.txt"],
    "finite_plain": ["finite", "{dir}/finite_plain.txt"],
    "finite_lanczos": ["finite", "{dir}/circulant_600.txt"],
    # 500 vertices, at the Lanczos path's crossover (below the 512 it had
    # before): the arc list, and 185 vertices eliminated before the factor
    "finite_lanczos_500": ["finite", "{dir}/finite_random_500.txt"],
    "unit_distance_2": ["unit-distance", "-n", "2"],
    "euclidean_file": ["euclidean", "{dir}/radial.json"],
    "odd_distance": ["odd-distance", "--beta", "1.15", "-N", "5"],
    "sphere_t": ["sphere", "-n", "4", "-t", "-0.25"],
    "sphere_file": ["sphere", "{dir}/sphere.json", "--kmax", "32"],
    "optimize_radial": ["optimize", "--mode", "radial", "--support", "1", "2"],
    "optimize_sphere": ["optimize", "--mode", "sphere", "-n", "4", "--support", "-0.5", "0.2"],
    "torus_csv": ["torus", "--radii", "2", "--moduli", "8", "16", "-n", "2"],
    "torus_json": ["torus", "--radii", "2", "--moduli", "8", "16", "-n", "2", "--format", "json"],
    "finite_vacuous": ["finite", "{dir}/empty_3.txt"],
    # the tail probe still fails at the cap K = 8192
    "sphere_uncertified": ["sphere", "-n", "3", "-t", "0.9999999", "--kmax", "3000"],
}
# the exit code of each pinned request that does not exit 0; a request's
# stderr is pinned in tests/pinned/<name>.err if it writes any, else empty
PINNED_EXIT = {"finite_vacuous": 2, "sphere_uncertified": 1}
PINNED_DIR = Path(__file__).resolve().parent / "pinned"


def write_pinned_inputs(directory: Path) -> None:
    for name, text in _PINNED_INPUTS.items():
        (directory / name).write_text(text)
    for path in PINNED_DIR.glob("finite_*.txt"):
        (directory / path.name).write_bytes(path.read_bytes())


def _pinned_result(name) -> tuple:
    """(exit code, stdout, stderr) pinned for a request, "{dir}" left in."""
    err_pin = PINNED_DIR / f"{name}.err"
    err = err_pin.read_text() if err_pin.exists() else ""
    return PINNED_EXIT.get(name, 0), (PINNED_DIR / f"{name}.out").read_text(), err


def _pinned_argv(name, directory: Path) -> list:
    return [a.replace("{dir}", str(directory)) for a in PINNED_REQUESTS[name]]


@pytest.mark.parametrize("name", sorted(PINNED_REQUESTS))
def test_pinned_output(capsys, tmp_path, name):
    write_pinned_inputs(tmp_path)
    code = run(_pinned_argv(name, tmp_path))
    out, err = capsys.readouterr()
    assert (code, out.replace(str(tmp_path), "{dir}"), err) == _pinned_result(name)


# the sphere pins and the Jacobi parameters alpha = (n - 3)/2 they use (n = 3, 4)
_SPHERE_PINS = ("sphere_t", "sphere_file", "optimize_sphere", "sphere_uncertified")
_SPHERE_PIN_ALPHAS = (0.0, 0.5)


def test_sphere_pins_are_the_same_with_cold_and_warm_jacobi_coefficients(
    capsys, monkeypatch, tmp_path
):
    write_pinned_inputs(tmp_path)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for name in _SPHERE_PINS:  # a fresh process keeps no coefficients yet
        proc = subprocess.run(
            [sys.executable, "-m", "hoffman.cli", *_pinned_argv(name, tmp_path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        out = proc.stdout.replace(str(tmp_path), "{dir}")
        assert (proc.returncode, out, proc.stderr) == _pinned_result(name), name
    # every alpha the pins use, kept to the sphere's largest table
    monkeypatch.setattr(specfun, "_jacobi_kept", {})
    monkeypatch.setattr(specfun, "_jacobi_kept_rows", 0)
    for alpha in _SPHERE_PIN_ALPHAS:
        specfun.jacobi_sequence(2 * sphere._K_CAP, alpha, 0.5)
    built = []
    monkeypatch.setattr(specfun, "_jacobi_triples", lambda *args: built.append(args))
    for name in _SPHERE_PINS:
        code = run(_pinned_argv(name, tmp_path))
        out, err = capsys.readouterr()
        assert (code, out.replace(str(tmp_path), "{dir}"), err) == _pinned_result(name), name
    assert not built


# bench-like requests of every subcommand, beside the pinned ones
_PARSE_REQUESTS = [
    *PINNED_REQUESTS.values(),
    ["finite", "{dir}/g.txt", "-o", "{dir}/out.json"],
    ["unit-distance", "--dimension", "5"],
    ["euclidean", "{dir}/r.json", "--tol", "1e-7"],
    ["odd-distance", "--beta", "1.021734", "-N", "2"],
    ["sphere", "-n", "2", "-t", "-0.8090169943749475"],
    ["sphere", "-n", "5", "-t", "-4.5e-05", "--tol", "1e-9"],
    ["sphere", "{dir}/s.json", "--kmax", "128"],
    ["optimize", "--mode", "sphere", "-n", "7", "--kmax", "512", "--support", "-0.95", "-0.71", "0.8"],
    ["optimize", "--mode", "radial", "-n", "3", "--support", "1.0", "1.8"],
    ["torus", "--radii", "2", "3", "--moduli", "8", "16", "--annulus", "0.5", "--format", "json"],
]


@pytest.mark.parametrize("argv", _PARSE_REQUESTS, ids=" ".join)
def test_subcommand_parser_reads_what_the_top_level_parser_reads(monkeypatch, tmp_path, argv):
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
    parsed = []
    monkeypatch.setitem(hoffman.cli._DISPATCH, argv[0], lambda args: parsed.append(args) or {})
    assert run(argv) == 0
    assert vars(parsed[0]) == vars(hoffman.cli._parser().parse_args(argv))
    assert parsed[0].subcommand == argv[0]


@pytest.mark.parametrize(
    "argv",
    [[], ["frobnicate"], ["frobnicate", "-t", "1"], ["unit-distance", "--kmax", "3"],
     ["sphere", "-t"], ["optimize", "--mode", "cubic", "--support", "1"], ["-n", "3", "sphere"]],
    ids=" ".join,
)
def test_refused_argv_keeps_the_top_level_message(capsys, argv):
    try:
        hoffman.cli._parser().parse_args(argv)
        message = "a subcommand is required"  # the only refusal left to run()
    except hoffman.cli._UsageError as exc:
        message = str(exc)
    assert run(argv) == 1
    assert _one_error_line(capsys) == f"hoffman: {message}\n"


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["sphere", "-h"], ["optimize", "--help"]])
def test_help_exits_0_with_the_top_level_parsers_text(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        hoffman.cli._parser().parse_args(argv)
    expected = capsys.readouterr().out
    assert exc.value.code == 0 and expected.startswith("usage: hoffman")
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out == expected


def test_cli_imports_no_private_name_from_the_package():
    tree = ast.parse(Path(hoffman.cli.__file__).read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or node.module.startswith("hoffman"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


# Per JSON subcommand, a request and the library range behind it (None for
# torus, whose rows come from many ranges).  The command line prints the
# range's own provenance, and none when it is empty.
_PROVENANCE_REQUESTS = {
    "finite": (
        PINNED_REQUESTS["finite_dimacs"],
        lambda d: spectral_range(read_graph(d / "finite_dimacs.txt")),
    ),
    "unit-distance": (PINNED_REQUESTS["unit_distance_2"], lambda d: unit_distance_range(2)),
    "euclidean": (
        PINNED_REQUESTS["euclidean_file"],
        lambda d: radial_range(RadialMeasure(3, ((1.0, 0.6), (1.7, 0.4)))),
    ),
    "odd-distance": (
        PINNED_REQUESTS["odd_distance"],
        lambda d: radial_range(steinhardt_measure(1.15, 5)),
    ),
    "sphere-t": (
        PINNED_REQUESTS["sphere_t"],
        lambda d: operator_range(SphereMeasure(4, ((-0.25, 1.0),))),
    ),
    "sphere-file": (
        PINNED_REQUESTS["sphere_file"],
        lambda d: operator_range(SphereMeasure(4, ((-0.5, 0.7), (0.2, 0.3))), K=32),
    ),
    "optimize-radial": (
        PINNED_REQUESTS["optimize_radial"],
        lambda d: optimize_radial_measure(2, [1.0, 2.0])[1],
    ),
    "optimize-sphere": (
        PINNED_REQUESTS["optimize_sphere"],
        lambda d: optimize_sphere_measure(4, [-0.5, 0.2])[1],
    ),
    "torus": (["torus", "--radii", "2", "--moduli", "8", "-n", "2", "--format", "json"], None),
}


@pytest.mark.parametrize("name", sorted(_PROVENANCE_REQUESTS))
def test_printed_provenance_is_the_ranges(capsys, tmp_path, name):
    write_pinned_inputs(tmp_path)
    argv, library = _PROVENANCE_REQUESTS[name]
    assert run([a.replace("{dir}", str(tmp_path)) for a in argv]) == 0
    printed = _payload(capsys).get("provenance")
    provenance = {} if library is None else library(tmp_path).provenance
    if name == "torus":
        assert printed is None and provenance == {}
    else:
        assert printed == json.loads(_json(provenance)) != {}
