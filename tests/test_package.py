"""The package's import surface: what `import hoffman` and each request load,
and the public names, which resolve on access to their home modules."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hoffman
import hoffman.cli

ROOT = Path(__file__).resolve().parent.parent

# Every public name by its home module; hoffman.__all__ lists them sorted.
HOMES = {
    "errors": [
        "BoundInapplicableError",
        "ConvergenceError",
        "NoNegativeSpectrumError",
        "SpectralBoundError",
        "UncertifiedRangeError",
        "VacuousBoundError",
    ],
    "euclidean": [
        "RadialMeasure",
        "fourier_radial",
        "optimize_radial_measure",
        "radial_measure_from_json",
        "radial_measure_to_json",
        "radial_range",
        "steinhardt_measure",
        "unit_distance_range",
    ],
    "graphs": ["Graph", "adjacency_matrix", "parse_graph", "read_graph", "spectral_range"],
    "reports": [
        "BoundReport",
        "KIND_ALPHA_RATIO_UB",
        "KIND_CHI_FRAC_LB",
        "KIND_CHI_LB",
        "SpectralRange",
        "alpha_ratio_ub",
        "bounds",
        "chi_frac_lb",
        "chi_lb",
    ],
    "simplex": ["simplex_maximize", "solve_matrix_game"],
    "specfun": ["bessel_first_zero", "bessel_j", "jacobi_sequence", "omega"],
    "sphere": [
        "EigenSequence",
        "SphereMeasure",
        "eigenvalue_sequence",
        "operator_range",
        "optimize_sphere_measure",
        "sphere_measure_from_json",
        "sphere_measure_to_json",
    ],
    "torus": ["circulant_range", "convergence_csv", "convergence_study"],
}
PUBLIC = [(name, module) for module, names in HOMES.items() for name in names]
CASES = {"graphs", "euclidean", "specfun", "simplex", "sphere", "torus"}


def _fresh_python(code, *args) -> str:
    """stdout of `python -c code args` in a new interpreter importing src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Prints the exit code and stdout of cli.run(argv) (null and "" without argv)
# and the loaded modules: numpy and hoffman's own, without "hoffman.".
_LOADED_SCRIPT = """
import contextlib, io, json, sys
import hoffman, hoffman.cli
code, out = None, io.StringIO()
if sys.argv[1:]:
    with contextlib.redirect_stdout(out):
        try:
            code = hoffman.cli.run(sys.argv[1:])
        except SystemExit as exc:  # --help
            code = exc.code
loaded = [m.split(".", 1)[1] for m in sys.modules if m.startswith("hoffman.")]
print(json.dumps([code, "numpy" in sys.modules, sorted(loaded), out.getvalue()]))
"""


def _loaded(*argv):
    return json.loads(_fresh_python(_LOADED_SCRIPT, *argv))


def test_import_loads_neither_numpy_nor_a_case():
    code, numpy, loaded, _ = _loaded()
    assert not numpy
    assert loaded == ["cli", "errors", "reports"]


@pytest.fixture
def inputs(tmp_path):
    (tmp_path / "c5.txt").write_text("0 1\n1 2\n2 3\n3 4\n4 0\n")
    (tmp_path / "radial.json").write_text(json.dumps({"dim": 3, "atoms": [[1.0, 0.6], [1.7, 0.4]]}))
    return tmp_path


# Per request, the case modules it must not load.
@pytest.mark.parametrize(
    "argv, absent",
    [
        (["finite", "{dir}/c5.txt"], CASES - {"graphs"}),
        (["sphere", "-n", "3", "-t", "-0.5"], {"graphs", "euclidean", "torus"}),
        (["euclidean", "{dir}/radial.json"], {"graphs", "sphere", "torus"}),
        (["unit-distance", "-n", "3"], {"graphs", "sphere", "torus"}),
        (["odd-distance", "--beta", "1.15", "-N", "5"], {"graphs", "sphere", "torus"}),
        (["optimize", "--mode", "radial", "--support", "1", "2"], {"graphs", "sphere", "torus"}),
        (["optimize", "--mode", "sphere", "--support", "-0.5"], {"graphs", "euclidean", "torus"}),
        (["torus", "--radii", "2", "--moduli", "8", "-n", "2"], {"graphs", "sphere"}),
    ],
    ids=["finite", "sphere", "euclidean", "unit-distance", "odd-distance", "optimize-radial",
         "optimize-sphere", "torus"],
)
def test_a_request_loads_only_its_own_case(inputs, argv, absent):
    code, numpy, loaded, _ = _loaded(*(a.replace("{dir}", str(inputs)) for a in argv))
    assert code == 0
    assert numpy
    assert not absent & set(loaded), argv


# A radial and a finite request, then what the process keeps of the sphere's
# Jacobi coefficients: specfun's kept alpha and rows (radial loads specfun
# for omega, so a KeyError here fails the test).
_KEPT_SCRIPT = """
import contextlib, io, json, sys
import hoffman.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [hoffman.cli.run(["euclidean", sys.argv[1]]), hoffman.cli.run(["finite", sys.argv[2]])]
specfun = sys.modules["hoffman.specfun"]
print(json.dumps([codes, len(specfun._jacobi_kept), specfun._jacobi_kept_rows]))
"""


def test_radial_and_finite_requests_keep_no_jacobi_coefficients(inputs):
    out = _fresh_python(_KEPT_SCRIPT, str(inputs / "radial.json"), str(inputs / "c5.txt"))
    assert json.loads(out) == [[0, 0], 0, 0]


def test_help_loads_no_numpy():
    code, numpy, loaded, out = _loaded("--help")
    assert code == 0
    assert all(name in out for name in hoffman.cli._DISPATCH)
    assert not numpy
    assert loaded == ["cli", "errors", "reports"]


def test_a_refused_option_loads_no_numpy():
    code, numpy, loaded, _ = _loaded("finite", "--no-such-flag", "c5.txt")
    assert code == 1
    assert not numpy
    assert loaded == ["cli", "errors", "reports"]


def test_all_is_the_sorted_public_names():
    assert hoffman.__all__ == sorted(name for name, _ in PUBLIC)


@pytest.mark.parametrize("name, module", PUBLIC)
def test_public_name_is_its_home_modules_object(name, module):
    home = importlib.import_module(f"hoffman.{module}")
    assert getattr(hoffman, name) is getattr(home, name)


def test_dir_and_star_import_cover_all():
    assert set(hoffman.__all__) <= set(dir(hoffman))
    namespace = {}
    exec("from hoffman import *", namespace)
    assert all(namespace[name] is getattr(hoffman, name) for name in hoffman.__all__)


def test_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'hoffman' has no attribute 'no_such_name'"):
        hoffman.no_such_name


def test_a_name_follows_its_home_module_and_is_not_cached(monkeypatch):
    import hoffman.graphs

    original = hoffman.graphs.spectral_range
    monkeypatch.setattr(hoffman.graphs, "spectral_range", len)
    assert hoffman.spectral_range is len
    monkeypatch.undo()
    assert hoffman.spectral_range is original
    assert "spectral_range" not in vars(hoffman)


def test_importing_a_submodule_binds_it_on_the_package():
    out = _fresh_python(
        "import sys, hoffman\n"
        "print(hasattr(hoffman, 'graphs'))\n"
        "import hoffman.graphs\n"
        "print(hoffman.graphs is sys.modules['hoffman.graphs'])\n"
    )
    assert out.split() == ["False", "True"]


def test_readme_python_blocks_run_in_a_fresh_interpreter():
    _fresh_python(
        "import re, sys\n"
        "text = open(sys.argv[1], encoding='utf-8').read()\n"
        "for block in re.findall(r'```python\\n(.*?)```', text, flags=re.DOTALL):\n"
        "    exec(compile(block, sys.argv[1], 'exec'), {})\n",
        str(ROOT / "README.md"),
    )
