"""Spectral bounds for the independence ratio and chromatic number.

Hoffman-type bounds computed from the extreme spectrum of adjacency-like
operators, for four families: finite graphs, translation-invariant graphs
on R^n with forbidden distances, distance graphs on the unit sphere, and
annulus circulants on Z_m^n.  Each family's range function (spectral_range
of a Graph, radial_range, unit_distance_range, operator_range,
circulant_range) returns one SpectralRange, which carries the evidence it
was read from in its provenance; the two optimizers return (measure,
SpectralRange).  bounds(rng, chi_lb, ...) turns a range into BoundReports.

``import hoffman`` loads no module of the package and not numpy: each public
name is looked up in its home module (``_HOMES``) on access, which imports
that module and what it needs, so ``from hoffman import Graph`` loads the
finite case alone.  Names are not cached here; every access reads the home
module, so a function replaced there is replaced here too.  The command line
(hoffman.cli) loads only errors and reports up front, and each subcommand
imports only its own case when it runs.
"""

import importlib

__version__ = "1.0.0"

_HOMES = {
    "errors": (
        "BoundInapplicableError",
        "ConvergenceError",
        "NoNegativeSpectrumError",
        "SpectralBoundError",
        "UncertifiedRangeError",
        "VacuousBoundError",
    ),
    "euclidean": (
        "RadialMeasure",
        "fourier_radial",
        "optimize_radial_measure",
        "radial_measure_from_json",
        "radial_measure_to_json",
        "radial_range",
        "steinhardt_measure",
        "unit_distance_range",
    ),
    "graphs": ("Graph", "adjacency_matrix", "parse_graph", "read_graph", "spectral_range"),
    "reports": (
        "KIND_ALPHA_RATIO_UB",
        "KIND_CHI_FRAC_LB",
        "KIND_CHI_LB",
        "BoundReport",
        "SpectralRange",
        "alpha_ratio_ub",
        "bounds",
        "chi_frac_lb",
        "chi_lb",
    ),
    "simplex": ("simplex_maximize", "solve_matrix_game"),
    "specfun": ("bessel_first_zero", "bessel_j", "jacobi_sequence", "omega"),
    "sphere": (
        "EigenSequence",
        "SphereMeasure",
        "eigenvalue_sequence",
        "operator_range",
        "optimize_sphere_measure",
        "sphere_measure_from_json",
        "sphere_measure_to_json",
    ),
    "torus": ("circulant_range", "convergence_csv", "convergence_study"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
