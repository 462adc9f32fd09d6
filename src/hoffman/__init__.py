"""Spectral bounds for the independence ratio and chromatic number.

Hoffman-type bounds computed from the extreme spectrum of adjacency-like
operators, for four families: finite graphs, translation-invariant graphs
on R^n with forbidden distances, distance graphs on the unit sphere, and
annulus circulants on Z_m^n.  Each family's range function (spectral_range
of a Graph, radial_range, unit_distance_range, operator_range,
circulant_range) returns one SpectralRange, and bounds(rng, chi_lb, ...)
turns it into BoundReports.
"""

from .errors import (
    BoundInapplicableError,
    ConvergenceError,
    NoNegativeSpectrumError,
    SpectralBoundError,
    UncertifiedRangeError,
    VacuousBoundError,
)
from .euclidean import (
    ExtremaReport,
    RadialMeasure,
    fourier_radial,
    global_extrema,
    optimize_radial_measure,
    radial_measure_from_json,
    radial_measure_to_json,
    radial_range,
    steinhardt_measure,
    unit_distance_range,
)
from .graphs import (
    Graph,
    adjacency_matrix,
    parse_graph,
    read_graph,
    spectral_range,
)
from .reports import (
    KIND_ALPHA_RATIO_UB,
    KIND_CHI_FRAC_LB,
    KIND_CHI_LB,
    BoundReport,
    SpectralRange,
    alpha_ratio_ub,
    bounds,
    chi_frac_lb,
    chi_lb,
)
from .simplex import simplex_maximize, solve_matrix_game
from .specfun import (
    bessel_first_zero,
    bessel_j,
    jacobi_sequence,
    omega,
)
from .sphere import (
    EigenSequence,
    SphereMeasure,
    eigenvalue_sequence,
    operator_range,
    optimize_sphere_measure,
    sphere_measure_from_json,
    sphere_measure_to_json,
)
from .torus import circulant_range, convergence_csv, convergence_study

__version__ = "1.0.0"

__all__ = [
    "BoundInapplicableError",
    "BoundReport",
    "ConvergenceError",
    "EigenSequence",
    "ExtremaReport",
    "Graph",
    "KIND_ALPHA_RATIO_UB",
    "KIND_CHI_FRAC_LB",
    "KIND_CHI_LB",
    "NoNegativeSpectrumError",
    "RadialMeasure",
    "SpectralBoundError",
    "SpectralRange",
    "SphereMeasure",
    "UncertifiedRangeError",
    "VacuousBoundError",
    "adjacency_matrix",
    "alpha_ratio_ub",
    "bessel_first_zero",
    "bessel_j",
    "bounds",
    "chi_frac_lb",
    "chi_lb",
    "circulant_range",
    "convergence_csv",
    "convergence_study",
    "eigenvalue_sequence",
    "fourier_radial",
    "global_extrema",
    "jacobi_sequence",
    "omega",
    "operator_range",
    "optimize_radial_measure",
    "optimize_sphere_measure",
    "parse_graph",
    "radial_measure_from_json",
    "radial_measure_to_json",
    "radial_range",
    "read_graph",
    "simplex_maximize",
    "solve_matrix_game",
    "spectral_range",
    "sphere_measure_from_json",
    "sphere_measure_to_json",
    "steinhardt_measure",
    "unit_distance_range",
]
