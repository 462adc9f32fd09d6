"""Spectral bounds for the independence ratio and chromatic number.

Hoffman-type bounds computed from the extreme spectrum of adjacency-like
operators, for three families: finite graphs, translation-invariant graphs
on R^n with forbidden distances, and distance graphs on the unit sphere.
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
    chromatic_bound_euclidean,
    density_bound,
    fourier_radial,
    global_extrema,
    optimize_radial_measure,
    radial_measure_from_json,
    radial_measure_to_json,
    steinhardt_measure,
    unit_distance_bound,
)
from .graphs import (
    Graph,
    adjacency_matrix,
    fractional_chi_bound,
    hoffman_chi_bound,
    parse_graph,
    ratio_bound,
    read_graph,
)
from .reports import (
    KIND_ALPHA_RATIO_UB,
    KIND_CHI_FRAC_LB,
    KIND_CHI_LB,
    BoundReport,
    SpectralRange,
    alpha_ratio_ub,
    chi_frac_lb,
    chi_lb,
)
from .simplex import simplex_maximize, solve_matrix_game
from .specfun import (
    JacobiParams,
    bessel_first_zero,
    bessel_j,
    jacobi_sequence,
    omega,
)
from .spectral import SymMatrix, numerical_range
from .sphere import (
    EigenSequence,
    SphereMeasure,
    eigenvalue_sequence,
    operator_range,
    optimize_sphere_measure,
    single_t_bounds,
    sphere_measure_from_json,
    sphere_measure_to_json,
)
from .torus import (
    CirculantGraph,
    build_torus_graph,
    circulant_spectrum,
    convergence_csv,
    convergence_study,
)

__version__ = "1.0.0"

__all__ = [
    "BoundInapplicableError",
    "BoundReport",
    "CirculantGraph",
    "ConvergenceError",
    "EigenSequence",
    "ExtremaReport",
    "Graph",
    "JacobiParams",
    "KIND_ALPHA_RATIO_UB",
    "KIND_CHI_FRAC_LB",
    "KIND_CHI_LB",
    "NoNegativeSpectrumError",
    "RadialMeasure",
    "SpectralBoundError",
    "SpectralRange",
    "SphereMeasure",
    "SymMatrix",
    "UncertifiedRangeError",
    "VacuousBoundError",
    "adjacency_matrix",
    "alpha_ratio_ub",
    "bessel_first_zero",
    "bessel_j",
    "build_torus_graph",
    "chi_frac_lb",
    "chi_lb",
    "chromatic_bound_euclidean",
    "circulant_spectrum",
    "convergence_csv",
    "convergence_study",
    "density_bound",
    "eigenvalue_sequence",
    "fourier_radial",
    "fractional_chi_bound",
    "global_extrema",
    "hoffman_chi_bound",
    "jacobi_sequence",
    "numerical_range",
    "omega",
    "operator_range",
    "optimize_radial_measure",
    "optimize_sphere_measure",
    "parse_graph",
    "radial_measure_from_json",
    "radial_measure_to_json",
    "ratio_bound",
    "read_graph",
    "simplex_maximize",
    "single_t_bounds",
    "solve_matrix_game",
    "sphere_measure_from_json",
    "sphere_measure_to_json",
    "steinhardt_measure",
    "unit_distance_bound",
]
