"""Boundary-value-corrected Lagrange multiplier and Nitsche FEM.

2D Poisson solvers on curved domains whose boundaries are approximated by
straight facets (chord polygons, staircases), with the facet-to-boundary
distance folded back into the boundary condition so that affine cells
recover optimal convergence orders up to cubic elements.

The `bvcfem` logger is silent unless the application configures logging.
"""

import logging

from .analysis import (
    DegenerateFit,
    ErrorReport,
    RateFit,
    TooLarge,
    error_report,
    error_triple_norm,
    field_l2_norm,
    fit_rates,
    geometry_report,
    infsup_diagnostic,
    l2_h1_errors,
    multiplier_error,
)
from .assembly import (
    DimensionMismatch,
    System,
    assemble_nitsche,
    assemble_saddle,
    boundary_mass_primal,
    dump_matrix,
    dump_system,
    load_vector,
    stiffness_matrix,
)
from .geometry import (
    GeometryError,
    ImplicitDomain,
    NoConvergence,
    NoIntersection,
    ZeroGradient,
    closest_point,
    exact_normal,
    make_ellipse_domain,
    make_polygon_domain,
    make_ring_domain,
    make_square_domain,
    ray_distance_batch,
)
from .mesh import (
    EmptyMesh,
    FacetGeometry,
    InvalidResolution,
    Mesh,
    MeshError,
    build_annulus_mesh,
    build_square_mesh,
    build_staircase_mesh,
    mesh_from_arrays,
    precompute_boundary_geometry,
)
from .solver import SingularSystem, SolutionField, SolverError, solve, solve_linear
from .spaces import (
    MultiplierSpace,
    PrimalSpace,
    QuadratureRule,
    UnsupportedDegree,
    UnsupportedOrder,
    build_multiplier_space,
    build_primal_space,
    quadrature,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

# The study driver is imported on first use (PEP 562), so that
# `python -m bvcfem.study` does not find it already imported by the package.
_STUDY_NAMES = {
    "PRESETS", "StudyConfig", "StudyResult", "emit_csv", "emit_plots",
    "run_preset", "run_study",
}


def __getattr__(name):
    if name in _STUDY_NAMES:
        from . import study

        return getattr(study, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
