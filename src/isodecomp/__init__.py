"""Exact-arithmetic analysis of rational polytopes against necessary
conditions for local maximizers of the isotropic constant."""

from .decomp import (
    ComponentReport,
    DependenceSpace,
    FacewiseAffineSpace,
    SymmetryGroup,
    dependence_space,
    facewise_affine_space,
    hypergraph_components,
    smilansky_dimension,
    summand_pair,
    symmetry_analysis,
    threshold_check,
)
from .exactnum import Matrix, determinant, kernel_basis, rref_rank
from .moments import (
    IsotropyReport,
    MomentData,
    body_moments,
    isotropy,
)
from .polytope import (
    Facet,
    Polytope,
    affine_image,
    gauge_value,
    hull_facets,
    minkowski_sum,
    polar,
    support_value,
    validate,
)
from .variations import (
    DerivativeReport,
    ShadowSystem,
    boundary_first_derivatives,
    boundary_second_derivatives,
    eps_bound,
    gap_integral,
    kernel_direction,
    lk_second_derivative,
    radial_moments,
    radial_polytope,
    rs_speed_space,
    shadow_polytope,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
