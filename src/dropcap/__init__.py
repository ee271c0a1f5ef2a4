"""Riesz equilibrium measures, capacities, and charged-drop stability tools."""

import os as _os

# Thread budget for the underlying BLAS; must land before numpy loads.
_threads = _os.environ.get("DROPCAP_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .clouds import NodeCloud, default_role, discretize, voronoi_patch_areas
from .entropic import (
    DensityResult,
    entropic_ball_value,
    entropic_energy,
    radial_density_profile,
    solve_entropic,
)
from .equilibrium import (
    DropEnergy,
    EquilibriumResult,
    Measure,
    capacity_from_energy,
    drop_energy,
    equilibrium_measure,
    farfield_check,
    solve_shape,
    support_profile,
)
from .errors import (
    ConstraintViolationError,
    DiscretizationError,
    DropcapError,
    NonConvergenceError,
    UnsupportedConfigurationError,
    ValidationError,
)
from .external_field import (
    FieldResult,
    LinearPotential,
    SignedMeasure,
    field_energy,
    induced_charge,
    solve_external,
    verify_optimality,
)
from .instability import (
    FamilyPoint,
    StabilityScan,
    convex_scan_2d,
    fuglede_check,
    lemma_ratio_check,
    many_balls_family,
    perimeter_expansion_coefficients,
    rayleigh_scan,
    rayleigh_threshold_mode,
    slab_family,
    two_balls_field_family,
)
from .kernels import (
    KernelParams,
    kernel_of_distance,
    uniform_ball_self_energy,
    unit_ball_volume,
    unit_cube_self_energy,
    unit_sphere_area,
)
from .operators import KernelOperator, assemble_operator, potential_at
from .shapes import (
    Annulus,
    Ball,
    Box,
    ConvexPolygon2D,
    NearlySpherical,
    Shape,
    UnionOfBalls,
    perimeter,
    renormalize_to_unit_volume,
    shape_from_dict,
    shape_from_json,
    shape_to_dict,
    shape_to_json,
    symmetric_difference_to_unit_ball,
    volume,
)

__version__ = "0.1.0"

__all__ = [
    "Annulus",
    "Ball",
    "Box",
    "ConstraintViolationError",
    "ConvexPolygon2D",
    "DensityResult",
    "DiscretizationError",
    "DropEnergy",
    "DropcapError",
    "EquilibriumResult",
    "FamilyPoint",
    "FieldResult",
    "KernelOperator",
    "KernelParams",
    "LinearPotential",
    "Measure",
    "NearlySpherical",
    "NodeCloud",
    "NonConvergenceError",
    "Shape",
    "SignedMeasure",
    "StabilityScan",
    "UnionOfBalls",
    "UnsupportedConfigurationError",
    "ValidationError",
    "assemble_operator",
    "capacity_from_energy",
    "convex_scan_2d",
    "default_role",
    "discretize",
    "drop_energy",
    "entropic_ball_value",
    "entropic_energy",
    "equilibrium_measure",
    "farfield_check",
    "field_energy",
    "fuglede_check",
    "induced_charge",
    "kernel_of_distance",
    "lemma_ratio_check",
    "many_balls_family",
    "perimeter",
    "perimeter_expansion_coefficients",
    "potential_at",
    "radial_density_profile",
    "rayleigh_scan",
    "rayleigh_threshold_mode",
    "renormalize_to_unit_volume",
    "shape_from_dict",
    "shape_from_json",
    "shape_to_dict",
    "shape_to_json",
    "slab_family",
    "solve_entropic",
    "solve_external",
    "solve_shape",
    "support_profile",
    "symmetric_difference_to_unit_ball",
    "two_balls_field_family",
    "uniform_ball_self_energy",
    "unit_ball_volume",
    "unit_cube_self_energy",
    "unit_sphere_area",
    "verify_optimality",
    "volume",
    "voronoi_patch_areas",
]
