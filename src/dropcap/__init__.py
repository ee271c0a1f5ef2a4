"""Riesz equilibrium measures, capacities, and charged-drop stability tools.

Every public name loads on first use (PEP 562): ``import dropcap`` costs
no numpy, and ``dropcap.discretize`` imports ``dropcap.clouds`` when it
is first read.  Nothing is copied into this namespace, so a name
replaced on its submodule is seen here at once.
"""

import importlib as _importlib
import os as _os

# Thread budget: DROPCAP_THREADS as a count, 0 where it is unset or not
# one.  It sets the BLAS thread counts, which must land before numpy
# loads, and the threads of the operator assembly (dropcap.operators).
# An idle OpenBLAS worker then spins for 2^18 cycles (about 0.1 ms)
# before it sleeps, not the default ~0.1 s, so it does not hold a core
# the assembly's threads need.
_threads = _os.environ.get("DROPCAP_THREADS", "")
_threads = int(_threads) if _threads.isdecimal() else 0
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, str(_threads))
    _os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "18")

__version__ = "0.1.0"

# submodule -> the public names it exports
_EXPORTS = {
    "clouds": ("NodeCloud", "default_role", "discretize", "voronoi_patch_areas"),
    "entropic": (
        "DensityResult",
        "entropic_ball_value",
        "entropic_energy",
        "radial_density_profile",
        "solve_entropic",
    ),
    "equilibrium": (
        "DropEnergy",
        "EquilibriumResult",
        "Measure",
        "capacity_from_energy",
        "drop_energy",
        "equilibrium_measure",
        "farfield_check",
        "solve_shape",
        "support_profile",
    ),
    "errors": (
        "ConstraintViolationError",
        "DiscretizationError",
        "DropcapError",
        "NonConvergenceError",
        "UnsupportedConfigurationError",
        "ValidationError",
    ),
    "external_field": (
        "FieldResult",
        "LinearPotential",
        "SignedMeasure",
        "field_energy",
        "induced_charge",
        "solve_external",
        "verify_optimality",
    ),
    "instability": (
        "FamilyPoint",
        "StabilityScan",
        "convex_scan_2d",
        "fuglede_check",
        "lemma_ratio_check",
        "many_balls_family",
        "perimeter_expansion_coefficients",
        "rayleigh_scan",
        "rayleigh_threshold_mode",
        "slab_family",
        "two_balls_field_family",
    ),
    "kernels": (
        "KernelParams",
        "kernel_of_distance",
        "uniform_ball_self_energy",
        "unit_ball_volume",
        "unit_cube_self_energy",
        "unit_sphere_area",
    ),
    "operators": ("KernelOperator", "assemble_operator", "potential_at"),
    "shapes": (
        "Annulus",
        "Ball",
        "Box",
        "ConvexPolygon2D",
        "NearlySpherical",
        "Shape",
        "UnionOfBalls",
        "perimeter",
        "renormalize_to_unit_volume",
        "shape_from_dict",
        "shape_from_json",
        "shape_to_dict",
        "shape_to_json",
        "symmetric_difference_to_unit_ball",
        "volume",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli", "harmonics", "linalg", "reports"})

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _OWNER:
        return getattr(_importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    if name in _SUBMODULES:
        return _importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
