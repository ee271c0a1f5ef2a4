"""Entropy-penalized charge energy on a three-dimensional body.

The functional adds a quadratic density penalty to the field energy of
the charge.  For a unit charge with volume density rho on the body,

    J = min over densities of  (1/4 pi) I(rho, rho) + integral of rho^2,

the 1/4 pi converting the Coulomb double integral into the Dirichlet
energy of the potential solving -laplace v = rho.  The penalty keeps
minimizers bounded and spread through the volume, so this is computed
on volume clouds with cell volumes V:

    minimize m.T G m,  G = K/(4 pi) + diag(1/V),  sum(m) = 1,

with the sign left unconstrained: one unit-charge solve against the
positive definite 2G, m = (2G)^-1 1 / 1'(2G)^-1 1, which is the
constrained solve of dropcap.linalg with rhs 0 and total 1.  2G is well
conditioned (about 1.4 on the unit ball), and conjugate gradients solve
it in a few products (1/2 pi) K x + (2/V) x, never forming 2G; only if
CG fails is 2G built, for the bordered LU.  The true
minimizer comes out nonnegative on its own, and nonnegativity is
reported as a diagnostic rather than enforced.  At the optimum the
Euler-Lagrange relation (1/2 pi) v_i + 2 rho_i = lambda holds at every
node and J = lambda / 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import shapes as shp
from .clouds import NodeCloud, discretize
from .equilibrium import _radial_shells
from .errors import UnsupportedConfigurationError, ValidationError
from .kernels import KernelParams
from .linalg import constrained_solve, symv
from .operators import assemble_operator

__all__ = [
    "DensityResult",
    "EntropicEnergy",
    "solve_entropic",
    "entropic_energy",
    "entropic_ball_value",
    "radial_density_profile",
]


@dataclass(frozen=True, eq=False)
class DensityResult:
    """Minimizer of the entropy-penalized energy on a volume cloud."""

    cloud: NodeCloud
    density: np.ndarray
    J_value: float
    multiplier: float
    el_residual: float
    coulomb_part: float
    penalty_part: float

    @property
    def masses(self) -> np.ndarray:
        return self.density * self.cloud.weights

    def summary(self) -> dict:
        return {
            "n_nodes": self.cloud.n_nodes,
            "J_value": self.J_value,
            "multiplier": self.multiplier,
            "el_residual": self.el_residual,
            "coulomb_part": self.coulomb_part,
            "penalty_part": self.penalty_part,
            "min_density": float(self.density.min()),
            "max_density": float(self.density.max()),
        }


def solve_entropic(cloud: NodeCloud) -> DensityResult:
    """Entropy-penalized unit charge on a volume cloud of a 3d body."""
    if cloud.role != "volume":
        raise ValidationError("the entropy-penalized energy needs a volume cloud")
    if cloud.dim != 3:
        raise UnsupportedConfigurationError(
            "the entropy-penalized energy is posed in dimension 3"
        )
    params = KernelParams(3, 2.0)
    K = assemble_operator(cloud, params).matrix
    coulomb, penalty = 2.0 / params.pde_constant, 2.0 / cloud.weights

    def two_g():
        A = K * coulomb
        A.flat[:: cloud.n_nodes + 1] += penalty
        return A

    m, lam = constrained_solve(
        two_g, np.zeros(cloud.n_nodes), 1.0, lambda v: coulomb * symv(K, v) + penalty * v
    )
    Km = symv(K, m)
    Gm = Km / params.pde_constant + m / cloud.weights
    value = float(m @ Gm)
    el = float(np.max(np.abs(2.0 * Gm - lam)))
    coulomb = float(m @ Km) / params.pde_constant
    penalty = float(np.sum(m * m / cloud.weights))
    return DensityResult(
        cloud=cloud,
        density=m / cloud.weights,
        J_value=value,
        multiplier=lam,
        el_residual=el,
        coulomb_part=coulomb,
        penalty_part=penalty,
    )


@dataclass(frozen=True)
class EntropicEnergy:
    """Perimeter plus charge-squared times the penalized energy."""

    perimeter: float
    charge: float
    J_value: float
    total: float
    el_residual: float

    @classmethod
    def of(
        cls, shape: shp.Shape, charge: float, result: DensityResult
    ) -> EntropicEnergy:
        """Drop energy of a shape from its solved penalized density."""
        per = shp.perimeter(shape)
        q = float(charge)
        return cls(
            perimeter=per,
            charge=q,
            J_value=result.J_value,
            total=per + q * q * result.J_value,
            el_residual=result.el_residual,
        )


def entropic_energy(shape: shp.Shape, charge: float, n_nodes: int = 2000) -> EntropicEnergy:
    """Drop energy with the entropy-penalized interaction term."""
    cloud = discretize(shape, n_nodes, "volume")
    return EntropicEnergy.of(shape, charge, solve_entropic(cloud))


def entropic_ball_value(radius: float) -> float:
    """Closed form of the penalized energy on a ball.

    The radial Euler-Lagrange system reduces to a screened Poisson
    two-point problem whose solution gives

        J(B_R) = cosh R / (4 pi (R cosh R - sinh R)).
    """
    R = float(radius)
    if R <= 0:
        raise ValidationError("radius must be positive")
    return float(np.cosh(R) / (4.0 * np.pi * (R * np.cosh(R) - np.sinh(R))))


def radial_density_profile(result: DensityResult, n_bins: int = 20):
    """Mean density in equal-width radial shells around the body center."""
    return [
        {
            "r_min": lo,
            "r_max": hi,
            "mean_density": float(result.density[sel].mean()) if sel.any() else 0.0,
            "mass": float(result.masses[sel].sum()),
        }
        for lo, hi, sel in _radial_shells(result.cloud, n_bins)
    ]
