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
positive definite 2G by Cholesky, m = (2G)^-1 1 / 1'(2G)^-1 1.  The true
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
from .errors import UnsupportedConfigurationError, ValidationError
from .kernels import KernelParams
from .linalg import bordered_solve, spd_factor, symv, unit_charge_solve
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

    def two_g():
        A = K * (2.0 / params.pde_constant)
        A.flat[:: A.shape[0] + 1] += 2.0 / cloud.weights
        return A

    factor = spd_factor(two_g(), overwrite=True)
    if factor is not None:
        m, lam = unit_charge_solve(factor)
    else:
        m, lam = bordered_solve(two_g())
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

    def summary(self) -> dict:
        return {
            "perimeter": self.perimeter,
            "charge": self.charge,
            "J_value": self.J_value,
            "total": self.total,
            "el_residual": self.el_residual,
        }


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
    shape = result.cloud.shape
    if isinstance(shape, (shp.Ball, shp.Annulus, shp.Box)):
        center = np.array(shape.center, dtype=float)
    else:
        center = result.cloud.points.mean(axis=0)
    r = np.linalg.norm(result.cloud.points - center, axis=1)
    edges = np.linspace(0.0, float(r.max()) * (1.0 + 1e-12), n_bins + 1)
    out = []
    for i in range(n_bins):
        sel = (r >= edges[i]) & (r < edges[i + 1])
        out.append(
            {
                "r_min": float(edges[i]),
                "r_max": float(edges[i + 1]),
                "mean_density": float(result.density[sel].mean()) if sel.any() else 0.0,
                "mass": float(result.masses[sel].sum()),
            }
        )
    return out
