"""Riesz and logarithmic interaction kernels with reference self-energies.

The pairwise interaction between unit charges at x and y in R^dim is

    k(x, y) = |x - y|^(alpha - dim)      for 0 < alpha < dim,
    k(x, y) = -log |x - y|               for alpha == dim.

Energies are full double integrals, I(mu, nu) = integral of k d(mu x nu),
with no 1/2 factor.  All reference self-energies below follow the same
convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import ValidationError

__all__ = [
    "KernelParams",
    "kernel_of_distance",
    "unit_sphere_area",
    "unit_ball_volume",
    "uniform_ball_self_energy",
    "unit_cube_self_energy",
    "DISK_SELF_ENERGY_COEFF",
    "SEGMENT_SELF_ENERGY_SHIFT",
]

# Self-energy of a uniformly charged unit-charge disk of radius a under the
# 1/r kernel is DISK_SELF_ENERGY_COEFF / a (full double integral).
DISK_SELF_ENERGY_COEFF = 16.0 / (3.0 * np.pi)

# Self-energy of a uniform unit-charge segment of length l under -log r is
# -log(l) + SEGMENT_SELF_ENERGY_SHIFT.
SEGMENT_SELF_ENERGY_SHIFT = 1.5


def unit_sphere_area(dim: int) -> float:
    """Surface measure of the unit sphere S^{dim-1} in R^dim (4*pi for dim 3)."""
    return float(2.0 * np.pi ** (0.5 * dim) / special.gamma(0.5 * dim))


def unit_ball_volume(dim: int) -> float:
    """Lebesgue volume of the unit ball in R^dim."""
    return float(np.pi ** (0.5 * dim) / special.gamma(0.5 * dim + 1.0))


@dataclass(frozen=True)
class KernelParams:
    """Kernel parameters: ambient dimension and interaction exponent.

    alpha must lie in (0, dim]; alpha == dim selects the logarithmic kernel.
    """

    dim: int
    alpha: float

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int) or self.dim < 2:
            raise ValidationError(f"dim must be an integer >= 2, got {self.dim!r}")
        if not 0.0 < self.alpha <= self.dim:
            raise ValidationError(
                f"alpha must lie in (0, dim] = (0, {self.dim}], got {self.alpha}"
            )

    @property
    def is_log(self) -> bool:
        return self.alpha == self.dim

    @property
    def pde_constant(self) -> float:
        """Normalization (dim - 2) * |S^{dim-1}| of the alpha = 2 kernel.

        4*pi in three dimensions.  Only defined in the Coulombic case.
        """
        if self.alpha != 2:
            raise ValidationError("pde_constant is defined only for alpha = 2")
        return (self.dim - 2) * unit_sphere_area(self.dim)


def kernel_of_distance(params: KernelParams, r, out=None):
    """Kernel value as a function of separation distance (vectorized).

    out, as for a numpy ufunc, receives the values; it may be r itself.
    """
    r = np.asarray(r, dtype=float)
    if params.is_log:
        return np.negative(np.log(r, out=out), out=out)
    return np.power(r, params.alpha - params.dim, out=out)


def _digamma_plus_euler(x: float) -> float:
    """psi(x) + Euler's gamma at a positive integer or half-integer x.

    psi(n) = -gamma + sum_{k<n} 1/k and psi(n + 1/2) = -gamma - 2 log 2
    + sum_{k<n} 1/(k + 1/2): finite harmonic sums.
    """
    start, value = (1.0, 0.0) if x == int(x) else (0.5, -2.0 * math.log(2.0))
    return value + sum(1.0 / (start + k) for k in range(int(x - start)))


@lru_cache(maxsize=None)
def uniform_ball_self_energy(dim: int, alpha: float) -> float:
    """Self-energy of the uniform unit-mass measure on the unit ball.

    Closed forms from the distance density of two uniform points in the
    ball, d r^(d-1) I_{1-r^2/4}((d+1)/2, 1/2) on [0, 2], integrated
    against the kernel:

        E = d 2^alpha B((d+1)/2, (alpha+1)/2) / (alpha B((d+1)/2, 1/2))
          = d 2^alpha G((alpha+1)/2) G(d/2+1) / (alpha sqrt(pi) G((d+alpha)/2+1))

    for alpha < d, and E = 1/d - log 2 + [psi(d+1) - psi((d+1)/2)]/2
    for the logarithmic kernel.  Equals 6/5 for (dim, alpha) = (3, 2)
    and 1/4 for the planar logarithmic disk.
    """
    params = KernelParams(dim, alpha)
    d, a = params.dim, params.alpha
    if params.is_log:
        psi_diff = _digamma_plus_euler(d + 1.0) - _digamma_plus_euler(0.5 * (d + 1.0))
        return 1.0 / d - math.log(2.0) + 0.5 * psi_diff
    return (
        d * 2.0**a * math.gamma(0.5 * (a + 1.0)) * math.gamma(0.5 * d + 1.0)
        / (a * math.sqrt(math.pi) * math.gamma(0.5 * (d + a) + 1.0))
    )


@lru_cache(maxsize=None)
def unit_cube_self_energy() -> float:
    """1/r self-energy of the uniform unit-charge measure on the unit cube.

    Octant reduction: with delta = x - y distributed with density
    prod(1 - |delta_i|) on [-1, 1]^3, pass to spherical coordinates so the
    radial integral is a polynomial and the integrand is bounded.
    """
    x, wq = np.polynomial.legendre.leggauss(400)
    th = 0.25 * np.pi * (x + 1.0)
    wth = 0.25 * np.pi * wq
    TH, LM = np.meshgrid(th, th, indexing="ij")
    W = np.outer(wth, wth) * np.sin(TH)
    w1 = np.sin(TH) * np.cos(LM)
    w2 = np.sin(TH) * np.sin(LM)
    w3 = np.cos(TH)
    T = 1.0 / np.maximum(np.maximum(w1, w2), w3)
    e1 = w1 + w2 + w3
    e2 = w1 * w2 + w1 * w3 + w2 * w3
    e3 = w1 * w2 * w3
    radial = T**2 / 2.0 - e1 * T**3 / 3.0 + e2 * T**4 / 4.0 - e3 * T**5 / 5.0
    return float(8.0 * np.sum(W * radial))
