"""Dense interaction operators on node clouds.

The operator K maps nodal masses to nodal potentials, K[i, j] being the
kernel evaluated between nodes i and j.  The diagonal replaces the
singular self term by the exact mean self-interaction of a uniformly
charged patch of the node's own measure: a flat disk of the cell's area
on surfaces in 3d, a straight segment of the cell's length on curves in
2d, and the equal-volume ball for volume cells.  With these diagonals,
m.T @ K @ m is an accurate estimate of the full double interaction
integral, and the ball and circle oracles hold at the percent level by
M around 2000.

The matrix is the operator's only n^2 buffer: the kernel is evaluated
in place over the pairwise distances.  KernelOperator.solve hands the
operator to the one constrained solve of dropcap.linalg: for the Riesz
kernels that uses only products with K, caching the n values K^-1 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .clouds import NodeCloud
from .errors import UnsupportedConfigurationError, ValidationError
from .kernels import (
    DISK_SELF_ENERGY_COEFF,
    SEGMENT_SELF_ENERGY_SHIFT,
    KernelParams,
    kernel_of_distance,
    uniform_ball_self_energy,
    unit_ball_volume,
)
from .linalg import cg_solve, constrained_solve, symv

__all__ = [
    "KernelOperator",
    "assemble_operator",
    "diagonal_self_energy",
    "potential_at",
]


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """Symmetric kernel matrix with its cloud and kernel provenance.

    K^-1 1 is computed on first use and kept, so every solve against one
    operator shares a single conjugate-gradient solve of K x = 1.
    """

    matrix: np.ndarray
    cloud: NodeCloud
    params: KernelParams

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.matrix, dtype=float))
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("operator matrix must be square")
        if m.shape[0] != self.cloud.n_nodes:
            raise ValidationError("operator size must match the cloud")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def inverse_ones(self) -> np.ndarray | None:
        """K^-1 1 by conjugate gradients, or None.

        These are the masses whose potential is 1 at every node.  None
        for the planar logarithmic kernel, which is only conditionally
        positive definite, and when CG fails; those operators are solved
        through the bordered system.
        """
        if self.params.is_log:
            return None
        x = cg_solve(self.apply, np.ones(self.n_nodes))
        if x is not None:
            x.setflags(write=False)  # shared by every solve on this operator
        return x

    def apply(self, masses) -> np.ndarray:
        return symv(self.matrix, masses)

    def solve(self, rhs, total: float) -> tuple[np.ndarray, float]:
        """x and lambda with K x = rhs + lambda 1 and sum(x) = total.

        Reuses the cached K^-1 1; without it (the planar log kernel, or
        CG failed on K x = 1) the solve goes through the bordered LU.
        """
        w1 = self.inverse_ones
        apply = None if w1 is None else self.apply
        return constrained_solve(lambda: self.matrix, rhs, total, apply, w1)

    def energy(self, masses) -> float:
        """Full double interaction integral of a nodal measure."""
        m = np.asarray(masses, dtype=float)
        return float(m @ symv(self.matrix, m))


def diagonal_self_energy(cloud: NodeCloud, params: KernelParams) -> np.ndarray:
    """Mean self-interaction of each node's own cell under the kernel."""
    w = cloud.weights
    if cloud.role == "boundary":
        if cloud.dim == 3 and params.alpha == 2.0:
            return DISK_SELF_ENERGY_COEFF * np.sqrt(np.pi / w)
        if cloud.dim == 2 and params.is_log:
            return -np.log(w) + SEGMENT_SELF_ENERGY_SHIFT
        raise UnsupportedConfigurationError(
            "boundary diagonal rules exist for the inverse-distance kernel on "
            "surfaces in 3d and the logarithmic kernel on curves in 2d; use a "
            f"volume cloud for dim={cloud.dim}, alpha={params.alpha}"
        )
    # volume cells: replace each cell by the ball of equal volume
    a = (w / unit_ball_volume(cloud.dim)) ** (1.0 / cloud.dim)
    if params.is_log:
        return uniform_ball_self_energy(cloud.dim, params.alpha) - np.log(a)
    return uniform_ball_self_energy(cloud.dim, params.alpha) * a ** (
        params.alpha - cloud.dim
    )


def assemble_operator(cloud: NodeCloud, params: KernelParams) -> KernelOperator:
    """Kernel matrix over a cloud with the desingularized diagonal."""
    from scipy.spatial.distance import cdist

    if params.dim != cloud.dim:
        raise ValidationError(
            f"kernel dimension {params.dim} does not match cloud dimension {cloud.dim}"
        )
    dist = cdist(cloud.points, cloud.points)
    np.fill_diagonal(dist, 1.0)
    # the kernel overwrites the distances: the operator holds one n^2 buffer
    K = kernel_of_distance(params, dist, out=dist)
    np.fill_diagonal(K, diagonal_self_energy(cloud, params))
    if not np.all(np.isfinite(K)):
        raise ValidationError("operator has non-finite entries; nodes may coincide")
    return KernelOperator(matrix=K, cloud=cloud, params=params)


def potential_at(
    params: KernelParams, cloud: NodeCloud, masses, targets
) -> np.ndarray:
    """Potential of a nodal measure at arbitrary points.

    A target within 1e-12 of the cloud's extent from a node counts as
    landing on it, and picks up that node's desingularized self term
    instead of the singular kernel value.
    """
    from scipy.spatial.distance import cdist

    masses = np.asarray(masses, dtype=float)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if masses.shape != (cloud.n_nodes,):
        raise ValidationError("need one mass per node")
    if targets.shape[1] != cloud.dim:
        raise ValidationError("target dimension does not match cloud")
    dist = cdist(targets, cloud.points)
    hit = dist <= 1e-12 * float(np.ptp(cloud.points, axis=0).max())
    if hit.any():
        dist = np.where(hit, 1.0, dist)
    ker = kernel_of_distance(params, dist)
    if hit.any():
        diag = diagonal_self_energy(cloud, params)
        ker[hit] = np.broadcast_to(diag, ker.shape)[hit]
    return ker @ masses
