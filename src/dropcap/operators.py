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

The matrix is the operator's only n^2 buffer.  assemble_operator fills
it in one pass over row blocks of the lower triangle: a block of
pairwise distances, held in one reused buffer, becomes kernel values in
place and is stored with its transpose, so each entry is computed once.
potential_at runs its targets through the same row blocks, holding one
block of kernel values at a time.  KernelOperator.solve hands the
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

# Rows per block of the assembly and of potential_at: each block of
# distances becomes kernel values in one reused BLOCK_ROWS x n buffer
# before the next is computed.  Chosen from the assembly times by block
# height recorded in CHANGES.md.
BLOCK_ROWS = 128


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
        return self._inverse_ones()

    def _inverse_ones(self, screen=None) -> np.ndarray | None:
        if self.params.is_log:
            return None
        x = cg_solve(self.apply, np.ones(self.n_nodes), screen)
        if x is not None:
            x.setflags(write=False)  # shared by every solve on this operator
        return x

    def apply(self, masses) -> np.ndarray:
        return symv(self.matrix, masses)

    def solve(self, rhs, total: float, screen=None) -> tuple[np.ndarray, float]:
        """x and lambda with K x = rhs + lambda 1 and sum(x) = total.

        Reuses the cached K^-1 1; without it (the planar log kernel, or
        CG failed on K x = 1) the solve goes through the bordered LU.
        screen screens the CG run for K^-1 1 if none is cached yet
        (cg_solve): a run that finishes is cached, one the screen
        rejects raises ScreenedOut and caches nothing.
        """
        if screen is not None and "inverse_ones" not in vars(self):
            # fill the inverse_ones cache, unless the screen stops the run
            vars(self)["inverse_ones"] = self._inverse_ones(screen)
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


def _distance_blocks(rows, cols, lower: bool = False):
    """Row blocks of the distances from rows to cols, in one reused buffer.

    Yields (i0, i1, block) with block[k, j] = |rows[i0 + k] - cols[j]|
    over every col, or over cols[:i1] when lower (the lower triangle of
    a square, the diagonal included).  Each block is overwritten by the
    next, so the caller finishes with it first.
    """
    from scipy.spatial.distance import cdist

    n = len(rows)
    buf = np.empty(min(n, BLOCK_ROWS) * len(cols))
    for i0 in range(0, n, BLOCK_ROWS):
        i1 = min(i0 + BLOCK_ROWS, n)
        c = cols[:i1] if lower else cols
        block = buf[: (i1 - i0) * len(c)].reshape(i1 - i0, len(c))
        yield i0, i1, cdist(rows[i0:i1], c, out=block)


def assemble_operator(cloud: NodeCloud, params: KernelParams) -> KernelOperator:
    """Kernel matrix over a cloud with the desingularized diagonal.

    One pass over row blocks of the lower triangle: each block's
    distances become kernel values in place, the block's diagonal gets
    the self-energies, and the block is stored with its transpose, so
    each entry is computed once and K is exactly symmetric.
    """
    if params.dim != cloud.dim:
        raise ValidationError(
            f"kernel dimension {params.dim} does not match cloud dimension {cloud.dim}"
        )
    diag = diagonal_self_energy(cloud, params)
    n = cloud.n_nodes
    K = np.empty((n, n))
    for i0, i1, block in _distance_blocks(cloud.points, cloud.points, lower=True):
        on_diag = block[:, i0:i1]  # a view: fill_diagonal writes into block
        np.fill_diagonal(on_diag, 1.0)
        kernel_of_distance(params, block, out=block)
        np.fill_diagonal(on_diag, diag[i0:i1])
        if not np.isfinite(block).all():
            raise ValidationError("operator has non-finite entries; nodes may coincide")
        K[i0:i1, :i1] = block
        K[:i1, i0:i1] = block.T
    return KernelOperator(matrix=K, cloud=cloud, params=params)


def potential_at(
    params: KernelParams, cloud: NodeCloud, masses, targets
) -> np.ndarray:
    """Potential of a nodal measure at arbitrary points.

    A target within 1e-12 of the cloud's extent from a node counts as
    landing on it, and picks up that node's desingularized self term
    instead of the singular kernel value.  The targets go in row blocks,
    so memory stays one block of kernel values whatever their number.
    """
    masses = np.asarray(masses, dtype=float)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if masses.shape != (cloud.n_nodes,):
        raise ValidationError("need one mass per node")
    if targets.shape[1] != cloud.dim:
        raise ValidationError("target dimension does not match cloud")
    tol = 1e-12 * float(np.ptp(cloud.points, axis=0).max())
    diag = None
    values = np.empty(len(targets))
    for i0, i1, block in _distance_blocks(targets, cloud.points):
        rows, cols = np.nonzero(block <= tol)
        block[rows, cols] = 1.0
        kernel_of_distance(params, block, out=block)
        if cols.size:
            if diag is None:
                diag = diagonal_self_energy(cloud, params)
            block[rows, cols] = diag[cols]
        values[i0:i1] = block @ masses
    return values
