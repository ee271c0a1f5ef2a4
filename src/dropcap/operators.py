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

The operator is stored in the orbit coordinates of its cloud's mirror
(clouds.Orbits).  With the pairs in order, K = [[A, B], [B, A]], and
the even/odd change of basis splits it exactly (Bossavit 1986;
Allgower, Boehmer, Georg and Miranda 1992):

- even measures, given by their orbit masses u, have the node
  potentials E u, E[o, p] being the kernel from o's representative to
  unit mass spread over orbit p: (A + B)/2 on pairs.  E u = rhs + lambda 1
  with sum(u) = total is the same constrained solve as on K;
- odd measures, given by their value z at each pair's lower node, have
  the potentials (A - B) z there and the negated ones at the partners.

An unmirrored cloud has one orbit per node, and E is K itself.  E is
assembled with the operator, h^2 kernel entries for h orbits where K
takes n^2/2; A - B is assembled on the first product with an odd
vector, as 2 (A - E), so from h^2/2 entries of A alone, and an
equilibrium-only run never stores it.  Each block is filled
in one pass over row blocks of its lower triangle: a block of pairwise
distances, held in one reused buffer, becomes kernel values in place
and is stored with its transpose, so each entry is computed once and
the block is exactly symmetric.  potential_at runs its targets through
the same row blocks, holding one block of kernel values at a time.
KernelOperator.solve hands the even part to the one constrained solve
of dropcap.linalg, projected conjugate gradients with products with E,
and the odd part to conjugate gradients on A - B.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .clouds import NodeCloud, Orbits
from .errors import NonConvergenceError, UnsupportedConfigurationError, ValidationError
from .kernels import (
    DISK_SELF_ENERGY_COEFF,
    SEGMENT_SELF_ENERGY_SHIFT,
    KernelParams,
    kernel_of_distance,
    uniform_ball_self_energy,
    unit_ball_volume,
)
from .linalg import cg_solve, constrained_solve, symm, symv

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


def _product(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M times a vector, or times each row of a block of rows, M symmetric."""
    return symv(M, x) if x.ndim == 1 else symm(M, x)


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """Kernel operator of a cloud, stored as its even block over the orbits."""

    even: np.ndarray
    cloud: NodeCloud
    params: KernelParams

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.even, dtype=float))
        h = len(self.cloud.orbits)
        if m.shape != (h, h):
            raise ValidationError(
                f"the even block must be square over the cloud's {h} orbits"
            )
        m.setflags(write=False)
        object.__setattr__(self, "even", m)

    @property
    def n_nodes(self) -> int:
        return self.cloud.n_nodes

    @property
    def orbits(self) -> Orbits:
        return self.cloud.orbits

    @cached_property
    def odd(self) -> np.ndarray:
        """A - B over the pairs, assembled on first use."""
        o = self.orbits
        pairs, paired = o.reps[: o.n_pairs], self.even[: o.n_pairs, : o.n_pairs]
        return _orbit_block(self.cloud, self.params, pairs, pairs[:0], even=paired)

    def apply_even(self, u) -> np.ndarray:
        """Node potentials, one per orbit, of the even measure with orbit masses u."""
        return _product(self.even, u)

    def apply(self, masses) -> np.ndarray:
        """Node potentials of nodal masses, or of each row of a block of them."""
        x = np.asarray(masses, dtype=float)
        o = self.orbits
        u, z = o.sums(x), o.half_differences(x)
        even = self.apply_even(u) if u.any() else np.zeros_like(u)
        return o.join(even, _product(self.odd, z) if z.any() else None)

    def solve(self, rhs) -> tuple[np.ndarray, float]:
        """Nodal x and lambda with K x = rhs + lambda 1 and sum(x) = 0.

        The even part of rhs goes to the constrained solve on E, the odd
        part to conjugate gradients on A - B.  A NonConvergenceError from
        either carries the nodal x and lambda reached so far.
        """
        rhs = np.asarray(rhs, dtype=float)
        o = self.orbits
        odd_rhs = o.half_differences(rhs)
        u = z = None
        try:
            u, lam = constrained_solve(self.apply_even, o.means(rhs), 0.0)
            if odd_rhs.any():
                z = cg_solve(lambda v: symv(self.odd, v), odd_rhs)
        except NonConvergenceError as err:
            if u is None:
                u, lam = err.result
            else:
                z = err.result
            err.result = (o.join(u / o.sizes, z), lam)
            raise
        return o.join(u / o.sizes, z), lam

    def energy(self, masses) -> float:
        """Full double interaction integral of a nodal measure."""
        m = np.asarray(masses, dtype=float)
        o = self.orbits
        u, z = o.sums(m), o.half_differences(m)
        value = float(u @ symv(self.even, u)) if u.any() else 0.0
        if z.any():
            value += 2.0 * float(z @ symv(self.odd, z))
        return value


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


def _kernel_blocks(params: KernelParams, rows, cols, diag=None):
    """Row blocks of kernel values from rows to cols over the lower triangle.

    Yields (i0, i1, block) with block[k, j] = k(|rows[i0 + k] - cols[j]|)
    for j < i1 (and j < len(cols)), in one reused buffer.  With diag,
    rows and cols are the same nodes, and the block's diagonal holds
    their self-energies instead.
    """
    for i0, i1, block in _distance_blocks(rows, cols, lower=True):
        on_diag = block[:, i0:i1]  # a view: fill_diagonal writes into block
        if diag is not None:
            np.fill_diagonal(on_diag, 1.0)
        kernel_of_distance(params, block, out=block)
        if diag is not None:
            np.fill_diagonal(on_diag, diag[i0:i1])
        if not np.isfinite(block).all():
            raise ValidationError("operator has non-finite entries; nodes may coincide")
        yield i0, i1, block


def _orbit_block(
    cloud: NodeCloud, params: KernelParams, reps, partners, even=None
) -> np.ndarray:
    """A kernel block over orbits whose first len(partners) are pairs.

    Entry [o, p] is the mean of k(rep o, rep p) and k(rep o, partner p),
    the even block, (A + B)/2 on pairs; orbits without a partner keep
    k(rep o, rep p), so with no partners this is the plain kernel matrix
    over reps.  Given the even block over pairs with no partners passed,
    it is the odd block A - B = 2 (A - E), for which only A is evaluated.
    """
    diag = diagonal_self_energy(cloud, params)
    rows = cloud.points[reps]
    M = np.empty((len(reps), len(reps)))
    mirrored = None
    if len(partners):
        mirrored = _kernel_blocks(params, rows, cloud.points[partners])
    for i0, i1, block in _kernel_blocks(params, rows, rows, diag[reps]):
        if even is not None:
            block -= even[i0:i1, :i1]
            block *= 2.0
        elif mirrored is not None:
            reflected = next(mirrored)[2]
            pairs = block[:, : reflected.shape[1]]
            pairs += reflected
            pairs *= 0.5
        M[i0:i1, :i1] = block
        M[:i1, i0:i1] = block.T
    M.setflags(write=False)
    return M


def assemble_operator(cloud: NodeCloud, params: KernelParams) -> KernelOperator:
    """The kernel operator of a cloud, with the desingularized diagonal.

    Assembles the even block over the cloud's orbits (K itself for an
    unmirrored cloud); the odd block waits until used.
    """
    if params.dim != cloud.dim:
        raise ValidationError(
            f"kernel dimension {params.dim} does not match cloud dimension {cloud.dim}"
        )
    o = cloud.orbits
    even = _orbit_block(cloud, params, o.reps, o.partners)
    return KernelOperator(even=even, cloud=cloud, params=params)


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
