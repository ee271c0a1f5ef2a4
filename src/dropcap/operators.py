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

An unmirrored cloud has one orbit per node, and E is K itself.  E and
A - B are symmetric, so one C-ordered (h + 1) x h array over the h
orbits holds both: the lower triangle of packed[1:] is E and the upper
triangle of packed[:-1] is A - B, each with its diagonal, A - B zero on
the rows and columns of centered orbits.  This is the two-triangle
packing behind LAPACK's rectangular full packed format (Gustavson,
Wasniewski, Dongarra and Langou, ACM TOMS 37(2), 2010); the products
read one triangle each (dropcap.linalg.symv), and an odd vector is
padded with zeros over the centered orbits.  Both blocks are filled in
one pass over row blocks of the lower triangle, h^2 kernel entries for
h orbits where K takes n^2/2: a block of pairwise distances, held in
one reused buffer, becomes kernel values in place; E goes into the
rows of the array and A - B, transposed, into its columns, so each
entry is computed once.  An unmirrored cloud stores E's rows alone.
potential_at runs its targets through the same row blocks, holding one
block of kernel values at a time.  KernelOperator.solve hands the even
part to the one constrained solve of dropcap.linalg, projected
conjugate gradients with products with E, and the odd part to
conjugate gradients on A - B.
"""

from __future__ import annotations

from dataclasses import dataclass

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
# where= mask of a diagonal square's upper triangle, the diagonal included
_UPPER = np.tri(BLOCK_ROWS, dtype=bool).T


def _product(M: np.ndarray, x: np.ndarray, lower: bool = True) -> np.ndarray:
    """M times a vector, or times each row of a block of rows, M symmetric
    and given by its lower triangle, or with lower=False its upper one."""
    return symv(M, x, lower) if x.ndim == 1 else symm(M, x, lower)


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """Kernel operator of a cloud, stored as its even and odd orbit blocks.

    packed is one C-ordered (h + 1) x h array over the cloud's h orbits:
    the lower triangle of even = packed[1:] is E, and the upper triangle
    of odd = packed[:-1] is A - B over the pairs, zero on the rows and
    columns of centered orbits.  Each triangle includes its diagonal.  An
    unmirrored cloud has no pairs, and its odd triangle is never written
    or read.
    """

    packed: np.ndarray
    cloud: NodeCloud
    params: KernelParams

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.packed, dtype=float))
        h = len(self.cloud.orbits)
        if m.shape != (h + 1, h):
            raise ValidationError(
                f"the packed blocks must be (h + 1) x h over the cloud's h = {h} orbits"
            )
        m.setflags(write=False)
        object.__setattr__(self, "packed", m)

    @property
    def n_nodes(self) -> int:
        return self.cloud.n_nodes

    @property
    def orbits(self) -> Orbits:
        return self.cloud.orbits

    @property
    def even(self) -> np.ndarray:
        """E in the lower triangle, the diagonal included."""
        return self.packed[1:]

    @property
    def odd(self) -> np.ndarray:
        """A - B in the upper triangle, the diagonal included, over h orbits."""
        return self.packed[:-1]

    def apply_even(self, u) -> np.ndarray:
        """Node potentials, one per orbit, of the even measure with orbit masses u."""
        return _product(self.even, u)

    def apply_odd(self, z) -> np.ndarray:
        """(A - B) z for odd values z, one per pair, or for each row of a block of them."""
        o = self.orbits
        padded = np.zeros(z.shape[:-1] + (len(o),))
        padded[..., : o.n_pairs] = z
        return _product(self.odd, padded, lower=False)[..., : o.n_pairs]

    def apply(self, masses) -> np.ndarray:
        """Node potentials of nodal masses, or of each row of a block of them."""
        x = np.asarray(masses, dtype=float)
        o = self.orbits
        u, z = o.sums(x), o.half_differences(x)
        even = self.apply_even(u) if u.any() else np.zeros_like(u)
        return o.join(even, self.apply_odd(z) if z.any() else None)

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
                z = cg_solve(self.apply_odd, odd_rhs)
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
        value = float(u @ self.apply_even(u)) if u.any() else 0.0
        if z.any():
            value += 2.0 * float(z @ self.apply_odd(z))
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


def _orbit_blocks(cloud: NodeCloud, params: KernelParams) -> np.ndarray:
    """The even and odd blocks over the cloud's orbits, packed in one pass.

    Returns the (h + 1) x h array KernelOperator holds.  Over each row
    block of the lower triangle over the orbits' representatives, A
    holds k(rep o, rep p), and B k(rep o, partner p) for the pairs p.
    E is (A + B)/2 on pairs and A elsewhere, so with no partners it is
    the plain kernel matrix over reps; its rows go below the diagonal of
    the array.  A - B on pairs goes on and above it, transposed into
    columns, and the columns of centered orbits there are zeroed.
    """
    o = cloud.orbits
    n_pairs, diag = o.n_pairs, diagonal_self_energy(cloud, params)
    rows = cloud.points[o.reps]
    packed = np.empty((len(rows) + 1, len(rows)))
    mirrored = None
    if n_pairs:
        mirrored = _kernel_blocks(params, rows, cloud.points[o.partners])
    for i0, i1, block in _kernel_blocks(params, rows, rows, diag[o.reps]):
        even = packed[i0 + 1 : i1 + 1, :i1]
        if mirrored is None:
            even[...] = block
            continue
        reflected = next(mirrored)[2]
        pc = reflected.shape[1]  # the pair columns of the block
        np.add(block[:, :pc], reflected, out=even[:, :pc])
        even[:, :pc] *= 0.5
        even[:, pc:] = block[:, pc:]
        # A - B on the block's k pair rows, in place, then transposed into
        # the columns i0:pc; of their diagonal square only the triangle on
        # and above the diagonal, as the rest of it holds E
        k = min(i1, n_pairs) - i0
        if k > 0:
            odd = block[:k, :pc]
            odd -= reflected[:k]
            packed[:i0, i0:pc] = odd[:, :i0].T
            np.copyto(packed[i0:pc, i0:pc], odd[:, i0:].T, where=_UPPER[:k, :k])
        for c in range(max(i0, n_pairs), i1):
            packed[: c + 1, c] = 0.0
    packed.setflags(write=False)
    return packed


def assemble_operator(cloud: NodeCloud, params: KernelParams) -> KernelOperator:
    """The kernel operator of a cloud, with the desingularized diagonal.

    Assembles the even and odd blocks over the cloud's orbits in one
    pass; for an unmirrored cloud the even block is K itself and there
    is no odd one.
    """
    if params.dim != cloud.dim:
        raise ValidationError(
            f"kernel dimension {params.dim} does not match cloud dimension {cloud.dim}"
        )
    return KernelOperator(packed=_orbit_blocks(cloud, params), cloud=cloud, params=params)


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
