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

The operator is stored in the orbit coordinates of its cloud's
reflection group G (clouds.Orbits).  K commutes with G, so the change of
basis to the parts of the sign characters splits it exactly (Bossavit
1986; Allgower, Boehmer, Georg and Miranda 1992), into one symmetric
block per character s over the orbits that carry it:

    C_s[o, p] = (1/|G|) sum over g in G of chi_s(g) k(rep o, g rep p).

The part of s with value y at each representative has the node
potentials C_s (sizes * y) there, and C_s u . u is its energy for
u = sizes * y.  The trivial block E = C_0 takes the orbit masses u:
E[o, p] is the kernel from o's representative to unit mass spread over
orbit p, and E u = rhs + lambda 1 with sum(u) = total is the same
constrained solve as on K.  Under a point mirror, with the pairs in
order, K = [[A, B], [B, A]], E is (A + B)/2 on pairs and C_1 is
(A - B)/2.  An unmirrored cloud has one orbit per node, and E is K
itself.

The blocks go two to one C-ordered (h + 1) x h array, h being the size
of the larger: the lower triangle of packed[1:] holds it and the upper
triangle of packed[:-1] the smaller, each with its diagonal, padded
with zeros past its size.  This is the two-triangle packing behind
LAPACK's rectangular full packed format (Gustavson, Wasniewski,
Dongarra and Langou, ACM TOMS 37(2), 2010); the products read one
triangle each (dropcap.linalg.symv).  The characters are paired by
size, largest first, so E is always the lower triangle of the first
array; under a point mirror that one array holds E and C_1, and an
unmirrored cloud stores E's rows alone.  All blocks are filled in one
pass over row blocks of E's lower triangle: each kernel value
k(rep o, g rep p) is computed once per group element g, |G| h^2/2
entries for h orbits where K takes n^2/2, into one reused buffer, and a
Walsh-Hadamard transform over the group turns them into the rows of
every character's block at once (clouds.character_sums).
potential_at runs its targets through the same row blocks, holding one
block of kernel values at a time.  KernelOperator.solve hands the
trivial part to the one constrained solve of dropcap.linalg, projected
conjugate gradients with products with E, and every other nonzero part
to conjugate gradients on its block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .clouds import NodeCloud, Orbits, character_sums
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
# distances becomes kernel values in one reused buffer before the next
# is computed.  Chosen from the assembly times by block height recorded
# in CHANGES.md.
BLOCK_ROWS = 128
# where= masks of a diagonal square's triangles, the diagonal included
_LOWER = np.tri(BLOCK_ROWS, dtype=bool)
_UPPER = _LOWER.T


def _product(M: np.ndarray, x: np.ndarray, lower: bool = True) -> np.ndarray:
    """M times a vector, or times each row of a block of rows, M symmetric
    and given by its lower triangle, or with lower=False its upper one."""
    return symv(M, x, lower) if x.ndim == 1 else symm(M, x, lower)


def _pairs(orbits: Orbits) -> list[tuple[int, int | None]]:
    """The characters that share a packed array, larger block first.

    Characters are taken by block size, largest first and the trivial
    one first among equals, and paired in that order.
    """
    order = sorted(range(len(orbits.carriers)), key=lambda s: -len(orbits.carriers[s]))
    order.append(None)
    return list(zip(order[::2], order[1::2]))


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """Kernel operator of a cloud, stored as one block per sign character.

    packed holds one C-ordered (h + 1) x h array per pair of characters
    (_pairs): the lower triangle of its [1:] is the larger block, of
    size h, and the upper triangle of its [:-1] the smaller, zero past
    its size.  Each triangle includes its diagonal.  The first array's
    lower block is E, the trivial character's.  An unmirrored cloud has
    E alone, and its upper triangle is never written or read.
    """

    packed: tuple[np.ndarray, ...]
    cloud: NodeCloud
    params: KernelParams

    def __post_init__(self):
        arrays = tuple(np.ascontiguousarray(np.asarray(m, dtype=float)) for m in self.packed)
        carriers = self.cloud.orbits.carriers
        pairs = _pairs(self.cloud.orbits)
        shapes = [(len(carriers[s]) + 1, len(carriers[s])) for s, _ in pairs]
        if [m.shape for m in arrays] != shapes:
            raise ValidationError(
                "the packed blocks must be one (h + 1) x h array per pair of the "
                f"cloud's characters, h = {[h for _, h in shapes]}"
            )
        # each character's block and the triangle that holds it
        slots = [None] * len(carriers)
        for m, (s, t) in zip(arrays, pairs):
            m.setflags(write=False)
            slots[s] = (m[1:], True)
            if t is not None:
                slots[t] = (m[:-1], False)
        object.__setattr__(self, "packed", arrays)
        object.__setattr__(self, "_slots", tuple(slots))

    @property
    def n_nodes(self) -> int:
        return self.cloud.n_nodes

    @property
    def orbits(self) -> Orbits:
        return self.cloud.orbits

    @property
    def even(self) -> np.ndarray:
        """E in the lower triangle, the diagonal included."""
        return self.packed[0][1:]

    def apply_block(self, s: int, u) -> np.ndarray:
        """C_s u for one character s, u over its carriers, or for each row of a block of them.

        For s = 0 that is E u, the node potentials, one per orbit, of the
        invariant measure with orbit masses u.
        """
        M, lower = self._slots[s]
        if u.shape[-1] < len(M):
            padded = np.zeros(u.shape[:-1] + (len(M),))
            padded[..., : u.shape[-1]] = u
            return _product(M, padded, lower)[..., : u.shape[-1]]
        return _product(M, u, lower)

    def apply(self, masses) -> np.ndarray:
        """Node potentials of nodal masses, or of each row of a block of them."""
        x = np.asarray(masses, dtype=float)
        o = self.orbits
        values = []
        for s, y in enumerate(o.parts(x)):
            if y.any():
                values.append(self.apply_block(s, y * o.sizes[o.carriers[s]]))
            else:
                values.append(np.zeros_like(y) if s == 0 else None)
        return o.join(*values)

    def solve(self, rhs) -> tuple[np.ndarray, float]:
        """Nodal x and lambda with K x = rhs + lambda 1 and sum(x) = 0.

        The trivial part of rhs goes to the constrained solve on E, every
        other nonzero part to conjugate gradients on its block.  A
        NonConvergenceError from any of them carries the nodal x and
        lambda reached so far.
        """
        o = self.orbits
        parts = o.parts(np.asarray(rhs, dtype=float))
        values = [None] * len(parts)
        try:
            for s, y in enumerate(parts):
                apply = partial(self.apply_block, s)
                if s == 0:
                    u, lam = constrained_solve(apply, y, 0.0)
                elif y.any():
                    u = cg_solve(apply, y)
                else:
                    continue
                values[s] = u / o.sizes[o.carriers[s]]
        except NonConvergenceError as err:
            if s == 0:
                u, lam = err.result
            else:
                u = err.result
            values[s] = u / o.sizes[o.carriers[s]]
            err.result = (o.join(*values), lam)
            raise
        return o.join(*values), lam

    def energy(self, masses) -> float:
        """Full double interaction integral of a nodal measure."""
        o = self.orbits
        value = 0.0
        for s, y in enumerate(o.parts(np.asarray(masses, dtype=float))):
            if y.any():
                u = y * o.sizes[o.carriers[s]]
                value += float(u @ self.apply_block(s, u))
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


def _distance_blocks(rows, cols):
    """Row blocks of the distances from rows to cols, in one reused buffer.

    Yields (i0, i1, block) with block[k, j] = |rows[i0 + k] - cols[j]|.
    Each block is overwritten by the next, so the caller finishes with
    it first.
    """
    from scipy.spatial.distance import cdist

    n = len(rows)
    buf = np.empty(min(n, BLOCK_ROWS) * len(cols))
    for i0 in range(0, n, BLOCK_ROWS):
        i1 = min(i0 + BLOCK_ROWS, n)
        block = buf[: (i1 - i0) * len(cols)].reshape(i1 - i0, len(cols))
        yield i0, i1, cdist(rows[i0:i1], cols, out=block)


def _store(packed, rows, carriers, i0: int, i1: int, lower: bool) -> None:
    """Write rows i0:i1 of one character's block into its triangle of packed.

    rows[k, j] is the block's entry between orbits i0 + k and j < i1;
    only the orbits that carry the character are kept, at their places
    among its carriers.
    """
    lo, hi = np.searchsorted(carriers, (i0, i1))
    if lo == hi:
        return
    if carriers[hi - 1] == hi - 1:  # the carriers are the first orbits
        block = rows[lo - i0 : hi - i0, :hi]
    else:
        block = rows[carriers[lo:hi] - i0][:, carriers[:hi]]
    k = hi - lo
    if lower:
        packed[1 + lo : 1 + hi, :lo] = block[:, :lo]
        np.copyto(packed[1 + lo : 1 + hi, lo:hi], block[:, lo:], where=_LOWER[:k, :k])
    else:
        packed[:lo, lo:hi] = block[:, :lo].T
        np.copyto(packed[lo:hi, lo:hi], block[:, lo:].T, where=_UPPER[:k, :k])


def _character_blocks(cloud: NodeCloud, params: KernelParams) -> tuple[np.ndarray, ...]:
    """Every character's block over the cloud's orbits, packed in one pass.

    Returns the arrays KernelOperator holds.  Over each row block of the
    lower triangle over the orbits, X[a] holds k(rep o, g_a rep p)/|G|
    for each group element g_a, with the self-energy where g_a fixes
    rep o, and character_sums turns them into the rows of C_s, one per
    character s.  E's go straight into whole rows of the first array:
    the part of those rows above the diagonal belongs to the array's
    upper block, whose entries there come from this row block or later
    ones.  Each other character keeps the rows and columns of the
    orbits that carry it; the upper triangles past a smaller block's
    size are zeroed.
    """
    from scipy.spatial.distance import cdist

    o = cloud.orbits
    size, h = o.images.shape
    rows = cloud.points[o.reps]
    cols = cloud.points[o.images]
    diag = diagonal_self_energy(cloud, params)[o.reps]
    fixed = o.images == o.reps
    pairs = _pairs(o)
    packed = [np.empty((len(o.carriers[s]) + 1, len(o.carriers[s]))) for s, _ in pairs]
    # X and, past one butterfly, the free slab of the transform
    slabs = size + (size > 2)
    buf = np.empty(slabs * min(h, BLOCK_ROWS) * h)
    for i0 in range(0, h, BLOCK_ROWS):
        i1 = min(i0 + BLOCK_ROWS, h)
        X = buf[: slabs * (i1 - i0) * i1].reshape(slabs, i1 - i0, i1)
        for a in range(size):
            cdist(rows[i0:i1], cols[a, :i1], out=X[a])
        # the self terms, where g_a fixes rep o: on the whole diagonal for
        # the identity, at the orbits' fixed points for the others
        square = X[0, :, i0:i1]  # a view: fill_diagonal writes into X
        g, r = np.nonzero(fixed[1:, i0:i1])
        np.fill_diagonal(square, 1.0)
        X[1 + g, r, i0 + r] = 1.0
        K = X[:size]
        kernel_of_distance(params, K, out=K)
        np.fill_diagonal(square, diag[i0:i1])
        X[1 + g, r, i0 + r] = diag[i0 + r]
        if not np.isfinite(K).all():
            raise ValidationError("operator has non-finite entries; nodes may coincide")
        if size > 1:
            K *= 1.0 / size
        sums = character_sums(K, packed[0][1 + i0 : 1 + i1, :i1], X[size] if size > 2 else None)
        for m, (s, t) in zip(packed, pairs):
            if s != 0:
                _store(m, sums[s], o.carriers[s], i0, i1, True)
            if t is not None:
                _store(m, sums[t], o.carriers[t], i0, i1, False)
    for m, (_, t) in zip(packed, pairs):
        if t is not None:
            for c in range(len(o.carriers[t]), m.shape[1]):
                m[: c + 1, c] = 0.0
    return tuple(packed)


def assemble_operator(cloud: NodeCloud, params: KernelParams) -> KernelOperator:
    """The kernel operator of a cloud, with the desingularized diagonal.

    Assembles every character's block over the cloud's orbits in one
    pass; for an unmirrored cloud the one block is K itself.
    """
    if params.dim != cloud.dim:
        raise ValidationError(
            f"kernel dimension {params.dim} does not match cloud dimension {cloud.dim}"
        )
    return KernelOperator(packed=_character_blocks(cloud, params), cloud=cloud, params=params)


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
