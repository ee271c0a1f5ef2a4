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
entries for h orbits where K takes n^2/2, into a buffer its thread
reuses, and a Walsh-Hadamard transform over the group turns them into
the rows of every character's block at once (clouds.character_sums).
A row block writes only its own orbits' rows of each lower triangle
and their columns of each upper one, so the blocks are independent:
they run largest first, on WORKERS threads once the operator has
POOL_MIN_ENTRIES kernel values, and the arrays are the same bit for
bit in any order and on any number of threads.  potential_at
runs its targets through the same row blocks on the calling thread,
holding one block of kernel values at a time.  KernelOperator.solve
hands the trivial part to the one constrained solve of dropcap.linalg,
projected conjugate gradients with products with E, and every other
nonzero part to conjugate gradients on its block.
"""

from __future__ import annotations

import mmap
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextvars import copy_context
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from . import _threads
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
# Columns per chunk of an assembly row block, so each thread's slabs are
# bounded whatever the cloud's size: 1.2 MB under a point mirror.  Whole
# rows took as long on 2 cores, with 5.5 MB more scratch at 2000 orbits.
CHUNK_COLS = 512
# where= masks of a diagonal square's triangles, the diagonal included
_LOWER = np.tri(BLOCK_ROWS, dtype=bool)
_UPPER = _LOWER.T


# Threads that assemble an operator's row blocks: the calling one and
# WORKERS - 1 of a pool started on first use.  There is a pool only with
# DROPCAP_THREADS, which also caps the idle spin of the BLAS threads
# (dropcap/__init__): at OpenBLAS's default spin, threads still spinning
# after a solve's last product left a pooled assembly slower than one
# thread.  An operator of fewer kernel values than POOL_MIN_ENTRIES,
# |G| h^2/2 for h orbits, is assembled on the calling thread alone: on
# 2 cores the hand-offs cost more than the second thread saves on the
# 600-node clouds of the stability scans, and save 40% of the 4000-node
# sphere's assembly.
WORKERS = _threads or 1
POOL_MIN_ENTRIES = 1 << 20


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


def _store(packed, chunk, carriers, i0: int, i1: int, j0: int, j1: int, lower: bool) -> None:
    """Write one chunk of a character's block into its triangle of packed.

    chunk[k, j] is the block's entry between orbits i0 + k and j0 + j;
    the chunk lies left of the row block's diagonal square, j1 <= i0, or
    is that square, and of the square only the triangle is written.
    Only the orbits that carry the character are kept, at their places
    among its carriers, so every entry written lies in the rows of the
    lower triangle, or the columns of the upper one, that the orbits
    i0:i1 own.
    """
    lo, hi, c0, c1 = np.searchsorted(carriers, (i0, i1, j0, j1))
    if lo == hi or c0 == c1:
        return
    if carriers[hi - 1] == hi - 1:  # the carriers are the first orbits
        block = chunk[: hi - i0, : c1 - c0]
    else:
        block = chunk[carriers[lo:hi] - i0][:, carriers[c0:c1] - j0]
    k = hi - lo
    if j0 < i0:
        if lower:
            packed[1 + lo : 1 + hi, c0:c1] = block
        else:
            packed[c0:c1, lo:hi] = block.T
    elif lower:
        np.copyto(packed[1 + lo : 1 + hi, lo:hi], block, where=_LOWER[:k, :k])
    else:
        np.copyto(packed[lo:hi, lo:hi], block.T, where=_UPPER[:k, :k])


def _mapped(shape: tuple[int, int]) -> np.ndarray:
    """An uninitialized float array in pages mapped for it alone.

    The pages go back to the system when the array is freed, so the
    threads' scratch never stays in the heap, or splits it, past the
    call that used it: on the heap it raised the peak memory of the
    4000-node sphere's solves by 3 MB more than its own size.  Fresh
    pages cost a fault each, about 0.3 ms for a 600-node cloud's
    scratch, so a one-thread assembly takes its scratch from the heap.
    """
    return np.frombuffer(mmap.mmap(-1, 8 * shape[0] * shape[1]), dtype=float).reshape(shape)


def _row_blocks(h: int) -> list[tuple[int, int]]:
    """The row blocks (i0, i1) of a lower triangle of size h, largest first."""
    return [(i0, min(i0 + BLOCK_ROWS, h)) for i0 in reversed(range(0, h, BLOCK_ROWS))]


@cache
def _pool() -> ThreadPoolExecutor:
    return ThreadPoolExecutor(max(WORKERS - 1, 1), thread_name_prefix="dropcap-assembly")


if hasattr(os, "register_at_fork"):  # a forked child inherits the pool but not its threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _run_blocks(work, blocks, scratch) -> None:
    """work(i0, i1, buffer) for each row block, on one thread per scratch buffer.

    This thread takes the first buffer and the pool's threads the rest;
    each takes the next block until none is left.  The first error
    stops every thread from taking another block and is raised once all
    have returned.
    """
    todo = queue.SimpleQueue()
    for block in blocks:
        todo.put(block)
    failed = threading.Event()

    def drain(buffer):
        try:
            while not failed.is_set():
                try:
                    i0, i1 = todo.get_nowait()
                except queue.Empty:
                    return
                work(i0, i1, buffer)
        except BaseException:
            failed.set()
            raise

    # each in a copy of this thread's context, so np.errstate holds there too
    futures = [_pool().submit(copy_context().run, drain, buffer) for buffer in scratch[1:]]
    try:
        drain(scratch[0])
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _character_blocks(cloud: NodeCloud, params: KernelParams) -> tuple[np.ndarray, ...]:
    """Every character's block over the cloud's orbits, packed in one pass.

    Returns the arrays KernelOperator holds.  Over each row block of the
    lower triangle over the orbits, X[a] holds k(rep o, g_a rep p)/|G|
    for each group element g_a, with the self-energy where g_a fixes
    rep o, and character_sums turns them into the rows of C_s, one per
    character s.  A row block goes in chunks of CHUNK_COLS columns left
    of its diagonal square and then the square, so each thread's slabs
    stay small whatever h.  Each row block writes only into its own orbits' rows of
    the lower triangles and their columns of the upper ones, so the
    blocks run in any order, largest first, on WORKERS threads past
    POOL_MIN_ENTRIES.  The upper triangles past a smaller block's size
    are zeroed.
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
    blocks = _row_blocks(h)
    workers = min(WORKERS, len(blocks)) if size * h * h >= 2 * POOL_MIN_ENTRIES else 1
    # per thread: X and, past one butterfly, the free slab of the
    # transform, as wide as a chunk or the square, then a square for E's
    # sums on the diagonal
    slabs, height = size + (size > 2), min(h, BLOCK_ROWS)
    width = min(h, max(CHUNK_COLS, BLOCK_ROWS))
    shape = (workers, (slabs * width + height) * height)
    scratch = _mapped(shape) if workers > 1 else np.empty(shape)

    def work(i0, i1, buffer):
        k = i1 - i0
        # the self terms, where g_a fixes rep o: the whole diagonal for the
        # identity, the orbits' fixed points for the others
        g, r = np.nonzero(fixed[:, i0:i1])
        starts = list(range(0, i0, CHUNK_COLS))
        # E's sums go straight into its rows left of the diagonal square.
        # On the square those rows also hold the upper triangle of the
        # array's other block, which may be another row block's columns,
        # so there E's sums go through scratch and only its triangle is
        # copied, as _store does for every other character.
        for j0, j1 in [*zip(starts, starts[1:] + [i0]), (i0, i1)]:
            on_square = j0 == i0
            X = buffer[: slabs * k * (j1 - j0)].reshape(slabs, k, j1 - j0)
            for a in range(size):
                cdist(rows[i0:i1], cols[a, j0:j1], out=X[a])
            K = X[:size]
            if on_square:
                X[g, r, r] = 1.0
            kernel_of_distance(params, K, out=K)
            if on_square:
                X[g, r, r] = diag[i0 + r]
            if not np.isfinite(K).all():
                raise ValidationError("operator has non-finite entries; nodes may coincide")
            if size > 1:
                K *= 1.0 / size
            out = buffer[-k * k :].reshape(k, k) if on_square else packed[0][1 + i0 : 1 + i1, j0:j1]
            sums = character_sums(K, out, X[size] if size > 2 else None)
            for m, (s, t) in zip(packed, pairs):
                if s != 0 or on_square:
                    _store(m, sums[s], o.carriers[s], i0, i1, j0, j1, True)
                if t is not None:
                    _store(m, sums[t], o.carriers[t], i0, i1, j0, j1, False)

    _run_blocks(work, blocks, scratch)
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
