"""The one constrained solve behind every linear problem dropcap poses:

    A x = rhs + lambda 1,   1'x = total,   A symmetric.

The equilibrium measure and each active-set working set take rhs 0 and
total 1; the conductor in an external field A = K, rhs -phi/2 and
total 0; the entropic density A = K/2 pi + diag(2/V), rhs 0 and total 1.
On a cloud with reflections K stands for its trivial-character block E
over the orbits, and V for the orbit volumes (dropcap.operators); each
other character's part of the field problem is an unconstrained solve,
conjugate gradients on that character's block.

constrained_solve runs conjugate gradients (Hestenes and Stiefel 1952)
on the zero-sum subspace 1^perp (projected CG; Gould, Hribar and
Nocedal 2001).  It starts at the feasible x0 = total/n 1, and each
search direction and each product A p is projected onto 1^perp, so
every iterate keeps 1'x = total.  That needs A positive definite on
1^perp alone, so the one recurrence serves the Riesz kernels, positive
definite, and the planar logarithmic kernel, only conditionally
positive definite in the continuum.  lambda = mean(A x - rhs), and as A is symmetric,
mean(A x) = a'x with a = A 1/n, the start's own product: lambda costs
no extra one.  A run stops when the projected residual falls to
CG_RTOL times the start's residual |rhs - A x0|, not times its
projection: on a circle x0 is already the answer and the projection is
round-off.  At CG_RTOL = 1e-15 the masses agree with a bordered LU of
[A -1; 1' 0] to 1e-12.  cg_solve is the same loop without the
projections, for the other characters' parts of the field problem.

CG's minimization property needs A positive definite on the search
space, but its recurrence needs only p'Ap != 0.  Some discrete operators
are indefinite on 1^perp: the planar log kernel on a thin polygon (one
random polygon at n = 600 has eigenvalue -0.148 there), and volume
clouds at alpha > 2 (at alpha = 2.5 from a few hundred nodes).  On
those the run steps through the negative curvature and, when it
converges, reaches the stationary point a bordered LU would give.  A
breakdown (p'Ap zero to round-off), a residual grown past |r0|/eps (its
round-off then exceeds the start's residual), or no convergence after
max(CG_MAX_ITER, n) products (about a dense factorization's work at
that size) raises NonConvergenceError carrying the last iterate.

The planar log kernel's condition number on 1^perp grows like n, and so
do its CG runs: on the first random polygon of seed 644015297 a
log-kernel equilibrium solve takes 130, 221, 304 and 417 products with
K at n = 600, 2000, 4000 and 8000, the start's and the KKT check's
included.  On a closed curve the log single-layer operator is
spectrally equivalent to the inverse of |D|, the operator with symbol
|k| on the curve's Fourier modes, and on the circle the two agree: its
symbol there is 1/(2|k|).  That is operator preconditioning (Steinbach
and Wendland, Adv. Comput. Math. 9, 1998).  curve_preconditioner
applies P r = irfft(max(|k|, 1) rfft(r)) on each cycle of nodes that
runs around a closed curve: one FFT pair per step, no product with K
and no storage past one symbol per cycle.  P is a symmetric
positive-definite circulant on each cycle, so it keeps CG's symmetry
and stays definite over several cycles.  A preconditioned run takes
z = P r projected onto 1^perp, beta = r'z / r_old'z_old and
p = z + beta p; without P, z is r and the recurrence is the plain one,
operation for operation.  With P the same solves take 18 products at
each of those n, and the unit circle, whose start is its answer to
round-off, 4 or 5 at n = 300 to 4000 where it took 17 to 72 chasing
that round-off.

A caller that only needs to know whether it will reject the solution
can screen the run: the screen sees the first iterate that reaches
CG_SCREEN_RTOL but not CG_RTOL, and if it rejects that iterate the run
stops with ScreenedOut, which carries it.  A run the screen passes goes
on with the same recurrence to CG_RTOL, so its result is bit-identical
to an unscreened run.  The active-set loop of equilibrium_measure screens
each working set for negative masses.  On the collapsing alpha = 2
volume ball (2553 nodes, 410 orbits) its five working sets take
105 + 63 + 42 + 23 + 20 = 253 products with the trivial block E
unscreened and 36 + 21 + 17 + 12 + 20 = 106 screened, each count
including the start's product; on the 1000 orbits of the 2000-node
annulus, 54 + 50 = 104 and 15 + 50 = 65.  A working set that keeps all
its nodes takes exactly as many products as unscreened.

symv multiplies a vector, or each row of a block of rows, by a
symmetric C-ordered matrix and reads one triangle of it, the lower one
unless told otherwise, so an operator whose character blocks share
arrays two to one, one below the diagonal and one above
(dropcap.operators), is multiplied without a copy.

Every matrix product here runs on scipy's BLAS.  numpy links a separate
OpenBLAS, whose calls compete with scipy's idle threads while those
spin.  On a 2-core box with OpenBLAS's default spin of about 0.1 s, a
numpy product of a 2000 x 2000 matrix with a vector took 12-13 ms
around scipy dsymv calls, against 2.5-2.9 ms with the spin capped at
2^18 cycles, as dropcap sets it with DROPCAP_THREADS (dropcap/__init__).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonConvergenceError

__all__ = [
    "CG_RTOL",
    "CG_SCREEN_RTOL",
    "CG_MAX_ITER",
    "ScreenedOut",
    "symv",
    "cg_solve",
    "constrained_solve",
    "curve_preconditioner",
]

# CG stops at |r| <= CG_RTOL |r0| and gives up after max(CG_MAX_ITER, n)
# products; a screen sees the first iterate with |r| <= CG_SCREEN_RTOL |r0|
CG_RTOL = 1e-15
CG_SCREEN_RTOL = 1e-6
CG_MAX_ITER = 1000
_EPS = float(np.finfo(float).eps)


class ScreenedOut(Exception):
    """A screened conjugate-gradient run stopped: the screen rejected x."""

    def __init__(self, x: np.ndarray):
        super().__init__("the screen rejected the conjugate-gradient iterate")
        self.x = x


# scipy's BLAS routines, bound on first use: an import statement costs
# more than a small product on every call
_dsymv = _dsymm = None


def symv(A: np.ndarray, x, lower: bool = True) -> np.ndarray:
    """A @ x for a symmetric C-ordered A given by one triangle, without copying A.

    x is a vector, or a C-ordered block of rows, each multiplied by A
    (x @ A).  Only A's lower triangle, or with lower=False its upper
    one, is read, the diagonal included.
    """
    global _dsymv, _dsymm
    if _dsymv is None:
        from scipy.linalg.blas import dsymm, dsymv

        _dsymv, _dsymm = dsymv, dsymm
    x = np.asarray(x, dtype=float)
    # A.T is the Fortran-ordered view of A; A's lower triangle is its upper
    if x.ndim == 1:
        return _dsymv(1.0, A.T, x, lower=not lower)
    # so is x.T, and the (n, k) product is the transpose of the rows' products
    return _dsymm(1.0, A.T, np.ascontiguousarray(x).T, lower=not lower).T


def _conjugate_gradients(apply, x, r, scale: float, zero_sum: bool, screen, precondition=None):
    """Run CG from x, whose residual b - A x is r; both change in place.

    With zero_sum the run stays in 1^perp: r starts there, and each
    search direction, product and preconditioned residual is projected
    onto it.  precondition(r), if given, is P r for a symmetric P
    positive definite on the search space; without it z is r itself.
    Stops at |r| <= CG_RTOL scale, with a screen as in
    constrained_solve; raises NonConvergenceError carrying x on
    breakdown, divergence or a stall.
    """
    n = len(x)

    def preconditioned(r, rr):
        """z and r'z, given rr = r'r: without P, r itself and rr."""
        if precondition is None:
            return r, rr
        z = precondition(r)
        if zero_sum:
            z -= z.sum() / n
        return z, float(r @ z)

    rr = float(r @ r)
    z, rz = preconditioned(r, rr)
    p = z.copy()
    stop = (CG_RTOL * scale) ** 2
    screen_at = -1.0 if screen is None else (CG_SCREEN_RTOL * scale) ** 2
    for _ in range(max(CG_MAX_ITER, n)):
        if rr <= stop:
            return
        if rr <= screen_at:
            if not screen(x):
                raise ScreenedOut(x)
            screen_at = -1.0
        Ap = apply(p)
        if zero_sum:
            Ap -= Ap.sum() / n
        pAp = float(p @ Ap)
        # the same floating-point operations as mean() and norm(), with
        # less overhead per call
        if not abs(pAp) > _EPS * (math.sqrt(p @ p) * math.sqrt(Ap @ Ap)):
            reason = "broke down: p'Ap is zero to round-off"
            break
        step = rz / pAp
        x += step * p
        r -= step * Ap
        rr = float(r @ r)
        if rr > (scale / _EPS) ** 2:
            # the round-off of r now exceeds the start's residual
            reason = "diverged"
            break
        rz_old = rz
        z, rz = preconditioned(r, rr)
        p *= rz / rz_old
        p += z
        if zero_sum:
            p -= p.sum() / n
    else:
        if rr <= stop:
            return
        reason = "did not converge"
    residual = float(np.sqrt(rr)) / scale
    raise NonConvergenceError(
        f"conjugate gradients {reason} (relative residual {residual:.3e})",
        result=x,
        residual=residual,
    )


def cg_solve(apply, b) -> np.ndarray:
    """Solve A x = b by conjugate gradients, apply(v) computing A @ v.

    Stops at |r| <= CG_RTOL |b|.  Raises NonConvergenceError, with the
    last iterate as its result, on breakdown, divergence or a stall.
    """
    b = np.asarray(b, dtype=float)
    x = np.zeros_like(b)
    _conjugate_gradients(apply, x, b.copy(), float(np.linalg.norm(b)), False, None)
    return x


def constrained_solve(
    apply, rhs, total: float = 1.0, screen=None, precondition=None
) -> tuple[np.ndarray, float]:
    """x and lambda with A x = rhs + lambda 1 and 1'x = total.

    apply(v) computes A @ v for a symmetric A.  CG on
    v -> A v - mean(A v) from x0 = total/n 1, stopping at a residual of
    CG_RTOL |rhs - A x0|.  precondition(r), if given, computes P r for a
    symmetric P positive definite on 1^perp, such as
    curve_preconditioner's; the run then takes the projection of P r as
    its preconditioned residual.  screen, if given, is called once, with
    the first iterate x that reaches CG_SCREEN_RTOL |rhs - A x0| but not
    CG_RTOL; if it returns False the run raises ScreenedOut(x), and
    otherwise carries on unchanged.  Raises NonConvergenceError, with
    the last x and its lambda as its result, on breakdown, divergence or
    a stall.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = len(rhs)
    x = np.full(n, total / n)
    if not (total or rhs.any()):
        return x, 0.0
    # lambda = mean(A x - rhs), and A is symmetric, so mean(A x) = a'x
    # with a = A 1/n, which is A x0 when total is 1
    a = apply(np.full(n, 1.0 / n))
    r = rhs - total * a
    try:
        _conjugate_gradients(
            apply, x, r - r.mean(), float(np.linalg.norm(r)), True, screen, precondition
        )
    except NonConvergenceError as err:
        err.result = (x, float(a @ x) - float(rhs.mean()))
        raise
    return x, float(a @ x) - float(rhs.mean())


def curve_preconditioner(cycles):
    """P r for nodes that run around closed curves, the inverse of |D| on each.

    cycles are the lengths of consecutive runs of the nodes, each run
    once around a closed curve in order (NodeCloud.cycles).  On each run
    P r = irfft(max(|k|, 1) rfft(r)): the circulant whose symbol is |k|
    on the curve's Fourier modes, and 1 on its mean.  It is symmetric
    and positive definite, also over several runs.
    """
    from numpy.fft import irfft, rfft

    bounds = np.cumsum((0, *cycles)).tolist()
    # max(|k|, 1) over the rfft frequencies k = 0 ... m//2 of each m-node run
    runs = [
        (a, b, np.maximum(np.arange((b - a) // 2 + 1, dtype=float), 1.0))
        for a, b in zip(bounds, bounds[1:])
    ]

    def precondition(r):
        z = np.empty_like(r)
        for a, b, symbol in runs:
            z[a:b] = irfft(symbol * rfft(r[a:b]), b - a)
        return z

    return precondition
