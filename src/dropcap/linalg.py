"""The one constrained solve behind every linear problem dropcap poses:

    A x = rhs + lambda 1,   1'x = total,   A symmetric.

The equilibrium measure and each active-set working set take rhs 0 and
total 1; the conductor in an external field A = K, rhs -phi/2 and
total 0; the entropic density A = K/2 pi + diag(2/V), rhs 0 and total 1.

For the Riesz kernels A is positive definite and well conditioned, so
conjugate gradients (Hestenes and Stiefel 1952) reach round-off in tens
of products with A and never factor it.  CG stops when
|r| <= CG_RTOL |b|, a fixed constant: at 1e-14 the masses differed from
the bordered LU by up to 6e-12, at 1e-15 by at most 6e-13, for about 8%
more iterations.

A caller that only needs to know whether it will reject the solution
can screen the run: cg_solve shows the screen the first iterate with
|r| <= CG_SCREEN_RTOL |b|, and if the screen rejects that iterate the
run stops with ScreenedOut, which carries it.  A run the screen passes
goes on with the same recurrence to CG_RTOL, so its result is
bit-identical to an unscreened run.  The active-set loop of
solve_simplex_qp screens each working set for negative masses.  On the
collapsing alpha = 2 volume ball (2553 nodes) its five working sets
take 136 + 77 + 54 + 32 + 28 = 327 products with A unscreened and
38 + 24 + 17 + 14 + 28 = 121 screened; on the 2000-node annulus,
66 + 62 = 128 and 17 + 62 = 79.  A working set that keeps all its
nodes takes exactly as many products as before.  With
CG_SCREEN_RTOL = 1e-6 the iteration count and the masses were
bit-identical to unscreened solves on 90 generated clouds.

The one dense path is the bordered system
[A -1; 1' 0] [x; lambda] = [rhs; total], factored by LU, with least
squares if it is singular.  It serves the planar logarithmic kernel,
only conditionally positive definite, and any solve on which CG breaks
down or does not converge.

Every factorization, triangular solve and matrix product here
runs on scipy's LAPACK and BLAS.  numpy links a separate OpenBLAS, and
a numpy BLAS call made right after a scipy factorization waits for the
other library's threads to go idle, which at a few thousand nodes can
cost as much as the solve itself.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ValidationError

__all__ = [
    "CG_RTOL",
    "CG_SCREEN_RTOL",
    "CG_MAX_ITER",
    "ScreenedOut",
    "symv",
    "symm",
    "cg_solve",
    "constrained_solve",
    "bordered_solve",
]

# CG stops at |r| <= CG_RTOL |b|, and gives up after CG_MAX_ITER products;
# a screen sees the first iterate with |r| <= CG_SCREEN_RTOL |b|
CG_RTOL = 1e-15
CG_SCREEN_RTOL = 1e-6
CG_MAX_ITER = 1000


class ScreenedOut(Exception):
    """A screened conjugate-gradient run stopped: the screen rejected x."""

    def __init__(self, x: np.ndarray):
        super().__init__("the screen rejected the conjugate-gradient iterate")
        self.x = x


def symv(A: np.ndarray, x) -> np.ndarray:
    """A @ x for a symmetric C-ordered matrix A, without copying A."""
    from scipy.linalg.blas import dsymv

    # A.T is the Fortran-ordered view of the same (symmetric) matrix
    return dsymv(1.0, A.T, np.asarray(x, dtype=float))


def symm(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """X @ A for a symmetric C-ordered A: A times each row of a C-ordered X."""
    from scipy.linalg.blas import dsymm

    # both transposes are Fortran-ordered views; so is the (n, k) product
    return dsymm(1.0, A.T, np.ascontiguousarray(X, dtype=float).T).T


def cg_solve(apply, b, screen=None) -> np.ndarray | None:
    """Solve A x = b by conjugate gradients, apply(v) computing A @ v.

    Returns None on breakdown (p'Ap <= 0, so A is not positive
    definite) or when |r| <= CG_RTOL |b| is not reached within
    CG_MAX_ITER products; the caller then solves another way.  screen,
    if given, is called once, with the first iterate x that reaches
    |r| <= CG_SCREEN_RTOL |b| but not CG_RTOL; if it returns False the
    run raises ScreenedOut(x), and otherwise carries on unchanged.
    """
    b = np.asarray(b, dtype=float)
    x = np.zeros_like(b)
    r = b.copy()
    p = b.copy()
    rr = float(r @ r)
    stop = rr * CG_RTOL**2
    screen_at = -1.0 if screen is None else rr * CG_SCREEN_RTOL**2
    for _ in range(CG_MAX_ITER):
        if rr <= stop:
            return x
        if rr <= screen_at:
            if not screen(x):
                raise ScreenedOut(x)
            screen_at = -1.0
        Ap = apply(p)
        pAp = float(p @ Ap)
        if not pAp > 0.0:
            return None
        step = rr / pAp
        x += step * p
        r -= step * Ap
        rr, rr_old = float(r @ r), rr
        p *= rr / rr_old
        p += r
    return x if rr <= stop else None


def constrained_solve(
    dense, rhs, total: float = 1.0, apply=None, inverse_ones=None, screen=None
) -> tuple[np.ndarray, float]:
    """x and lambda with A x = rhs + lambda 1 and 1'x = total.

    apply(v) computes A @ v for a positive definite A: x = w0 + lambda w1,
    A w0 = rhs by CG (no solve for rhs 0) and w1 = inverse_ones, or
    A^-1 1 by CG if the caller keeps none; screen screens that CG run
    (cg_solve).  With no apply, or when CG fails, dense() returns A for
    the bordered LU.  Raises ValidationError if 1'A^-1 1 vanishes.
    """
    rhs = np.asarray(rhs, dtype=float)
    if apply is not None:
        w1 = cg_solve(apply, np.ones(len(rhs)), screen) if inverse_ones is None else inverse_ones
        w0 = rhs if w1 is None or not rhs.any() else cg_solve(apply, rhs)
        if w1 is not None and w0 is not None:
            charge = float(w1.sum())
            if abs(charge) < 1e-300:
                raise ValidationError("degenerate operator: unit potential has zero charge")
            lam = (total - float(w0.sum())) / charge
            return w0 + lam * w1, lam
    return bordered_solve(dense(), rhs, total)


def _bordered(A: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    B = np.empty((n + 1, n + 1))
    B[:n, :n] = A
    B[:n, n] = -1.0
    B[n, :n] = 1.0
    B[n, n] = 0.0
    return B


def bordered_solve(A: np.ndarray, rhs=None, total: float = 1.0) -> tuple[np.ndarray, float]:
    """x and lambda with A x = rhs + lambda 1 and 1'x = total, by one LU.

    rhs defaults to zero.  An exactly singular system falls back to the
    least-squares solution of minimal norm.
    """
    from scipy.linalg import LinAlgWarning, lstsq, lu_factor, lu_solve

    B = _bordered(A)
    n = B.shape[0] - 1
    b = np.zeros(n + 1)
    if rhs is not None:
        b[:n] = rhs
    b[n] = total
    with warnings.catch_warnings():
        # lu_factor only warns on an exact zero pivot; the solve would be NaN
        warnings.simplefilter("error", LinAlgWarning)
        try:
            # B.T is the Fortran-ordered transpose: factor it in place
            lu = lu_factor(B.T, overwrite_a=True, check_finite=False)
        except LinAlgWarning:
            lu = None
    if lu is None:
        sol = lstsq(_bordered(A), b)[0]
    else:
        sol = lu_solve(lu, b, trans=1, check_finite=False)
    return sol[:n], float(sol[n])
