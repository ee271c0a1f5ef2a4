"""Solves against a symmetric kernel matrix by matrix-vector products.

The equilibrium and entropic problems are both the unit-charge solve

    m = A^-1 1 / (1' A^-1 1),   lambda = 1 / (1' A^-1 1),

and the external-field problem solves against the kernel matrix with
two right-hand sides.  For the Riesz kernels the matrix is positive
definite and well conditioned, so conjugate gradients (Hestenes and
Stiefel 1952) reach round-off in tens of products with A and never
factor it: a solve holds a few vectors besides A itself.  CG stops when
|r| <= CG_RTOL |b|, a fixed constant: at 1e-14 the masses differed from
the bordered LU by up to 6e-12, at 1e-15 by at most 6e-13, for about 8%
more iterations.

The planar logarithmic kernel is only conditionally positive definite;
it goes through the bordered system

    [A  -1] [m     ]   [0]
    [1'  0] [lambda] = [1]

factored by LU, with least squares if the system is singular.  A Riesz
solve on which CG breaks down or does not converge takes the same
bordered path.

Every factorization, triangular solve and matrix-vector product here
runs on scipy's LAPACK and BLAS.  numpy links a separate OpenBLAS, and
a numpy BLAS call made right after a scipy factorization waits for the
other library's threads to go idle, which at a few thousand nodes can
cost as much as the solve itself.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import LinAlgWarning, lstsq, lu_factor, lu_solve
from scipy.linalg.blas import dsymv

__all__ = ["CG_RTOL", "CG_MAX_ITER", "symv", "cg_solve", "unit_charge", "bordered_solve"]

# CG stops at |r| <= CG_RTOL |b|, and gives up after CG_MAX_ITER products
CG_RTOL = 1e-15
CG_MAX_ITER = 1000


def symv(A: np.ndarray, x) -> np.ndarray:
    """A @ x for a symmetric C-ordered matrix A, without copying A."""
    # A.T is the Fortran-ordered view of the same (symmetric) matrix
    return dsymv(1.0, A.T, np.asarray(x, dtype=float))


def cg_solve(apply, b) -> np.ndarray | None:
    """Solve A x = b by conjugate gradients, apply(v) computing A @ v.

    Returns None on breakdown (p'Ap <= 0, so A is not positive
    definite) or when |r| <= CG_RTOL |b| is not reached within
    CG_MAX_ITER products; the caller then solves another way.
    """
    b = np.asarray(b, dtype=float)
    x = np.zeros_like(b)
    r = b.copy()
    p = b.copy()
    rr = float(r @ r)
    stop = rr * CG_RTOL**2
    for _ in range(CG_MAX_ITER):
        if rr <= stop:
            return x
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


def unit_charge(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Masses x / 1'x and multiplier 1 / 1'x from x = A^-1 1."""
    total = float(x.sum())
    return x / total, 1.0 / total


def _bordered(A: np.ndarray, idx) -> np.ndarray:
    n = A.shape[0] if idx is None else len(idx)
    B = np.empty((n + 1, n + 1))
    B[:n, :n] = A if idx is None else A[np.ix_(idx, idx)]
    B[:n, n] = -1.0
    B[n, :n] = 1.0
    B[n, n] = 0.0
    return B


def bordered_solve(A: np.ndarray, idx=None) -> tuple[np.ndarray, float]:
    """Unit-charge solve on A[idx, idx] through the bordered system.

    idx defaults to every row.  An exactly singular system falls back to
    the least-squares solution of minimal norm.
    """
    B = _bordered(A, idx)
    n = B.shape[0] - 1
    b = np.zeros(n + 1)
    b[n] = 1.0
    with warnings.catch_warnings():
        # lu_factor only warns on an exact zero pivot; the solve would be NaN
        warnings.simplefilter("error", LinAlgWarning)
        try:
            # B.T is the Fortran-ordered transpose: factor it in place
            lu = lu_factor(B.T, overwrite_a=True, check_finite=False)
        except LinAlgWarning:
            lu = None
    if lu is None:
        sol = lstsq(_bordered(A, idx), b)[0]
    else:
        sol = lu_solve(lu, b, trans=1, check_finite=False)
    return sol[:n], float(sol[n])
