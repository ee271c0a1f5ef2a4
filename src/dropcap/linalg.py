"""Dense solves against a symmetric kernel matrix, on scipy's BLAS.

The equilibrium and entropic problems are both the unit-charge solve

    m = A^-1 1 / (1' A^-1 1),   lambda = 1 / (1' A^-1 1),

and the external-field problem solves against the kernel matrix with
two right-hand sides.  For the Riesz kernels the matrix is positive
definite, so one Cholesky factor serves every right-hand side.  The
planar logarithmic kernel is only conditionally positive definite; it
goes through the bordered system

    [A  -1] [m     ]   [0]
    [1'  0] [lambda] = [1]

factored by LU, with least squares if the system is singular.  A Riesz
matrix that Cholesky rejects takes the same bordered path.

Every factorization, triangular solve and matrix-vector product here
runs on scipy's LAPACK and BLAS.  numpy links a separate OpenBLAS, and
a numpy BLAS call made right after a scipy factorization waits for the
other library's threads to go idle, which at a few thousand nodes can
cost as much as the solve itself.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import (
    LinAlgError,
    LinAlgWarning,
    cho_factor,
    cho_solve,
    lstsq,
    lu_factor,
    lu_solve,
)
from scipy.linalg.blas import dsymv

__all__ = ["symv", "spd_factor", "unit_charge_solve", "bordered_solve"]


def symv(A: np.ndarray, x) -> np.ndarray:
    """A @ x for a symmetric C-ordered matrix A, without copying A."""
    # A.T is the Fortran-ordered view of the same (symmetric) matrix
    return dsymv(1.0, A.T, np.asarray(x, dtype=float))


def spd_factor(A: np.ndarray, overwrite: bool = False):
    """Cholesky factor of a symmetric C-ordered matrix, None if not positive definite.

    With overwrite the factor is computed in A's own memory, and A is
    left unusable whether or not Cholesky accepts it.
    """
    try:
        return cho_factor(A.T, overwrite_a=overwrite, check_finite=False)
    except LinAlgError:
        return None


def unit_charge_solve(factor) -> tuple[np.ndarray, float]:
    """Masses A^-1 1 / 1'A^-1 1 and multiplier 1 / 1'A^-1 1 from A's Cholesky factor."""
    x = cho_solve(factor, np.ones(factor[0].shape[0]), check_finite=False)
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
