"""Minimal dense/sparse linear algebra substrate.

Vectors are 1-d float64 numpy arrays, dense matrices 2-d arrays, sparse
matrices scipy CSR. ``solve_direct`` is the small-system oracle used to
cross-check the iterative solvers; it never appears inside them.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack


class DimensionMismatchError(ValueError):
    """Operands with incompatible shapes were combined."""


class SingularMatrixError(RuntimeError):
    """Factorization met a pivot that is zero to working precision."""

    def __init__(self, pivot_index: int, message: str | None = None):
        self.pivot_index = pivot_index
        super().__init__(message or f"singular to working precision at pivot {pivot_index}")


def norm2(x: np.ndarray) -> float:
    """Euclidean norm; 0 exactly iff x is the zero vector.

    The same operations as ``np.linalg.norm`` on real input, bit for bit,
    without its dispatch. The ravel matters: a dot product over a strided
    view sums in another order than over the contiguous copy.
    """
    x = np.asarray(x, dtype=float).ravel(order="K")
    return math.sqrt(float(x.dot(x)))


def solve_direct(M, b: np.ndarray) -> np.ndarray:
    """Solve M x = b by LAPACK LU with partial pivoting (dense) or sparse LU.

    Intended for reference solutions: fixed points of linear maps and the
    monolithic discretizations the coupled iterations are checked against.
    Residuals satisfy ||Mx - b|| <= 1e-10 (||M|| ||x|| + ||b||) for
    reasonably conditioned systems.

    Raises:
        SingularMatrixError: pivot smaller than 1e-13 * ||M||_inf, with the
            offending pivot index.
    """
    b = np.asarray(b, dtype=float)
    if not sp.issparse(M):
        M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"matrix has shape {M.shape}, not square")
    if M.shape[0] != b.shape[0]:
        raise DimensionMismatchError(
            f"matrix is {M.shape[0]}x{M.shape[1]}, rhs has length {b.shape[0]}"
        )
    if sp.issparse(M):
        return _solve_sparse(M, b)
    return _solve_dense(M, b)


def _solve_dense(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    if M.shape[0] == 0:
        return b.copy()
    lu, piv, _ = lapack.dgetrf(M)
    tol = 1e-13 * max(np.abs(M).sum(axis=1).max(), 1e-300)
    small = np.flatnonzero(np.abs(np.diag(lu)) <= tol)
    if small.size:
        raise SingularMatrixError(int(small[0]))
    x, _ = lapack.dgetrs(lu, piv, b)
    return x


def _solve_sparse(M, b: np.ndarray) -> np.ndarray:
    try:
        lu = spla.splu(sp.csc_matrix(M))
    except RuntimeError as exc:  # SuperLU reports "singular" without an index
        raise SingularMatrixError(-1, f"sparse factorization failed: {exc}") from exc
    return lu.solve(b)
