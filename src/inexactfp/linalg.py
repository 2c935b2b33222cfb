"""Minimal dense/sparse linear algebra substrate.

Vectors are 1-d float64 numpy arrays, dense matrices 2-d arrays, sparse
matrices scipy CSR. ``solve_direct`` is the small-system oracle used to
cross-check the iterative solvers; it never appears inside them.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class DimensionMismatchError(ValueError):
    """Operands with incompatible shapes were combined."""


class SingularMatrixError(RuntimeError):
    """Elimination met a pivot that is zero to working precision."""

    def __init__(self, pivot_index: int, message: str | None = None):
        self.pivot_index = pivot_index
        super().__init__(message or f"singular to working precision at pivot {pivot_index}")


def norm2(x: np.ndarray) -> float:
    """Euclidean norm; 0 exactly iff x is the zero vector."""
    return float(np.linalg.norm(np.asarray(x, dtype=float)))


def solve_direct(M, b: np.ndarray) -> np.ndarray:
    """Solve M x = b by pivoted elimination (dense) or sparse LU.

    Intended for reference solutions: fixed points of linear maps and the
    monolithic discretizations the coupled iterations are checked against.
    Residuals satisfy ||Mx - b|| <= 1e-10 (||M|| ||x|| + ||b||) for
    reasonably conditioned systems.

    Raises:
        SingularMatrixError: pivot smaller than 1e-13 * ||M||_inf, with the
            offending pivot index.
    """
    b = np.asarray(b, dtype=float)
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"matrix is {M.shape[0]}x{M.shape[1]}, not square")
    if M.shape[0] != b.shape[0]:
        raise DimensionMismatchError(
            f"matrix is {M.shape[0]}x{M.shape[1]}, rhs has length {b.shape[0]}"
        )
    if sp.issparse(M):
        return _solve_sparse(M, b)
    return _solve_dense(np.array(M, dtype=float), b.copy())


def _solve_dense(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    if n == 0:
        return b
    tol = 1e-13 * max(np.abs(A).sum(axis=1).max(), 1e-300)
    for k in range(n):
        p = k + int(np.argmax(np.abs(A[k:, k])))
        if abs(A[p, k]) <= tol:
            raise SingularMatrixError(k)
        if p != k:
            A[[k, p]] = A[[p, k]]
            b[[k, p]] = b[[p, k]]
        mult = A[k + 1:, k] / A[k, k]
        A[k + 1:, k + 1:] -= np.outer(mult, A[k, k + 1:])
        b[k + 1:] -= mult * b[k]
    x = np.empty(n)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - A[k, k + 1:] @ x[k + 1:]) / A[k, k]
    return x


def _solve_sparse(M, b: np.ndarray) -> np.ndarray:
    try:
        lu = spla.splu(sp.csc_matrix(M))
    except RuntimeError as exc:  # SuperLU reports "singular" without an index
        raise SingularMatrixError(-1, f"sparse factorization failed: {exc}") from exc
    return lu.solve(b)
