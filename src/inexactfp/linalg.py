"""Minimal dense linear algebra substrate.

Vectors are 1-d float64 numpy arrays, matrices 2-d arrays. ``solve_direct``
is the small dense-system oracle used to cross-check the iterative solvers;
it never appears inside them, so it imports ``scipy.linalg`` on first use:
runs that never solve directly (Picard, the scalar maps, the transmission
runs) skip that import.
"""

from __future__ import annotations

import math

import numpy as np


class DimensionMismatchError(ValueError):
    """Operands with incompatible shapes were combined."""


class SingularMatrixError(RuntimeError):
    """Factorization met a pivot that is zero to working precision."""

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(f"singular to working precision at pivot {pivot_index}")


def norm2(x: np.ndarray) -> float:
    """Euclidean norm; 0 exactly iff x is the zero vector.

    The same operations as ``np.linalg.norm`` on real input, bit for bit,
    without its dispatch or overflow warning (``np.vdot`` checks no float
    status), unless the squares of a finite nonzero x leave float64's range:
    then it is recomputed scaled by ``max|x|``. The ravel matters: a dot
    product over a strided view sums in another order than over a copy.
    """
    x = np.asarray(x, dtype=float).ravel(order="K")
    s = math.sqrt(float(np.vdot(x, x)))
    scale = float(np.abs(x).max(initial=0.0)) if not 0.0 < s < math.inf else 0.0
    return scale * norm2(x / scale) if 0.0 < scale < math.inf else s


def solve_direct(M, b: np.ndarray) -> np.ndarray:
    """Solve the dense system M x = b by LAPACK LU with partial pivoting.

    Intended for reference solutions: fixed points of linear maps and the
    cross-checks of the Krylov solvers.
    Residuals satisfy ||Mx - b|| <= 1e-10 (||M|| ||x|| + ||b||) for
    reasonably conditioned systems.

    Raises:
        SingularMatrixError: pivot smaller than 1e-13 * ||M||_inf, with the
            offending pivot index.
    """
    b = np.asarray(b, dtype=float)
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"matrix has shape {M.shape}, not square")
    if M.shape[0] != b.shape[0]:
        raise DimensionMismatchError(
            f"matrix is {M.shape[0]}x{M.shape[1]}, rhs has length {b.shape[0]}"
        )
    from scipy.linalg import lapack

    if M.shape[0] == 0:
        return b.copy()
    lu, piv, _ = lapack.dgetrf(M)
    tol = 1e-13 * max(np.abs(M).sum(axis=1).max(), 1e-300)
    small = np.flatnonzero(np.abs(np.diag(lu)) <= tol)
    if small.size:
        raise SingularMatrixError(int(small[0]))
    x, _ = lapack.dgetrs(lu, piv, b)
    return x

