"""The 2x2 linear nested problem (I - AB) x = b, i.e. x = A(Bx) + b.

A and B share the shape [[p, 0], [0.001, 0.001]] with p = alpha resp. beta;
the outer map is S(x) = Ax + b, the inner F(x) = Bx, so the Lipschitz
constants are the spectral norms (slightly above alpha resp. beta).
"""

from __future__ import annotations

import numpy as np

OFF_DIAGONAL = 0.001


def _coupling_matrix(p: float) -> np.ndarray:
    return np.array([[p, 0.0], [OFF_DIAGONAL, OFF_DIAGONAL]])


def linear_nested(alpha: float, beta: float):
    """Return (S, F, x_star): the outer and inner maps and the fixed point.

    The fixed point is the direct solution of (I - AB) x = b by
    ``np.linalg.solve``, which raises ``LinAlgError`` only if I - AB is
    exactly singular (alpha = beta = 1); near it x_star is large but
    finite. The CLI and ``ExperimentConfig.with_defaults`` reject
    alpha * beta >= 1 beforehand, so there is no check here.

    The ``linear-nested`` ``bound`` column, ``bound_nested(eps, eps, alpha,
    beta)``, takes alpha and beta for the maps' Lipschitz constants, which
    are slightly larger: at alpha = beta = 0, eps = 1e-1 the error 1.001e-1
    exceeds it (1.000e-1); the bound from the true norms, 1.00142e-1, holds.
    """
    A = _coupling_matrix(alpha)
    B = _coupling_matrix(beta)
    b = np.array([1.0, 1.0])
    x_star = np.linalg.solve(np.eye(2) - A @ B, b)

    def S(x):
        return A @ x + b

    def F(x):
        return B @ x

    return S, F, x_star
