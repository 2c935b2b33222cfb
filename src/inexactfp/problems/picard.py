"""Desk-scale Picard problem: 1D convection-diffusion with lagged velocity.

The nonlinear system A(u) u = b discretizes -nu u'' + u u' = f on (0, 1)
with homogeneous Dirichlet ends: second-order diffusion plus first-order
upwind convection whose velocity field is the lagged iterate. The forcing
is manufactured from u*(s) = s(1-s) so the discrete system has that exact
grid function as its solution, which makes "converges to the exact discrete
solution" a machine-checkable statement. The problem has one configuration:
N = 64 interior points and viscosity 1e-2.

Each Picard step solves A(x^k) x^{k+1} = b with GMRES started at x^k, so
the relative-to-initial-residual criterion coincides with the
relative-to-previous-iterate rule the convergence theory wants.
"""

from __future__ import annotations

import numpy as np

from ..fixedpoint import FixedPointTrace, _drive
from ..krylov import TerminationCriterion, gmres_solve, norm2

N = 64  # interior grid points
VISCOSITY = 1e-2
PICARD_MAX_ITER = 500  # outer steps


def picard_assemble(x: np.ndarray):
    """Assemble A(x) for the lagged velocity field x on its len(x) grid points.

    A(x) = nu * tridiag(-1, 2, -1)/h^2 plus upwind convection: row i uses
    x_i to pick the upwind side, contributing |x_i|/h on the diagonal and
    -|x_i|/h on the upwind neighbour, so diagonal dominance holds for any
    finite x. The result is DIA at offsets -1, 0, 1, which sums each row of
    a product in column order, as CSR does.
    """
    import scipy.sparse as sp  # on first use: no scipy at import

    x = np.asarray(x, dtype=float)
    n, nu = len(x), VISCOSITY
    h = 1.0 / (n + 1)
    # the upwind neighbour of row i is left of it when x_i >= 0, else right;
    # row k of data holds A[j - offsets[k], j] in column j
    data = np.zeros((3, n))
    data[0, :-1] = -nu / h**2 - np.where(x[1:] >= 0.0, x[1:], 0.0) / h
    data[1] = 2.0 * nu / h**2 + np.abs(x) / h
    data[2, 1:] = -nu / h**2 + np.where(x[:-1] >= 0.0, 0.0, x[:-1]) / h
    return sp.dia_matrix((data, [-1, 0, 1]), shape=(n, n))


def picard_exact_solution() -> np.ndarray:
    """The manufactured solution u*(s) = s(1 - s) on the N interior points."""
    s = np.arange(1, N + 1) * (1.0 / (N + 1))
    return s * (1.0 - s)


def picard_forcing() -> np.ndarray:
    """The fixed right-hand side A(u*) u* of the manufactured solution u*."""
    u = picard_exact_solution()
    return picard_assemble(u) @ u


def picard_iterate(
    criterion: TerminationCriterion, tol: float, max_iter: int = PICARD_MAX_ITER
) -> FixedPointTrace:
    """Run the Picard iteration A(x^k) x^{k+1} = b from zero with inexact GMRES solves.

    Each step assembles A(x^{k+1}) once, for the nonlinear residual
    ||A(x) x - b|| (recorded per step in ``trace.residuals``) and the next
    solve. The outer exit tests that residual <= tol, not the increment.
    """
    b = picard_forcing()
    x0 = np.zeros(N)
    inner_cap = 2 * N
    A = picard_assemble(x0)

    def step(x, k):
        nonlocal A
        rep = gmres_solve(A, b, x0=x, criterion=criterion, max_iter=inner_cap)
        y = rep.solution
        A = picard_assemble(y)
        return y, [rep], norm2(A @ y - b)

    return _drive(step, x0, tol, max_iter)
