"""Desk-scale Picard problem: 1D convection-diffusion with lagged velocity.

The nonlinear system A(u) u = b discretizes -nu u'' + u u' = f on (0, 1)
with homogeneous Dirichlet ends: second-order diffusion plus first-order
upwind convection whose velocity field is the lagged iterate. The forcing
is manufactured from u*(s) = s(1-s) so the discrete system has that exact
grid function as its solution, which makes "converges to the exact discrete
solution" a machine-checkable statement.

Each Picard step solves A(x^k) x^{k+1} = b with GMRES started at x^k, so
the relative-to-initial-residual criterion coincides with the
relative-to-previous-iterate rule the convergence theory wants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..fixedpoint import FixedPointTrace, Termination, _drive
from ..krylov import TerminationCriterion, gmres_solve
from ..linalg import norm2


@dataclass(frozen=True)
class PicardProblemSpec:
    """Grid size and viscosity of the substitute problem."""

    n: int
    viscosity: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one interior point, got n={self.n}")
        if not self.viscosity > 0:
            raise ValueError(f"viscosity must be positive, got {self.viscosity}")

    @property
    def h(self) -> float:
        return 1.0 / (self.n + 1)

    def grid(self) -> np.ndarray:
        return np.arange(1, self.n + 1) * self.h

    def exact_solution(self) -> np.ndarray:
        s = self.grid()
        return s * (1.0 - s)


def picard_assemble(spec: PicardProblemSpec, x: np.ndarray):
    """Assemble A(x) for the lagged velocity field x.

    A(x) = nu * tridiag(-1, 2, -1)/h^2 plus upwind convection: row i uses
    x_i to pick the upwind side, contributing |x_i|/h on the diagonal and
    -|x_i|/h on the upwind neighbour, so diagonal dominance holds for any
    finite x.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[0] != spec.n:
        raise ValueError(f"velocity field has length {x.shape[0]}, grid has {spec.n}")
    n, h, nu = spec.n, spec.h, spec.viscosity
    # the upwind neighbour of row i is left of it when x_i >= 0, else right
    main = 2.0 * nu / h**2 + np.abs(x) / h
    lower = -nu / h**2 - np.where(x[1:] >= 0.0, x[1:], 0.0) / h
    upper = -nu / h**2 + np.where(x[:-1] >= 0.0, 0.0, x[:-1]) / h
    # the CSR arrays of sp.diags([lower, main, upper], [-1, 0, 1]), built
    # directly: row i holds columns i - 1, i, i + 1 clipped to the grid
    rows = np.empty((n, 3))
    rows[1:, 0], rows[:, 1], rows[:-1, 2] = lower, main, upper
    cols = np.arange(-1, n - 1, dtype=np.int32)[:, None] + np.arange(3, dtype=np.int32)
    indptr = np.clip(3 * np.arange(n + 1, dtype=np.int32) - 1, 0, 3 * n - 2)
    return sp.csr_matrix((rows.ravel()[1:-1], cols.ravel()[1:-1], indptr), shape=(n, n))


def picard_forcing(spec: PicardProblemSpec) -> np.ndarray:
    """The fixed right-hand side A(u*) u* of the manufactured solution u*."""
    u = spec.exact_solution()
    return picard_assemble(spec, u) @ u


def picard_iterate(
    spec: PicardProblemSpec,
    criterion: TerminationCriterion,
    tol: float,
    max_iter: int = 500,
) -> FixedPointTrace:
    """Run the Picard iteration A(x^k) x^{k+1} = b from zero with inexact GMRES solves.

    Each step assembles A(x^{k+1}) once, for the nonlinear residual
    ||A(x) x - b|| (recorded per step in ``trace.residuals``) and the next
    solve. The outer exit tests that residual <= tol, not the increment.
    """
    b = picard_forcing(spec)
    x0 = np.zeros(spec.n)
    inner_cap = max(2 * spec.n, 50)
    A = picard_assemble(spec, x0)
    residuals: list[float] = []

    def step(x, k):
        nonlocal A
        rep = gmres_solve(A, b, x0=x, criterion=criterion, max_iter=inner_cap)
        y = rep.solution
        A = picard_assemble(spec, y)
        residuals.append(norm2(A @ y - b))
        return y, [rep]

    def exit_test(y, inc):
        return Termination.RESIDUAL_BELOW_TOL if residuals[-1] <= tol else None

    trace = _drive(step, x0, tol, max_iter, exit_test)
    trace.residuals = residuals
    return trace
