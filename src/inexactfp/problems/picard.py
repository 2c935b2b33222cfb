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

from ..fixedpoint import FixedPointTrace, Termination
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
    """Assemble (A(x), b(x)) for the lagged velocity field x.

    A(x) = nu * tridiag(-1, 2, -1)/h^2 plus upwind convection: row i uses
    x_i to pick the upwind side, contributing |x_i|/h on the diagonal and
    -|x_i|/h on the upwind neighbour, so diagonal dominance holds for any
    finite x. b(x) = A(x) @ u*_grid is the manufactured forcing under the
    same lagged field; assembling at x = u*_grid gives the fixed forcing of
    the nonlinear system.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[0] != spec.n:
        raise ValueError(f"velocity field has length {x.shape[0]}, grid has {spec.n}")
    n, h, nu = spec.n, spec.h, spec.viscosity
    main = np.full(n, 2.0 * nu / h**2)
    lower = np.full(n - 1, -nu / h**2)
    upper = np.full(n - 1, -nu / h**2)
    for i in range(n):
        v = x[i]
        if v >= 0.0:
            main[i] += v / h
            if i > 0:
                lower[i - 1] -= v / h
        else:
            main[i] -= v / h
            if i < n - 1:
                upper[i] += v / h
    A = sp.diags([lower, main, upper], [-1, 0, 1], format="csr")
    b = A @ spec.exact_solution()
    return A, b


def picard_forcing(spec: PicardProblemSpec) -> np.ndarray:
    """The fixed right-hand side: forcing assembled at the exact solution."""
    _, b = picard_assemble(spec, spec.exact_solution())
    return b


def picard_iterate(
    spec: PicardProblemSpec,
    criterion: TerminationCriterion,
    tol: float,
    max_iter: int = 500,
    x0: np.ndarray | None = None,
    inner_max_iter: int | None = None,
) -> FixedPointTrace:
    """Run the Picard iteration A(x^k) x^{k+1} = b with inexact GMRES solves.

    The outer exit tests the nonlinear residual ||A(x) x - b|| <= tol
    (recorded per step in ``trace.residuals``); a zero-iteration inner solve
    with zero increment means the iteration cannot move and exits as
    stagnation.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    b = picard_forcing(spec)
    x = np.zeros(spec.n) if x0 is None else np.asarray(x0, dtype=float)
    inner_cap = inner_max_iter if inner_max_iter is not None else max(2 * spec.n, 50)

    iterates = [x]
    increments: list[float] = []
    reports: list[list] = []
    residuals: list[float] = []
    terminated = Termination.MAX_ITER
    A, _ = picard_assemble(spec, x)
    for _ in range(max_iter):
        rep = gmres_solve(A, b, x0=x, criterion=criterion, max_iter=inner_cap)
        y = rep.solution
        inc = norm2(y - x)
        A, _ = picard_assemble(spec, y)  # A(y): residual check and next step
        res = norm2(A @ y - b)
        iterates.append(y)
        increments.append(inc)
        reports.append([rep])
        residuals.append(res)
        x = y
        if not np.all(np.isfinite(y)):
            terminated = Termination.DIVERGED
            break
        if rep.iterations == 0 and inc == 0.0:
            terminated = Termination.INNER_STAGNATION
            break
        if res <= tol:
            terminated = Termination.RESIDUAL_BELOW_TOL
            break
    return FixedPointTrace(
        iterates, increments, reports, terminated, tol, residuals=residuals
    )
