"""Two-subdomain Poisson transmission problem and its Dirichlet-Neumann iteration.

Geometry: the Laplace problem Delta u = f on [0,2]x[0,1] with zero outer
boundary values, split at the interface x = 1 into Omega1 = [0,1]x[0,1] and
Omega2 = [1,2]x[0,1]. Five-point central differences with mesh width
dx = dy; the negated Laplacian is assembled so both subdomain blocks are
symmetric positive definite and CG applies.

Unknown blocks:

* A: the Omega1 interior nodes. Interface values enter b1 as Dirichlet data.
* B: the interface nodes plus the Omega2 interior. Interface rows keep the
  full five-point stencil; their Omega1-side neighbour value is data in b2,
  which realizes the flux coupling. At a fixed point of the sweep the
  stacked subdomain solutions satisfy the single-domain (monolithic)
  five-point system exactly, so the monolithic solve is the oracle for the
  coupled iteration.

One sweep solves the Dirichlet block with the current interface values and
the Neumann block with the coupling column of the previous sweep's Omega1
solution, then reads the new interface values off the Neumann solution.
Feeding b2 from the previous sweep (rather than the one just computed)
slows the contraction to its square root, which is what the reference
iteration counts for this problem correspond to; the fixed point is the
same either way.

Inner CG solves start from the previous outer step's subdomain solutions by
default, which makes the relative-to-initial-residual criterion equal to
the relative-to-previous-iterate rule of the convergence theory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from ..fixedpoint import DEFAULT_MAX_ITER, FixedPointTrace, _drive
from ..krylov import SolveReport, TerminationCriterion, cg_solve
from ..linalg import norm2, solve_direct


def exact_solution(x, y):
    """Closed-form solution sin(pi y^2) sin(pi/2 x^2); zero on the boundary."""
    return np.sin(np.pi * np.asarray(y) ** 2) * np.sin(0.5 * np.pi * np.asarray(x) ** 2)


def default_forcing(x, y):
    """Right-hand side of Delta u = f manufactured for ``exact_solution``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sy = np.sin(np.pi * y**2)
    sx = np.sin(0.5 * np.pi * x**2)
    return sy * (np.pi * np.cos(0.5 * np.pi * x**2) - np.pi**2 * x**2 * sx) + sx * (
        2 * np.pi * np.cos(np.pi * y**2) - 4 * np.pi**2 * y**2 * sy
    )


@dataclass
class TransmissionSystem:
    """Assembled discrete operators of the two-subdomain problem.

    A monolithic vector is an ``(m, 2m + 1)`` row-major array over the
    interior nodes (j, i), with ``m = n_cells - 1``: columns ``[:, :m]``
    are Omega1, column ``m`` is the interface and ``[:, m + 1:]`` are
    Omega2. Omega1 vectors are the ``(m, m)`` block flattened;
    B-ordered vectors are the interface column followed by the flattened
    Omega2 block.
    """

    dx: float
    n_cells: int  # cells per unit length; interface at grid line n_cells
    A: sp.csr_matrix
    B: sp.csr_matrix
    monolithic: sp.csr_matrix
    monolithic_rhs: np.ndarray
    f_omega1: np.ndarray  # forcing samples on Omega1 interior, A-ordering
    f_block2: np.ndarray  # forcing samples on Gamma + Omega2 interior, B-ordering
    manufactured: bool  # True when the forcing matches exact_solution
    _monolithic_solution: np.ndarray | None = field(default=None, repr=False)

    @property
    def interface_count(self) -> int:
        return self.n_cells - 1

    @property
    def n1(self) -> int:
        return self.A.shape[0]

    @property
    def n2(self) -> int:
        return self.B.shape[0]

    def grid(self, v: np.ndarray) -> np.ndarray:
        """View of a flat grid vector as its rows j = 1 .. n_cells - 1."""
        return v.reshape(self.interface_count, -1)

    # -- right-hand side builders ------------------------------------------
    def b1(self, u_gamma: np.ndarray) -> np.ndarray:
        """Dirichlet block rhs: forcing plus interface data on the adjacent column."""
        b = -self.f_omega1
        self.grid(b)[:, -1] += u_gamma * (1.0 / self.dx**2)
        return b

    def b2(self, u1_coupling: np.ndarray) -> np.ndarray:
        """Neumann block rhs: forcing plus the Omega1 neighbour column values."""
        b = -self.f_block2
        b[: self.interface_count] += u1_coupling * (1.0 / self.dx**2)
        return b

    def coupling_column(self, u1: np.ndarray) -> np.ndarray:
        """The interface-adjacent column of an Omega1 solution."""
        return self.grid(u1)[:, -1].copy()

    # -- oracles -------------------------------------------------------------
    def monolithic_solution(self) -> np.ndarray:
        if self._monolithic_solution is None:
            self._monolithic_solution = solve_direct(self.monolithic, self.monolithic_rhs)
        return self._monolithic_solution

    def monolithic_interface(self) -> np.ndarray:
        return self.grid(self.monolithic_solution())[:, self.interface_count].copy()

    def assemble_full(self, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
        """Stack subdomain solutions into monolithic ordering."""
        m = self.interface_count
        full = np.empty_like(self.monolithic_rhs)
        grid = self.grid(full)
        grid[:, :m] = self.grid(u1)
        grid[:, m] = u2[:m]
        grid[:, m + 1:] = self.grid(u2[m:])
        return full

    def discretization_max_error(self) -> float:
        """Max-norm error of the monolithic solution against the exact field."""
        if not self.manufactured:
            raise ValueError("no closed-form solution for a custom forcing")
        n = self.n_cells
        y, x = np.mgrid[1:n, 1 : 2 * n] * self.dx
        u = self.grid(self.monolithic_solution())
        return float(np.abs(u - exact_solution(x, y)).max())


def _laplacian(rows: int, cols: int) -> sp.csr_matrix:
    """Negated five-point Laplacian without the 1/h^2 factor on a row-major
    (rows, cols) grid of interior nodes with zero boundary values: 4 on the
    diagonal, -1 per neighbour, no stored zeros."""

    def second_difference(k):
        return sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(k, k))

    L = sp.kron(sp.identity(rows), second_difference(cols), format="csr")
    L = L + sp.kron(second_difference(rows), sp.identity(cols), format="csr")
    L.eliminate_zeros()
    return L


def transmission_assemble(
    dx: float, forcing: Callable | None = None
) -> TransmissionSystem:
    """Assemble all operators for mesh width ``dx`` (1/dx must be an integer).

    ``forcing(x, y)`` is called once, with x and y arrays of the sample
    points (the interior nodes plus the interface at x = 1); it returns an
    array of their shape or a scalar, which broadcasts to every point.
    """
    n = round(1.0 / dx)
    if n < 2 or abs(n * dx - 1.0) > 1e-12:
        raise ValueError(f"1/dx must be a positive integer >= 2, got dx={dx}")
    f = forcing if forcing is not None else default_forcing
    h = 1.0 / n
    m = n - 1
    ih2 = 1.0 / h**2

    # forcing on the (j, i) interior grid, plus one last column at x = 1
    # exactly for the interface rows of B (n * h can miss 1 by an ulp)
    y, x = np.mgrid[1:n, 1 : 2 * n + 1] * h
    x[:, -1] = 1.0
    fs = np.empty(x.shape)
    fs[...] = f(x, y)

    A = ih2 * _laplacian(m, m)
    # interface rows keep the full five-point stencil: a tridiagonal block
    # along the interface and a link to the first Omega2 column i = n + 1
    gamma = ih2 * sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(m, m))
    link = -ih2 * sp.kron(sp.identity(m), sp.eye(1, m))
    B = sp.bmat([[gamma, link], [link.T, A]], format="csr")
    B.eliminate_zeros()
    B.sort_indices()

    return TransmissionSystem(
        dx=h,
        n_cells=n,
        A=A,
        B=B,
        monolithic=ih2 * _laplacian(m, 2 * n - 1),
        monolithic_rhs=-fs[:, :-1].ravel(),
        f_omega1=fs[:, :m].ravel(),
        f_block2=np.concatenate([fs[:, -1], fs[:, n:-1].ravel()]),
        manufactured=forcing is None,
    )


@dataclass
class DnState:
    """Interface values plus both subdomain solutions of the last sweep.

    The subdomain solutions serve double duty: initial guesses for the next
    inner solves and the coupling data for the Neumann block.
    """

    u_gamma: np.ndarray
    u1: np.ndarray
    u2: np.ndarray

    @classmethod
    def zeros(cls, sys: TransmissionSystem) -> "DnState":
        return cls(
            u_gamma=np.zeros(sys.interface_count),
            u1=np.zeros(sys.n1),
            u2=np.zeros(sys.n2),
        )

    @classmethod
    def from_monolithic(cls, sys: TransmissionSystem) -> "DnState":
        """The exact coupled fixed point, restricted to the blocks."""
        u = sys.grid(sys.monolithic_solution())
        m = sys.interface_count
        return cls(
            u_gamma=sys.monolithic_interface(),
            u1=u[:, :m].flatten(),
            u2=np.concatenate([u[:, m], u[:, m + 1:].ravel()]),
        )


def dn_step(
    sys: TransmissionSystem,
    state: DnState,
    criterion: TerminationCriterion,
    inner_guess: str = "previous",
) -> tuple[DnState, tuple[SolveReport, SolveReport]]:
    """One Dirichlet-Neumann sweep.

    Solves the Dirichlet block for the current interface values, the Neumann
    block with the coupling column of the previous sweep's Omega1 solution,
    and returns the interface part of the Neumann solution as the new
    interface iterate. ``inner_guess`` starts each inner solve from the
    previous sweep's solution ("previous") or from zero ("zero").
    """
    if inner_guess not in ("previous", "zero"):
        raise ValueError(f"inner_guess must be 'previous' or 'zero', got {inner_guess!r}")
    cap = 4 * sys.n2
    x0_1 = state.u1 if inner_guess == "previous" else np.zeros(sys.n1)
    rep1 = cg_solve(sys.A, sys.b1(state.u_gamma), x0=x0_1, criterion=criterion, max_iter=cap)

    coupling = sys.coupling_column(state.u1)  # previous sweep's solution
    x0_2 = state.u2 if inner_guess == "previous" else np.zeros(sys.n2)
    rep2 = cg_solve(sys.B, sys.b2(coupling), x0=x0_2, criterion=criterion, max_iter=cap)

    new_state = DnState(
        u_gamma=rep2.solution[: sys.interface_count].copy(),
        u1=rep1.solution,
        u2=rep2.solution,
    )
    return new_state, (rep1, rep2)


def dn_iterate(
    sys: TransmissionSystem,
    criterion: TerminationCriterion,
    tol: float,
    max_iter: int = DEFAULT_MAX_ITER,
    inner_guess: str = "previous",
) -> FixedPointTrace:
    """Iterate sweeps from zero interface values until the interface increment
    drops below ``tol``; the trace records both solve reports per sweep."""
    state = DnState.zeros(sys)

    def step(u_gamma, k):
        nonlocal state
        state, reports = dn_step(sys, state, criterion, inner_guess)
        return state.u_gamma, list(reports)

    trace = _drive(step, state.u_gamma, tol, max_iter)
    trace.state = state
    return trace


def solution_errors(sys: TransmissionSystem, state: DnState) -> tuple[float, float]:
    """(interface error, full-domain error) against the monolithic solution."""
    u_mono = sys.monolithic_solution()
    err_gamma = norm2(state.u_gamma - sys.monolithic_interface())
    full = sys.assemble_full(state.u1, state.u2)
    return err_gamma, norm2(full - u_mono)


def field_rows(sys: TransmissionSystem, which: str):
    """(x, y, value) triples on the closed grid for CSV export.

    ``which`` is "exact" for the closed-form field or "discrete" for the
    monolithic finite difference solution; boundary points carry zeros.
    """
    n = sys.n_cells
    y, x = np.mgrid[0 : n + 1, 0 : 2 * n + 1] * sys.dx
    if which == "exact":
        if not sys.manufactured:
            raise ValueError("no closed-form solution for a custom forcing")
        values = exact_solution(x, y)
    elif which == "discrete":
        values = np.zeros(x.shape)
        values[1:n, 1 : 2 * n] = sys.grid(sys.monolithic_solution())
    else:
        raise ValueError(f"unknown field {which!r}; expected 'exact' or 'discrete'")
    yield from zip(x.ravel().tolist(), y.ravel().tolist(), values.ravel().tolist())
