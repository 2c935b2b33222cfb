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
  five-point system on the stacked block forcings exactly, so its solution,
  a function of the mesh alone by a fast 2-D sine transform
  (``monolithic_field``), is the iteration's oracle.

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

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from numpy.linalg import solve as solve_direct  # unused here; perfbench/spans.py wraps this name

from ..fixedpoint import DEFAULT_MAX_ITER, FixedPointTrace, _drive
from ..krylov import SolveReport, TerminationCriterion, cg_solve, norm2

if TYPE_CHECKING:
    import scipy.sparse as sp

INNER_GUESSES = ("previous", "zero")  # dn_step's inner_guess values


def exact_solution(x, y):
    """Closed-form solution sin(pi y^2) sin(pi/2 x^2); zero on the boundary."""
    return np.sin(np.pi * np.asarray(y) ** 2) * np.sin(0.5 * np.pi * np.asarray(x) ** 2)


def default_forcing(x, y):
    """Right-hand side of Delta u = f manufactured for ``exact_solution``."""
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
    Omega2. Omega1 vectors are the ``(m, m)`` block flattened, B-ordered
    ones the ``(m, m + 1)`` block ``[:, m:]`` in ``_interface_first`` order:
    the interface (``interface``), then Omega2 row by row. The oracle
    ``monolithic_solution`` is ``monolithic_field`` at this mesh, cached as
    its grid: solved from the mesh alone, it reads no operator or forcing.

    Both operators are blocks of the monolithic five-point matrix, built by
    ``_five_point``: ``A`` of the Omega1 columns in its DIA form, and ``B``
    (CSR, the DIA form's ``tocsr()``) of the interface column and Omega2,
    interface first. ``A``'s ascending offsets make each row sum its terms
    in the column order of a sorted CSR row, and its zeros stored across the
    walls add a signed zero to a sum that is never -0.0, so for finite
    vectors ``A @ v``, scipy's ``dia_matvec`` kernel in CG, has the CSR
    product's bits.
    """

    n_cells: int  # cells per unit length; interface at grid line n_cells
    A: sp.dia_matrix
    B: sp.csr_matrix
    f_omega1: np.ndarray  # forcing samples on Omega1 interior, A-ordering
    f_block2: np.ndarray  # forcing samples on Gamma + Omega2 interior, B-ordering
    _monolithic_solution: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def dx(self) -> float:
        return 1.0 / self.n_cells

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

    def interface(self, u2: np.ndarray) -> np.ndarray:
        """View of the interface values of a B-ordered vector."""
        return u2[: self.interface_count]

    # -- right-hand side builders ------------------------------------------
    def b1(self, u_gamma: np.ndarray) -> np.ndarray:
        """Dirichlet block rhs: forcing plus interface data on the adjacent column."""
        b = -self.f_omega1
        self.grid(b)[:, -1] += u_gamma * (1.0 / self.dx**2)
        return b

    def b2(self, u1_coupling: np.ndarray) -> np.ndarray:
        """Neumann block rhs: forcing plus the Omega1 neighbour column values."""
        b = -self.f_block2
        self.interface(b)[:] += u1_coupling * (1.0 / self.dx**2)
        return b

    def coupling_column(self, u1: np.ndarray) -> np.ndarray:
        """The interface-adjacent column of an Omega1 solution."""
        return self.grid(u1)[:, -1].copy()

    # -- oracles -------------------------------------------------------------
    def monolithic_solution(self) -> np.ndarray:
        """The monolithic solution as its (m, 2m + 1) grid, cached:
        ``monolithic_field(dx)``."""
        if self._monolithic_solution is None:
            self._monolithic_solution = monolithic_field(self.dx)
        return self._monolithic_solution

    def assemble_full(self, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
        """Stack subdomain solutions into the monolithic grid."""
        m = self.interface_count
        return np.hstack([self.grid(u1), self.interface(u2)[:, None], self.grid(u2[m:])])

    def discretization_max_error(self) -> float:
        """Max-norm error of the monolithic solution against the exact field."""
        _, _, exact, discrete = field_grids(self.dx, self.monolithic_solution())
        return float(np.abs(discrete - exact).max())


def _five_point(rows: int, cols: int, ih2: float) -> sp.dia_matrix:
    """ih2 times the negated five-point Laplacian on a row-major (rows, cols)
    grid with zero walls, as DIA at ascending offsets -cols, -1, 0, 1, cols:
    zeros stored across the walls, diagonals without a nonzero left out."""
    import scipy.sparse as sp  # on first use: no scipy at import

    size = rows * cols
    data = np.repeat(ih2 * np.array([[-1.0], [-1.0], [4.0], [-1.0], [-1.0]]), size, axis=1)
    grid = data.reshape(5, rows, cols)  # data[k, c] is entry (c - offsets[k], c)
    grid[0, -1] = grid[1, :, -1] = grid[3, :, 0] = grid[4, 0] = 0.0  # across a wall
    keep = data.any(axis=1)
    return sp.dia_matrix((data[keep], np.array([-cols, -1, 0, 1, cols])[keep]), shape=(size, size))


def _interface_first(block: np.ndarray) -> np.ndarray:
    """B's order of an (m, m + 1) Neumann grid: the interface column 0, then the rest by rows."""
    return np.concatenate([block[:, 0], block[:, 1:].ravel()])


def mesh_cells(dx: float) -> int:
    """The cells per unit length n of a mesh width dx = 1/n, n >= 2;
    ValueError for any other dx."""
    inverse = 1.0 / dx if dx else math.inf
    n = round(inverse) if math.isfinite(inverse) else 0
    if n < 2 or abs(n * dx - 1.0) > 1e-12:
        raise ValueError(f"1/dx must be a positive integer >= 2, got dx={dx}")
    return n


def _interior_forcing(n: int) -> np.ndarray:
    """``default_forcing`` on the (n - 1, 2n - 1) interior grid (j, i), from its
    axes, the interface column at x = 1 exactly (n * h can miss 1 by an ulp)."""
    h = 1.0 / n
    y, x = np.arange(1, n)[:, None] * h, np.arange(1, 2 * n) * h
    x[n - 1] = 1.0
    return default_forcing(x, y)


def monolithic_field(dx: float) -> np.ndarray:
    """The monolithic five-point solution for ``default_forcing`` at mesh
    width ``dx``, as its (n - 1, 2n - 1) interior grid (j, i). Its matrix,
    dx^-2 times the negated five-point Laplacian with zero walls on a uniform
    grid, has products of DST-I modes as eigenvectors, so a 2-D sine
    transform each way solves it, exactly in exact arithmetic (Buzbee, Golub
    and Nielson 1970); no operator is assembled."""
    from scipy.fft import dstn, idstn  # on first use: only the oracle needs it

    n = mesh_cells(dx)
    h = 1.0 / n
    j, i = np.ogrid[1:n, 1 : 2 * n]
    lam = 4 * np.sin(np.pi * j / (2 * n)) ** 2 + 4 * np.sin(np.pi * i / (4 * n)) ** 2
    f_hat = dstn(-_interior_forcing(n), type=1)
    return idstn(f_hat / (lam / h**2), type=1)


def transmission_assemble(dx: float) -> TransmissionSystem:
    """Assemble all operators for mesh width ``dx`` (1/dx must be an integer)."""
    import scipy.sparse as sp

    n = mesh_cells(dx)
    h = 1.0 / n
    m = n - 1
    ih2 = 1.0 / h**2
    fs = _interior_forcing(n)

    # B interface first: rows taken, column indices remapped (faster than a column take)
    order = _interface_first(np.arange(m * (m + 1)).reshape(m, m + 1))
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    C = _five_point(m, m + 1, ih2).tocsr()[order]
    B = sp.csr_matrix((C.data, inverse[C.indices].astype(C.indices.dtype), C.indptr), C.shape)
    B.sort_indices()

    return TransmissionSystem(n_cells=n, A=_five_point(m, m, ih2), B=B,
                              f_omega1=fs[:, :m].ravel(), f_block2=_interface_first(fs[:, m:]))


@dataclass
class DnState:
    """Both subdomain solutions of the last sweep: ``u1`` Omega1-ordered,
    ``u2`` B-ordered, its interface values ``TransmissionSystem.interface(u2)``.

    The subdomain solutions serve double duty: initial guesses for the next
    inner solves and the coupling data for the Neumann block.
    """

    u1: np.ndarray
    u2: np.ndarray

    @classmethod
    def from_monolithic(cls, sys: TransmissionSystem) -> "DnState":
        """The exact coupled fixed point, restricted to the blocks."""
        u, m = sys.monolithic_solution(), sys.interface_count
        return cls(u1=u[:, :m].flatten(), u2=_interface_first(u[:, m:]))


def dn_step(
    sys: TransmissionSystem,
    state: DnState,
    criterion: TerminationCriterion,
    inner_guess: str = "previous",
) -> tuple[DnState, tuple[SolveReport, SolveReport]]:
    """One Dirichlet-Neumann sweep.

    Solves the Dirichlet block for the current interface values, the Neumann
    block with the coupling column of the previous sweep's Omega1 solution,
    and returns both solutions: the interface part of the Neumann solution
    is the new interface iterate. ``inner_guess`` starts each inner solve from the
    previous sweep's solution ("previous") or from zero ("zero").
    """
    if inner_guess not in INNER_GUESSES:
        raise ValueError(f"unknown inner_guess {inner_guess!r}; expected one of {INNER_GUESSES}")
    cap = 4 * sys.n2
    x0_1 = state.u1 if inner_guess == "previous" else np.zeros(sys.n1)
    u_gamma = sys.interface(state.u2)
    rep1 = cg_solve(sys.A, sys.b1(u_gamma), x0=x0_1, criterion=criterion, max_iter=cap)

    coupling = sys.coupling_column(state.u1)  # previous sweep's solution
    x0_2 = state.u2 if inner_guess == "previous" else np.zeros(sys.n2)
    rep2 = cg_solve(sys.B, sys.b2(coupling), x0=x0_2, criterion=criterion, max_iter=cap)

    return DnState(u1=rep1.solution, u2=rep2.solution), (rep1, rep2)


def dn_iterate(
    sys: TransmissionSystem,
    criterion: TerminationCriterion,
    tol: float,
    max_iter: int = DEFAULT_MAX_ITER,
    inner_guess: str = "previous",
) -> FixedPointTrace:
    """Iterate sweeps from zero interface values until the interface increment
    drops below ``tol``; the trace records both solve reports per sweep, the
    Neumann solve's last: it produces the iterate, so it decides stagnation."""
    state = DnState(np.zeros(sys.n1), np.zeros(sys.n2))

    def step(u_gamma, k):
        nonlocal state
        state, reports = dn_step(sys, state, criterion, inner_guess)
        return sys.interface(state.u2), list(reports), None

    trace = _drive(step, sys.interface(state.u2), tol, max_iter)
    trace.state = state
    return trace


def solution_errors(sys: TransmissionSystem, state: DnState) -> tuple[float, float]:
    """(interface error, full-domain error) against the monolithic solution."""
    diff = sys.assemble_full(state.u1, state.u2) - sys.monolithic_solution()
    return norm2(diff[:, sys.interface_count]), norm2(diff)


def field_grids(dx: float, interior: np.ndarray):
    """(x, y, exact, discrete) arrays on the closed grid of mesh width ``dx``,
    rows j = 0 .. n: the closed-form field, evaluated on the grid axes and
    broadcast, and ``interior``, an (n - 1, 2n - 1) interior grid such as
    ``monolithic_field(dx)``, with the zero boundary around it."""
    n = mesh_cells(dx)
    y, x = np.mgrid[0 : n + 1, 0 : 2 * n + 1] * (1.0 / n)
    discrete = np.zeros(x.shape)
    discrete[1:n, 1 : 2 * n] = interior
    return x, y, exact_solution(x[:1], y[:, :1]), discrete
