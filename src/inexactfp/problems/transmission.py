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

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from ..fixedpoint import DIVERGENCE_LIMIT, FixedPointTrace, Termination
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
    """Assembled discrete operators of the two-subdomain problem."""

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

    # -- index maps (grid indices i in x, j in y, both counted from 0 at the
    #    outer boundary; interface at i = n_cells) --------------------------
    def idx1(self, i: int, j: int) -> int:
        m = self.interface_count
        return (j - 1) * m + (i - 1)

    def idx_gamma(self, j: int) -> int:
        return j - 1

    def idx2(self, i: int, j: int) -> int:
        m = self.interface_count
        return m + (j - 1) * m + (i - self.n_cells - 1)

    def idx_mono(self, i: int, j: int) -> int:
        return (j - 1) * (2 * self.n_cells - 1) + (i - 1)

    # -- right-hand side builders ------------------------------------------
    def b1(self, u_gamma: np.ndarray) -> np.ndarray:
        """Dirichlet block rhs: forcing plus interface data on the adjacent column."""
        m = self.interface_count
        b = -self.f_omega1.copy()
        ih2 = 1.0 / self.dx**2
        b[np.arange(m) * m + (m - 1)] += u_gamma * ih2
        return b

    def b2(self, u1_coupling: np.ndarray) -> np.ndarray:
        """Neumann block rhs: forcing plus the Omega1 neighbour column values."""
        m = self.interface_count
        b = -self.f_block2.copy()
        b[:m] += u1_coupling * (1.0 / self.dx**2)
        return b

    def coupling_column(self, u1: np.ndarray) -> np.ndarray:
        """The interface-adjacent column of an Omega1 solution."""
        m = self.interface_count
        return u1[np.arange(m) * m + (m - 1)]

    # -- oracles -------------------------------------------------------------
    def monolithic_solution(self) -> np.ndarray:
        if self._monolithic_solution is None:
            self._monolithic_solution = solve_direct(self.monolithic, self.monolithic_rhs)
        return self._monolithic_solution

    def monolithic_interface(self) -> np.ndarray:
        u = self.monolithic_solution()
        n = self.n_cells
        return np.array([u[self.idx_mono(n, j)] for j in range(1, n)])

    def assemble_full(self, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
        """Stack subdomain solutions into monolithic ordering."""
        n = self.n_cells
        full = np.empty_like(self.monolithic_rhs)
        for j in range(1, n):
            for i in range(1, n):
                full[self.idx_mono(i, j)] = u1[self.idx1(i, j)]
            full[self.idx_mono(n, j)] = u2[self.idx_gamma(j)]
            for i in range(n + 1, 2 * n):
                full[self.idx_mono(i, j)] = u2[self.idx2(i, j)]
        return full

    def discretization_max_error(self) -> float:
        """Max-norm error of the monolithic solution against the exact field."""
        if not self.manufactured:
            raise ValueError("no closed-form solution for a custom forcing")
        n, h = self.n_cells, self.dx
        u = self.monolithic_solution()
        err = 0.0
        for j in range(1, n):
            for i in range(1, 2 * n):
                err = max(err, abs(u[self.idx_mono(i, j)] - exact_solution(i * h, j * h)))
        return err


def transmission_assemble(
    dx: float, forcing: Callable | None = None
) -> TransmissionSystem:
    """Assemble all operators for mesh width ``dx`` (1/dx must be an integer)."""
    n = round(1.0 / dx)
    if n < 2 or abs(n * dx - 1.0) > 1e-12:
        raise ValueError(f"1/dx must be a positive integer >= 2, got dx={dx}")
    f = forcing if forcing is not None else default_forcing
    h = 1.0 / n
    m = n - 1
    ih2 = 1.0 / h**2

    sys = TransmissionSystem(
        dx=h,
        n_cells=n,
        A=None,  # filled below; indices need the instance
        B=None,
        monolithic=None,
        monolithic_rhs=None,
        f_omega1=None,
        f_block2=None,
        manufactured=forcing is None,
    )

    # Omega1 interior block
    rows, cols, vals = [], [], []
    f1 = np.empty(m * m)
    for j in range(1, n):
        for i in range(1, n):
            k = sys.idx1(i, j)
            f1[k] = f(i * h, j * h)
            rows.append(k); cols.append(k); vals.append(4.0 * ih2)
            for ii, jj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if 1 <= ii <= m and 1 <= jj <= m:
                    rows.append(k); cols.append(sys.idx1(ii, jj)); vals.append(-ih2)
    sys.A = sp.csr_matrix((vals, (rows, cols)), shape=(m * m, m * m))
    sys.f_omega1 = f1

    # interface + Omega2 interior block, full five-point interface rows
    n2 = m + m * m
    rows, cols, vals = [], [], []
    fB = np.empty(n2)
    for j in range(1, n):
        k = sys.idx_gamma(j)
        fB[k] = f(1.0, j * h)
        rows.append(k); cols.append(k); vals.append(4.0 * ih2)
        for jj in (j - 1, j + 1):
            if 1 <= jj <= m:
                rows.append(k); cols.append(sys.idx_gamma(jj)); vals.append(-ih2)
        rows.append(k); cols.append(sys.idx2(n + 1, j)); vals.append(-ih2)
    for j in range(1, n):
        for i in range(n + 1, 2 * n):
            k = sys.idx2(i, j)
            fB[k] = f(i * h, j * h)
            rows.append(k); cols.append(k); vals.append(4.0 * ih2)
            for ii, jj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if jj < 1 or jj > m or ii > 2 * n - 1:
                    continue
                if ii == n:
                    rows.append(k); cols.append(sys.idx_gamma(jj)); vals.append(-ih2)
                else:
                    rows.append(k); cols.append(sys.idx2(ii, jj)); vals.append(-ih2)
    sys.B = sp.csr_matrix((vals, (rows, cols)), shape=(n2, n2))
    sys.f_block2 = fB

    # monolithic five-point system on the whole strip
    nM = (2 * n - 1) * m
    rows, cols, vals = [], [], []
    bM = np.empty(nM)
    for j in range(1, n):
        for i in range(1, 2 * n):
            k = sys.idx_mono(i, j)
            bM[k] = -f(i * h, j * h)
            rows.append(k); cols.append(k); vals.append(4.0 * ih2)
            for ii, jj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if 1 <= ii <= 2 * n - 1 and 1 <= jj <= m:
                    rows.append(k); cols.append(sys.idx_mono(ii, jj)); vals.append(-ih2)
    sys.monolithic = sp.csr_matrix((vals, (rows, cols)), shape=(nM, nM))
    sys.monolithic_rhs = bM
    return sys


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
        u = sys.monolithic_solution()
        n = sys.n_cells
        u1 = np.empty(sys.n1)
        u2 = np.empty(sys.n2)
        for j in range(1, n):
            for i in range(1, n):
                u1[sys.idx1(i, j)] = u[sys.idx_mono(i, j)]
            u2[sys.idx_gamma(j)] = u[sys.idx_mono(n, j)]
            for i in range(n + 1, 2 * n):
                u2[sys.idx2(i, j)] = u[sys.idx_mono(i, j)]
        return cls(u_gamma=sys.monolithic_interface(), u1=u1, u2=u2)


def dn_step(
    sys: TransmissionSystem,
    state: DnState,
    criterion: TerminationCriterion,
    inner_guess: str = "previous",
    inner_max_iter: int | None = None,
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
    cap = inner_max_iter if inner_max_iter is not None else 4 * sys.n2
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
    max_iter: int = 100_000,
    inner_guess: str = "previous",
    inner_max_iter: int | None = None,
) -> FixedPointTrace:
    """Iterate sweeps from zero interface values until the interface increment
    drops below ``tol``; the trace records both solve reports per sweep."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    state = DnState.zeros(sys)
    iterates = [state.u_gamma]
    increments: list[float] = []
    reports: list[list[SolveReport]] = []
    terminated = Termination.MAX_ITER
    for _ in range(max_iter):
        new_state, (rep1, rep2) = dn_step(sys, state, criterion, inner_guess, inner_max_iter)
        inc = norm2(new_state.u_gamma - state.u_gamma)
        iterates.append(new_state.u_gamma)
        increments.append(inc)
        reports.append([rep1, rep2])
        state = new_state
        if not np.all(np.isfinite(state.u_gamma)) or inc > DIVERGENCE_LIMIT:
            terminated = Termination.DIVERGED
            break
        if inc == 0.0 and rep1.iterations == 0 and rep2.iterations == 0:
            terminated = Termination.INNER_STAGNATION
            break
        if inc <= tol:
            terminated = Termination.INCREMENT_BELOW_TOL
            break
    trace = FixedPointTrace(iterates, increments, reports, terminated, tol)
    trace.dn_state = state  # final subdomain solutions for error metrics
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
    n, h = sys.n_cells, sys.dx
    if which == "exact":
        if not sys.manufactured:
            raise ValueError("no closed-form solution for a custom forcing")

        def value(i, j):
            return float(exact_solution(i * h, j * h))
    elif which == "discrete":
        u = sys.monolithic_solution()

        def value(i, j):
            if i == 0 or i == 2 * n or j == 0 or j == n:
                return 0.0
            return float(u[sys.idx_mono(i, j)])
    else:
        raise ValueError(f"unknown field {which!r}; expected 'exact' or 'discrete'")
    for j in range(n + 1):
        for i in range(2 * n + 1):
            yield (i * h, j * h, value(i, j))


def spd_spot_check(matrix: sp.csr_matrix, probes: int = 3) -> bool:
    """Cheap positive-definiteness check: Rayleigh quotients of a few Lanczos
    steps stay positive and CG makes progress on a random-ish rhs."""
    n = matrix.shape[0]
    v = np.sin(np.arange(1, n + 1) * 0.7)
    v /= norm2(v)
    for _ in range(probes):
        w = matrix @ v
        if float(v @ w) <= 0.0:
            return False
        nw = norm2(w)
        if nw == 0.0:
            return False
        v = w / nw
    sym_gap = abs(matrix - matrix.T)
    return sym_gap.max() == 0.0 if sym_gap.nnz else True
