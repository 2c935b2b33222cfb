"""Conjugate Gradient and GMRES with pluggable inner termination criteria.

The stopping rule is the whole point here: the solvers test one of three
criteria on the residual norm after every iteration (and once before the
first, so a good enough initial guess exits with zero iterations) and report
everything an outer fixed point analysis needs - initial/final residual
norms, the rhs norm, the iteration count and the criterion itself.

Criteria, for the linear system A x = b with initial guess x0:

* relative to initial residual:  ||b - A x|| <= tau * ||b - A x0||
* relative to rhs:               ||b - A x|| <= tau * ||b||
* absolute:                      ||b - A x|| <= tau

All inequalities are inclusive. When the recurrence residual meets the
threshold the true residual is recomputed to guard against recurrence drift.
Within a factor ``DRIFT_GUARD_FACTOR`` of the threshold the solve converged.
Otherwise the solver restarts from the true residual, unless that residual
failed to fall below ``RESTART_PROGRESS_FACTOR`` times the true residual at
the previous restart (the first restart compares against the initial
residual): then the threshold lies below the float64 residual floor, about
``eps_mach * ||A|| * ||x||`` (Greenbaum, SIMAX 18(3), 1997), and the solver
stops with breakdown "attainable accuracy" instead of restarting until its
iteration cap. GMRES stops the same way once its Krylov space is exhausted
(happy breakdown, or n steps of full GMRES), where a restart cannot gain.

The operator is a callable ``v -> A v`` or a matrix. A float64 CSR matrix
is applied by scipy's ``csr_matvec`` kernel directly, the exact call that
``A @ v`` ends in, without the dispatch around it; any other matrix (other
formats and dtypes, dense arrays) through ``A @ v``. Both give the same bits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .linalg import DimensionMismatchError, norm2

DRIFT_GUARD_FACTOR = 10.0
RESTART_PROGRESS_FACTOR = 0.5
DEGENERATE_RHS_NORM = 1e-300
_DEGENERATE_FALLBACK_TOL = 1e-14


class CriterionKind(enum.Enum):
    RELATIVE_TO_INITIAL_RESIDUAL = "relative_to_initial_residual"
    RELATIVE_TO_RHS = "relative_to_rhs"
    ABSOLUTE = "absolute"


@dataclass(frozen=True)
class TerminationCriterion:
    """One of the three inner stopping rules with its tolerance."""

    kind: CriterionKind
    tolerance: float

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")

    def threshold(self, initial_residual_norm: float, rhs_norm: float) -> float:
        """The residual norm the criterion compares against."""
        if self.kind is CriterionKind.RELATIVE_TO_INITIAL_RESIDUAL:
            return self.tolerance * initial_residual_norm
        if self.kind is CriterionKind.RELATIVE_TO_RHS:
            return self.tolerance * rhs_norm
        return self.tolerance


def relative_to_initial(tau: float) -> TerminationCriterion:
    return TerminationCriterion(CriterionKind.RELATIVE_TO_INITIAL_RESIDUAL, tau)


def relative_to_rhs(tau: float) -> TerminationCriterion:
    return TerminationCriterion(CriterionKind.RELATIVE_TO_RHS, tau)


def absolute(tau: float) -> TerminationCriterion:
    return TerminationCriterion(CriterionKind.ABSOLUTE, tau)


@dataclass
class SolveReport:
    """Outcome of one inner linear solve.

    ``iterations == 0`` is legitimate: the initial guess already satisfied
    the criterion. ``residual_history`` holds the per-iteration (recurrence)
    residual norms starting from the initial one. ``rhs_degenerate`` flags
    the rhs-relative criterion hitting a numerically zero rhs, in which case
    the solve fell back to an absolute tolerance of 1e-14.

    ``breakdown`` is ``None`` exactly when ``converged`` is true. Otherwise it
    names the reason the solve stopped short:

    * ``"iteration cap"``: ``max_iter`` ran out;
    * ``"attainable accuracy"``: the threshold is below what the true
      residual can reach in float64 (a drift restart made no progress, or
      full GMRES exhausted the Krylov space);
    * ``"indefinite or non-finite"``: CG met a non-positive curvature or
      either solver produced a non-finite residual.
    """

    solution: np.ndarray
    iterations: int
    initial_residual_norm: float
    final_residual_norm: float
    rhs_norm: float
    criterion: TerminationCriterion
    converged: bool
    breakdown: str | None = None
    residual_history: list[float] = field(default_factory=list)
    rhs_degenerate: bool = False


def _as_apply(op):
    if callable(op) and not sp.issparse(op) and not isinstance(op, np.ndarray):
        return op
    if sp.issparse(op) and op.format == "csr" and op.dtype == np.float64:
        m, n = op.shape
        indptr, indices, data = op.indptr, op.indices, op.data

        def csr_apply(v):
            if v.shape != (n,):  # the kernel does not check lengths
                raise DimensionMismatchError(f"operator is {m}x{n}, vector has shape {v.shape}")
            y = np.zeros(m)
            _sparsetools.csr_matvec(m, n, indptr, indices, data, v, y)
            return y

        return csr_apply
    return lambda v: np.asarray(op @ v, dtype=float)


def _effective_criterion(criterion: TerminationCriterion, rhs_norm: float):
    """Swap in the absolute fallback when the rhs-relative rule degenerates."""
    if (
        criterion.kind is CriterionKind.RELATIVE_TO_RHS
        and rhs_norm < DEGENERATE_RHS_NORM
    ):
        return absolute(_DEGENERATE_FALLBACK_TOL), True
    return criterion, False


def _drift_exit(true_res: float, threshold: float, restart_res: float):
    """The stopping rule shared by both solvers, applied once the recurrence
    residual has met ``threshold``.

    Returns ``(converged, breakdown)`` to stop with, or ``None`` to restart
    from the true residual. ``restart_res`` is the true residual at the
    previous restart, or the initial residual before the first.
    """
    if true_res <= DRIFT_GUARD_FACTOR * threshold:
        return True, None
    if true_res > RESTART_PROGRESS_FACTOR * restart_res:
        return False, "attainable accuracy"
    return None


def cg_solve(
    op,
    b: np.ndarray,
    x0: np.ndarray,
    criterion: TerminationCriterion,
    max_iter: int = 10000,
) -> SolveReport:
    """Conjugate gradients for symmetric positive definite ``op``.

    The criterion is checked on the recurrence residual after every step and
    on the true residual before the first. SPD-ness is the caller's
    responsibility; an indefinite operator surfaces as a breakdown report.
    """
    apply_op = _as_apply(op)
    b = np.asarray(b, dtype=float)
    x = np.array(x0, dtype=float)
    rhs_norm = norm2(b)
    crit, degenerate = _effective_criterion(criterion, rhs_norm)

    r = b - apply_op(x)
    r0_norm = norm2(r)
    history = [r0_norm]
    threshold = crit.threshold(r0_norm, rhs_norm)

    def report(converged, iterations, final, breakdown=None):
        return SolveReport(
            solution=x,
            iterations=iterations,
            initial_residual_norm=r0_norm,
            final_residual_norm=final,
            rhs_norm=rhs_norm,
            criterion=criterion,
            converged=converged,
            breakdown=breakdown,
            residual_history=history,
            rhs_degenerate=degenerate,
        )

    if r0_norm <= threshold:
        return report(True, 0, r0_norm)

    p = r.copy()
    rs = float(r @ r)
    restart_res = r0_norm
    it = 0
    while it < max_iter:
        Ap = apply_op(p)
        pAp = float(p @ Ap)
        if not math.isfinite(pAp) or pAp <= 0.0:
            return report(False, it, norm2(b - apply_op(x)), "indefinite or non-finite")
        alpha = rs / pAp
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(r @ r)
        it += 1
        res = math.sqrt(rs_new)
        history.append(res)
        if not math.isfinite(res):
            return report(False, it, res, "indefinite or non-finite")
        if res <= threshold:
            r = b - apply_op(x)
            true_res = norm2(r)
            verdict = _drift_exit(true_res, threshold, restart_res)
            if verdict is not None:
                return report(verdict[0], it, true_res, verdict[1])
            # recurrence drifted: restart the recursion from the true residual
            restart_res = true_res
            p = r.copy()
            rs = float(r @ r)
            continue
        p = r + (rs_new / rs) * p
        rs = rs_new
    return report(False, it, norm2(b - apply_op(x)), "iteration cap")


def gmres_solve(
    op,
    b: np.ndarray,
    x0: np.ndarray,
    criterion: TerminationCriterion,
    max_iter: int = 10000,
) -> SolveReport:
    """Full GMRES (reorthogonalized Gram-Schmidt Arnoldi, Givens least squares).

    The Krylov space grows up to n; it is rebuilt only from the true
    residual after recurrence drift. The per-iteration residual norm comes
    for free from the rotated right-hand side. Happy breakdown (Arnoldi norm
    below 1e-14 of the initial residual) means the Krylov space contains the
    exact solution in exact arithmetic; in float64 the true residual still
    decides whether the solve converged.
    """
    apply_op = _as_apply(op)
    b = np.asarray(b, dtype=float)
    x = np.array(x0, dtype=float)
    n = b.shape[0]
    rhs_norm = norm2(b)
    crit, degenerate = _effective_criterion(criterion, rhs_norm)

    r = b - apply_op(x)
    r0_norm = norm2(r)
    history = [r0_norm]
    threshold = crit.threshold(r0_norm, rhs_norm)

    def report(converged, iterations, final, breakdown=None):
        return SolveReport(
            solution=x,
            iterations=iterations,
            initial_residual_norm=r0_norm,
            final_residual_norm=final,
            rhs_norm=rhs_norm,
            criterion=criterion,
            converged=converged,
            breakdown=breakdown,
            residual_history=history,
            rhs_degenerate=degenerate,
        )

    if r0_norm <= threshold:
        return report(True, 0, r0_norm)

    restart_res = r0_norm
    total_it = 0
    while total_it < max_iter:
        cycle = min(n, max_iter - total_it)
        beta = norm2(r)
        V = np.zeros((n, cycle + 1))
        H = np.zeros((cycle + 1, cycle))
        # the Givens rotations and the rotated rhs live on Python floats: the
        # same IEEE operations as on numpy scalars, without their overhead
        cs, sn, g = [], [], [beta]
        V[:, 0] = r / beta
        j_used = 0
        happy = False
        satisfied = False
        for j in range(cycle):
            w = apply_op(V[:, j])
            # classical Gram-Schmidt with one reorthogonalization pass: as
            # orthogonal as the modified variant in float64, and vectorized
            basis = V[:, : j + 1]
            coeffs = basis.T @ w
            w = w - basis @ coeffs
            correction = basis.T @ w
            w = w - basis @ correction
            h = (coeffs + correction).tolist()
            h.append(norm2(w))
            happy = h[j + 1] < 1e-14 * r0_norm
            if not happy:
                V[:, j + 1] = w / h[j + 1]
            for i in range(j):
                h[i], h[i + 1] = cs[i] * h[i] + sn[i] * h[i + 1], -sn[i] * h[i] + cs[i] * h[i + 1]
            # np.hypot, not math.hypot: the two differ in the last bit
            d = float(np.hypot(h[j], h[j + 1]))
            cs.append(h[j] / d)
            sn.append(h[j + 1] / d)
            h[j], h[j + 1] = d, 0.0
            H[: j + 2, j] = h
            g.append(-sn[j] * g[j])
            g[j] = cs[j] * g[j]
            j_used = j + 1
            total_it += 1
            res = abs(g[j_used])
            history.append(res)
            if not math.isfinite(res):
                return report(False, total_it, res, "indefinite or non-finite")
            satisfied = res <= threshold
            if satisfied or happy:
                break
        y = np.linalg.solve(H[:j_used, :j_used], g[:j_used])
        x = x + V[:, :j_used] @ y
        r = b - apply_op(x)
        true_res = norm2(r)
        # happy breakdown or full GMRES at n steps: the Krylov space is
        # exhausted, so a restart has nothing more to gain
        exhausted = happy or j_used == n
        if satisfied:
            verdict = _drift_exit(true_res, threshold, 0.0 if exhausted else restart_res)
            if verdict is not None:
                return report(verdict[0], total_it, true_res, verdict[1])
        elif exhausted:
            if true_res <= threshold:
                return report(True, total_it, true_res)
            return report(False, total_it, true_res, "attainable accuracy")
        restart_res = true_res  # restart from the true residual
    return report(False, total_it, norm2(b - apply_op(x)), "iteration cap")
