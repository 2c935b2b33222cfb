"""Conjugate Gradient and GMRES with pluggable inner termination criteria.

The stopping rule is the whole point here: the solvers test one of three
criteria on the residual norm after every iteration (and once before the
first, so a good enough initial guess exits with zero iterations) and report
everything an outer fixed point analysis needs - initial/final residual
norms, the threshold the verdict used and the iteration count.

Criteria, for the linear system A x = b with initial guess x0:

* relative to initial residual:  ||b - A x|| <= tau * ||b - A x0||
* relative to rhs:               ||b - A x|| <= tau * ||b||
* absolute:                      ||b - A x|| <= tau

All inequalities are inclusive, so a zero rhs under the rhs-relative rule
asks for an exact zero residual. The true residual is recomputed once the
recurrence residual meets the threshold or the float64 floor
``eps_mach * (a * ||x0|| + ||b||)`` (Greenbaum, SIMAX 18(3), 1997; van der
Vorst and Ye, SISC 22(3), 2000), whichever is larger. ``a`` estimates
``||A||`` from quotients the solver forms anyway: the largest ``p'Ap / r'r``
(= 1/alpha, at most lambda_max) in CG, the largest Hessenberg diagonal
``|h_jj|`` in GMRES. It reads only the operator's products, so a matrix and
the callable ``v -> A @ v`` stop alike. Within a factor
``DRIFT_GUARD_FACTOR`` of the threshold the solve converged. Within that
factor of the floor, or not below ``RESTART_PROGRESS_FACTOR`` times the true
residual at the previous restart (the initial residual before the first),
it stops with breakdown "attainable accuracy" instead of iterating towards
a threshold float64 cannot reach. Otherwise the recurrence drifted and the
solver restarts from the true residual. GMRES applies the same verdict once
its Krylov space is exhausted (happy breakdown, or n steps of full GMRES),
where a restart cannot gain.

The operator is a callable ``v -> A v`` or a matrix. A float64 CSR or DIA
matrix is applied by scipy's ``csr_matvec`` or ``dia_matvec`` kernel
directly, the exact call that ``A @ v`` ends in, without the dispatch around
it; any other matrix (other formats and dtypes, dense arrays) through
``A @ v``. Both give the same bits. A DIA matrix with ascending offsets sums
each row in sorted column order, as CSR does, so for finite vectors its
product has the bits of the same matrix in CSR. The one difference: DIA
multiplies the zeros it stores by the input too, so a non-finite entry gives
NaN in a row where CSR skips it; the residual is non-finite either way.
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
EPS_MACH = float(np.finfo(float).eps)
RESTART_PROGRESS_FACTOR = 0.5


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
    the criterion. ``threshold`` is the residual norm the criterion asked
    for, ``criterion.threshold(initial_residual_norm, ||b||)``; a converged
    solve has a true final residual within ``DRIFT_GUARD_FACTOR`` of it.
    ``residual_history`` holds the per-iteration (recurrence) residual norms
    starting from the initial one.

    ``breakdown`` is ``None`` exactly when ``converged`` is true. Otherwise it
    names the reason the solve stopped short:

    * ``"iteration cap"``: ``max_iter`` ran out;
    * ``"attainable accuracy"``: the threshold is below what the true
      residual can reach in float64: the recurrence residual met the floor
      ``eps_mach * (a * ||x0|| + ||b||)`` and the true residual came within
      ``DRIFT_GUARD_FACTOR`` of it, or a drift restart made no progress, or
      full GMRES exhausted the Krylov space;
    * ``"indefinite or non-finite"``: CG met a non-positive curvature or
      either solver produced a non-finite residual.
    """

    solution: np.ndarray
    iterations: int
    initial_residual_norm: float
    threshold: float
    final_residual_norm: float
    converged: bool
    breakdown: str | None = None
    residual_history: list[float] = field(default_factory=list)


def _as_apply(op):
    if callable(op) and not sp.issparse(op) and not isinstance(op, np.ndarray):
        return op
    if sp.issparse(op) and op.format in ("csr", "dia") and op.dtype == np.float64:
        m, n = op.shape
        if op.format == "csr":
            kernel = _sparsetools.csr_matvec
            arrays = (op.indptr, op.indices, op.data)
        else:
            kernel = _sparsetools.dia_matvec
            arrays = (len(op.offsets), op.data.shape[1], op.offsets, op.data)

        def kernel_apply(v):
            if v.shape != (n,):  # the kernels do not check lengths
                raise DimensionMismatchError(f"operator is {m}x{n}, vector has shape {v.shape}")
            y = np.zeros(m)
            kernel(m, n, *arrays, v, y)
            return y

        return kernel_apply
    return lambda v: np.asarray(op @ v, dtype=float)


def _start(op, b, x0, criterion: TerminationCriterion):
    """Set-up shared by both solvers: ``b`` must be a vector of ``x0``'s
    shape. ``report`` takes ``x``, which GMRES rebinds; ``floor(a)`` is the
    float64 residual floor for the operator-norm estimate ``a``; ``done`` is
    the report to return before any iteration, or None."""
    apply_op = _as_apply(op)
    b = np.asarray(b, dtype=float)
    x = np.array(x0, dtype=float)
    if b.ndim != 1 or b.shape != x.shape:
        raise DimensionMismatchError(f"rhs has shape {b.shape}, initial guess {x.shape}")
    rhs_norm = norm2(b)
    x0_norm = norm2(x)
    r = b - apply_op(x)
    r0_norm = norm2(r)
    history = [r0_norm]
    threshold = criterion.threshold(r0_norm, rhs_norm)

    def report(x, converged, iterations, final, breakdown=None):
        return SolveReport(
            solution=x,
            iterations=iterations,
            initial_residual_norm=r0_norm,
            threshold=threshold,
            final_residual_norm=final,
            converged=converged,
            breakdown=breakdown,
            residual_history=history,
        )

    def floor(a):
        return EPS_MACH * (a * x0_norm + rhs_norm)

    done = None
    if not math.isfinite(r0_norm):  # inf <= tau * inf would pass the test below
        done = report(x, False, 0, r0_norm, "indefinite or non-finite")
    elif r0_norm <= threshold:
        done = report(x, True, 0, r0_norm)
    return apply_op, b, x, r, history, threshold, floor, report, done


def _drift_exit(true_res: float, threshold: float, floor: float, restart_res: float):
    """The stopping rule shared by both solvers, applied once the recurrence
    residual has met ``max(threshold, floor)``.

    Returns ``(converged, breakdown)`` to stop with, or ``None`` to restart
    from the true residual. ``restart_res`` is the true residual at the
    previous restart, or the initial residual before the first.
    """
    if true_res <= DRIFT_GUARD_FACTOR * threshold:
        return True, None
    if true_res <= DRIFT_GUARD_FACTOR * floor or true_res > RESTART_PROGRESS_FACTOR * restart_res:
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
    on the true residual before the first; ``a`` of the floor is the largest
    ``p'Ap / r'r`` so far. SPD-ness is the caller's responsibility; an
    indefinite operator surfaces as a breakdown report.
    """
    apply_op, b, x, r, history, threshold, floor, report, done = _start(op, b, x0, criterion)
    if done is not None:
        return done

    p = r.copy()
    tmp = np.empty_like(p)
    rs = float(r @ r)
    restart_res = history[0]
    a_max, floor_k = 0.0, floor(0.0)
    it = 0
    while it < max_iter:
        Ap = apply_op(p)
        pAp = float(p @ Ap)
        if not math.isfinite(pAp) or pAp <= 0.0:
            return report(x, False, it, norm2(b - apply_op(x)), "indefinite or non-finite")
        alpha = rs / pAp
        if pAp / rs > a_max:
            a_max = pAp / rs
            floor_k = floor(a_max)
        # x, r and p are updated in place through one work vector: the
        # same IEEE operations as x + alpha * p etc., without temporaries.
        # Ap is not scaled in place: a callable operator may own that array
        np.multiply(p, alpha, out=tmp)
        x += tmp
        np.multiply(Ap, alpha, out=tmp)
        r -= tmp
        rs_new = float(r @ r)
        it += 1
        res = math.sqrt(rs_new)
        history.append(res)
        if not math.isfinite(res):
            return report(x, False, it, res, "indefinite or non-finite")
        if res <= threshold or res <= floor_k:
            r = b - apply_op(x)
            true_res = norm2(r)
            verdict = _drift_exit(true_res, threshold, floor_k, restart_res)
            if verdict is not None:
                return report(x, verdict[0], it, true_res, verdict[1])
            # recurrence drifted: restart the recursion from the true residual
            restart_res = true_res
            p = r.copy()
            rs = float(r @ r)
            continue
        p *= rs_new / rs
        p += r
        rs = rs_new
    return report(x, False, it, norm2(b - apply_op(x)), "iteration cap")


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
    decides whether the solve converged. ``a`` of the floor is the largest
    ``|h_jj|`` so far.
    """
    apply_op, b, x, r, history, threshold, floor, report, done = _start(op, b, x0, criterion)
    if done is not None:
        return done
    n = b.shape[0]
    r0_norm = restart_res = history[0]
    a_max, floor_k = 0.0, floor(0.0)
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
            if abs(h[j]) > a_max:
                a_max = abs(h[j])
                floor_k = floor(a_max)
            happy = h[j + 1] < 1e-14 * r0_norm
            if not happy:
                V[:, j + 1] = w / h[j + 1]
            # rotation i mixes h[i] and h[i + 1]; its second output is the
            # first input of rotation i + 1, so it is carried in hi
            hi, rotated = h[0], []
            for c, s, hn in zip(cs, sn, h[1 : j + 1]):
                rotated.append(c * hi + s * hn)
                hi = -s * hi + c * hn
            h[:j] = rotated
            h[j] = hi
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
                return report(x, False, total_it, res, "indefinite or non-finite")
            satisfied = res <= threshold or res <= floor_k
            if satisfied or happy:
                break
        y = np.linalg.solve(H[:j_used, :j_used], g[:j_used])
        x = x + V[:, :j_used] @ y
        r = b - apply_op(x)
        true_res = norm2(r)
        # happy breakdown or full GMRES at n steps: the Krylov space is
        # exhausted, so a restart has nothing more to gain
        exhausted = happy or j_used == n
        if satisfied or exhausted:
            verdict = _drift_exit(true_res, threshold, floor_k, 0.0 if exhausted else restart_res)
            if verdict is not None:
                return report(x, verdict[0], total_it, true_res, verdict[1])
        restart_res = true_res  # restart from the true residual
    return report(x, False, total_it, norm2(b - apply_op(x)), "iteration cap")
