"""Conjugate Gradient and GMRES with pluggable inner termination criteria.

The stopping rule is the whole point here: the solvers test one of three
criteria on the residual norm after every iteration (and once before the
first, so a good enough initial guess exits with zero iterations) and report
everything an outer fixed point analysis needs - initial/final residual
norms, the threshold the verdict used and the iteration count.

Criteria, for the linear system A x = b with initial guess x0:

* "rel", relative to initial residual:  ||b - A x|| <= tau * ||b - A x0||
* "relb", relative to rhs:              ||b - A x|| <= tau * ||b||
* "abs", absolute:                      ||b - A x|| <= tau

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

The operator is a callable ``v -> A v`` or a matrix, applied as
``apply(v, out=None)``: the product, also written into ``out`` if given. A
square float64 CSR or DIA matrix goes to scipy's ``csr_matvec`` or
``dia_matvec`` kernel directly, the exact call that ``A @ v`` ends in,
without the dispatch around it; any other matrix (other formats and dtypes,
dense arrays) through ``A @ v``. Both give the same bits. A callable's or
``A @ v``'s product of another shape than ``v`` raises
``DimensionMismatchError``, where ``out`` would broadcast it. scipy is
imported only for an operator that is neither callable nor an ndarray. A DIA
matrix with ascending offsets sums each row in sorted column order, as CSR
does, so for finite vectors its product has the bits of the same matrix in
CSR. The one difference: DIA multiplies the zeros it stores by the input
too, so a non-finite entry gives NaN in a row where CSR skips it; the
residual is non-finite either way.
CG's inner products and GMRES's Gram-Schmidt products and Arnoldi norm are
``ndarray.dot``: the BLAS ``ddot`` or ``dgemv`` that ``@`` ends in, without
the matmul dispatch. GMRES keeps its Arnoldi basis in the rows of ``V`` and
its Givens rotations in one accumulated matrix, so each iteration makes the
same few BLAS calls whatever its index: the operator reads a contiguous
row, each Gram-Schmidt pass is ``V[:j+1].dot(w)`` and ``h.dot(V[:j+1])``,
and the new Hessenberg column is rotated by one ``np.matmul`` written
straight into a row of the triangular factor, which is stored by rows.
CG keeps ``x`` and ``s = -r`` in the rows of one ``(2, n)`` array and ``p``
and ``Ap`` (the operator's ``out``) in another: one multiply and one add
update both. Round to nearest is symmetric in sign, fl(-r + t) = -fl(r - t),
so ``p -= s`` and ``s.dot(s)`` give the bits of ``p += r`` and ``r.dot(r)``
but for the sign of a zero: ``s`` holds +0 where ``r`` holds +0 too.
``norm2`` is the 2-norm of every residual, increment and error in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DRIFT_GUARD_FACTOR = 10.0
EPS_MACH = float(np.finfo(float).eps)
RESTART_PROGRESS_FACTOR = 0.5


class DimensionMismatchError(ValueError):
    """Operands with incompatible shapes were combined."""


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


CRITERION_LABELS = ("rel", "relb", "abs")


@dataclass(frozen=True)
class TerminationCriterion:
    """One of the three inner stopping rules, named by its label, with its tolerance."""

    kind: str
    tolerance: float

    def __post_init__(self):
        if self.kind not in CRITERION_LABELS:
            raise ValueError(f"unknown criterion {self.kind!r}; expected one of {CRITERION_LABELS}")
        if not 0 < self.tolerance < math.inf:  # an inf tau makes the threshold inf * 0 = NaN
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")

    def threshold(self, initial_residual_norm: float, rhs_norm: float) -> float:
        """The residual norm the criterion compares against."""
        if self.kind == "rel":
            return self.tolerance * initial_residual_norm
        if self.kind == "relb":
            return self.tolerance * rhs_norm
        return self.tolerance


@dataclass
class SolveReport:
    """Outcome of one inner linear solve.

    ``iterations == 0`` is legitimate: the initial guess already satisfied
    the criterion. ``threshold`` is the residual norm the criterion asked
    for, ``criterion.threshold(initial_residual_norm, ||b||)``; a converged
    solve has a true final residual within ``DRIFT_GUARD_FACTOR`` of it.
    ``residual_history`` holds the per-iteration (recurrence) residual norms
    starting from the initial one. A fixed point trace keeps its reports
    with ``None`` in ``solution`` and ``residual_history``.

    ``converged`` is ``breakdown is None``. Otherwise ``breakdown`` names
    the reason the solve stopped short:

    * ``"iteration cap"``: ``max_iter`` ran out;
    * ``"attainable accuracy"``: the threshold is below what the true
      residual can reach in float64: the recurrence residual met the floor
      ``eps_mach * (a * ||x0|| + ||b||)`` and the true residual came within
      ``DRIFT_GUARD_FACTOR`` of it, or a drift restart made no progress, or
      full GMRES exhausted the Krylov space;
    * ``"indefinite or non-finite"``: CG met a non-positive curvature or
      either solver produced a non-finite residual.
    """

    solution: np.ndarray | None
    iterations: int
    initial_residual_norm: float
    threshold: float
    final_residual_norm: float
    breakdown: str | None = None
    residual_history: list[float] | None = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.breakdown is None


def _as_apply(op):
    if not (callable(op) or isinstance(op, np.ndarray)):  # no sparse matrix is callable
        import scipy.sparse as sp  # on first use: only a sparse operator needs scipy
        from scipy.sparse import _sparsetools

        if sp.issparse(op) and op.format in ("csr", "dia") and op.dtype == np.float64:
            m, n = op.shape
            if m != n:  # the kernels write m entries into an out of n
                raise DimensionMismatchError(f"operator is {m}x{n}, not square")
            if op.format == "csr":
                kernel = _sparsetools.csr_matvec
                arrays = (op.indptr, op.indices, op.data)
            else:
                kernel = _sparsetools.dia_matvec
                arrays = (len(op.offsets), op.data.shape[1], op.offsets, op.data)

            def kernel_apply(v, out=None):
                if v.shape != (n,):  # the kernels do not check lengths
                    raise DimensionMismatchError(f"operator is {m}x{n}, vector has shape {v.shape}")
                if out is None:
                    out = np.zeros(m)
                else:
                    out.fill(0.0)  # the kernels add into out
                kernel(m, n, *arrays, v, out)
                return out

            return kernel_apply
    product = op if callable(op) else lambda v: op @ v

    def checked_apply(v, out=None):
        y = np.asarray(product(v), dtype=float)
        if y.shape != v.shape:  # into out, a scalar or a length-1 product would broadcast
            raise DimensionMismatchError(f"operator product has shape {y.shape}, vector {v.shape}")
        if out is not None:
            out[:] = y
        return y

    return checked_apply


def _start(op, b, x0, criterion: TerminationCriterion, max_iter: int):
    """Set-up shared by both solvers: ``b`` must be a vector of ``x0``'s
    shape and ``max_iter`` nonnegative. ``report`` takes ``x``, which GMRES
    rebinds; ``floor(a)`` is the float64 residual floor for the
    operator-norm estimate ``a``; ``done`` is the report to return before
    any iteration, or None."""
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
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

    def report(x, iterations, final, breakdown=None):
        return SolveReport(
            solution=x,
            iterations=iterations,
            initial_residual_norm=r0_norm,
            threshold=threshold,
            final_residual_norm=final,
            breakdown=breakdown,
            residual_history=history,
        )

    def floor(a):
        return EPS_MACH * (a * x0_norm + rhs_norm)

    done = None
    if not math.isfinite(r0_norm):  # inf <= tau * inf would pass the test below
        done = report(x, 0, r0_norm, "indefinite or non-finite")
    elif r0_norm <= threshold:
        done = report(x, 0, r0_norm)
    return apply_op, b, x, r, history, threshold, floor, report, done


def _drift_exit(true_res: float, threshold: float, floor: float, restart_res: float):
    """The stopping rule shared by both solvers, applied once the recurrence
    residual has met ``max(threshold, floor)``.

    Returns ``(stop, breakdown)``: ``(True, None)`` to stop converged,
    ``(True, "attainable accuracy")`` to stop short, ``(False, None)`` to
    restart from the true residual. ``restart_res`` is the true residual at
    the previous restart, or the initial residual before the first.
    """
    if true_res <= DRIFT_GUARD_FACTOR * threshold:
        return True, None
    if true_res <= DRIFT_GUARD_FACTOR * floor or true_res > RESTART_PROGRESS_FACTOR * restart_res:
        return True, "attainable accuracy"
    return False, None


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
    apply_op, b, x, r, history, threshold, floor, report, done = _start(op, b, x0, criterion, max_iter)
    if done is not None:
        return done

    XS = np.array((x, -r))  # the stacked rows of the module docstring
    PA = np.array((r, r))
    x, s = XS
    p, Ap = PA
    tmp = np.empty_like(PA)
    rs = float(s.dot(s))
    restart_res = history[0]
    a_max, floor_k = 0.0, floor(0.0)
    it = 0
    while it < max_iter:
        apply_op(p, out=Ap)
        pAp = float(p.dot(Ap))
        if not math.isfinite(pAp) or pAp <= 0.0:
            return report(x.copy(), it, norm2(b - apply_op(x)), "indefinite or non-finite")
        alpha = rs / pAp
        if pAp / rs > a_max:
            a_max = pAp / rs
            floor_k = floor(a_max)
        np.multiply(PA, alpha, out=tmp)
        XS += tmp
        rs_new = float(s.dot(s))
        it += 1
        res = math.sqrt(rs_new)
        history.append(res)
        if not math.isfinite(res):
            return report(x.copy(), it, res, "indefinite or non-finite")
        if res <= threshold or res <= floor_k:
            r = b - apply_op(x)
            true_res = norm2(r)
            stop, breakdown = _drift_exit(true_res, threshold, floor_k, restart_res)
            if stop:
                return report(x.copy(), it, true_res, breakdown)
            # recurrence drifted: restart the recursion from the true residual
            restart_res = true_res
            np.negative(r, out=s)
            p[:] = r
            rs = float(s.dot(s))
            continue
        p *= rs_new / rs
        p -= s
        rs = rs_new
    return report(x.copy(), it, norm2(b - apply_op(x)), "iteration cap")


def gmres_solve(
    op,
    b: np.ndarray,
    x0: np.ndarray,
    criterion: TerminationCriterion,
    max_iter: int = 10000,
) -> SolveReport:
    """Full GMRES (reorthogonalized Gram-Schmidt Arnoldi, Givens least squares).

    The basis vectors are the rows of ``V``. The Givens rotations so far are
    one orthogonal matrix ``Q``; rotation j changes only its rows j and
    j + 1, so the new Hessenberg column is rotated by one product with
    ``Q[:j+1, :j+1]``, written into row j of ``R_rows``, the transposed
    triangular factor. The rotated right-hand side is ``beta * Q[:, 0]``
    and the residual norm after step j, ``|beta * Q[j+1, 0]|``, comes for
    free. The Krylov space grows up to n; it is rebuilt only from the true
    residual after recurrence drift. Happy breakdown (Arnoldi norm at most
    1e-14 of the largest ``|h_jj|`` or ``h_{j+1,j}`` so far, a scale of the
    operator, not of the residual) means the Krylov space contains the exact
    solution in exact arithmetic; in float64 the true residual still decides
    whether the solve converged. A rotated column on that scale means the
    operator maps the space into a smaller one (a singular operator): it is
    left out of the least squares, and the space counts as exhausted. ``a``
    of the floor is the largest ``|h_jj|`` so far, before rotation.
    """
    apply_op, b, x, r, history, threshold, floor, report, done = _start(op, b, x0, criterion, max_iter)
    if done is not None:
        return done
    n = b.shape[0]
    restart_res = history[0]
    a_max, floor_k, h_max = 0.0, floor(0.0), 0.0
    total_it = 0
    while total_it < max_iter:
        cycle = min(n, max_iter - total_it)
        beta = norm2(r)
        V = np.empty((cycle + 1, n))  # the Arnoldi basis, one vector per row
        R_rows = np.zeros((cycle, cycle))  # R by rows: row j holds column j of R
        # the Givens rotations so far, as one matrix: rotation j changes only
        # rows j and j + 1, so rows 0..j-1 are final
        Q = np.eye(cycle + 1)
        np.divide(r, beta, out=V[0])
        j_used = 0
        happy = False
        satisfied = False
        for j in range(cycle):
            w = apply_op(V[j])
            # classical Gram-Schmidt with one reorthogonalization pass: as
            # orthogonal as the modified variant in float64, and vectorized.
            # The first pass makes a fresh w: a callable may own its output
            basis = V[: j + 1]
            h = basis.dot(w)
            w = w - h.dot(basis)
            correction = basis.dot(w)
            w -= correction.dot(basis)
            h += correction
            hn = math.sqrt(w.dot(w))
            if not 0.0 < hn < math.inf:
                hn = norm2(w)  # its scaled fallback
            hjj = abs(float(h[j]))
            if hjj > a_max:
                a_max = hjj
                floor_k = floor(a_max)
            h_max = max(h_max, a_max, hn)
            happy = hn <= 1e-14 * h_max
            if not happy:
                np.divide(w, hn, out=V[j + 1])
            rotated = R_rows[j, : j + 1]
            # rotations 0..j-1 applied (np.dot would copy this strided block)
            np.matmul(Q[: j + 1, : j + 1], h, out=rotated)
            hj = float(rotated[j])
            d = math.hypot(hj, hn)
            total_it += 1
            if d <= 1e-14 * h_max:
                # a zero rotated column, on the happy-breakdown scale (so hn
                # is too, and happy holds): A maps the new basis vector into
                # the span of the earlier ones, and the Krylov space is
                # exhausted. Its rotation would be set by rounding alone, so
                # the column is left out of the least squares
                history.append(abs(beta * float(Q[j, 0])))
                break
            c, s = hj / d, hn / d
            rotated[j] = d
            qj = Q[j, : j + 1]
            np.multiply(qj, -s, out=Q[j + 1, : j + 1])
            qj *= c
            Q[j, j + 1] = s
            Q[j + 1, j + 1] = c
            j_used = j + 1
            res = abs(beta * float(Q[j_used, 0]))
            history.append(res)
            if not math.isfinite(res):
                return report(x, total_it, res, "indefinite or non-finite")
            satisfied = res <= threshold or res <= floor_k
            if satisfied or happy:
                break
        y = np.linalg.solve(R_rows[:j_used, :j_used].T, beta * Q[:j_used, 0])
        x = x + y @ V[:j_used]
        r = b - apply_op(x)
        true_res = norm2(r)
        # happy breakdown or full GMRES at n steps: the Krylov space is
        # exhausted, so a restart has nothing more to gain
        exhausted = happy or j_used == n
        if satisfied or exhausted:
            stop, breakdown = _drift_exit(true_res, threshold, floor_k,
                                          0.0 if exhausted else restart_res)
            if stop:
                return report(x, total_it, true_res, breakdown)
        restart_res = true_res  # restart from the true residual
    return report(x, total_it, norm2(b - apply_op(x)), "iteration cap")
