import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from inexactfp.krylov import (
    DRIFT_GUARD_FACTOR,
    CriterionKind,
    TerminationCriterion,
    _as_apply,
    absolute,
    cg_solve,
    gmres_solve,
    relative_to_initial,
    relative_to_rhs,
)
from inexactfp.linalg import DimensionMismatchError, norm2, solve_direct


def laplacian_1d(n):
    return sp.diags(
        [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)], [-1, 0, 1]
    ).tocsr()


SOLVERS = [cg_solve, gmres_solve]


# ---------------------------------------------------------------------------
# criterion algebra
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("criterion, current, r0, rhs, satisfied", [
    (relative_to_initial(0.1), 0.05, 1.0, 7.0, True),
    (relative_to_rhs(0.1), 0.05, 0.01, 0.2, False),
    (absolute(1e-3), 1e-3, 5.0, 5.0, True),  # a residual at the threshold passes
], ids=["relative_to_initial", "relative_to_rhs", "absolute_boundary_inclusive"])
def test_criterion_threshold(criterion, current, r0, rhs, satisfied):
    assert (current <= criterion.threshold(r0, rhs)) is satisfied


def test_criterion_rejects_nonpositive_tolerance():
    with pytest.raises(ValueError):
        TerminationCriterion(CriterionKind.ABSOLUTE, 0.0)


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------

def assert_bitwise(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def random_csr(n, seed):
    return sp.random(n, n, density=0.3, format="csr", random_state=seed) + sp.eye(n, format="csr")


def csr_int64_indices():
    A = random_csr(30, 1)
    A.indices = A.indices.astype(np.int64)
    A.indptr = A.indptr.astype(np.int64)
    return A


def csr_duplicates_unsorted():
    # row 0 holds column 2 twice and out of order; row 2 is unsorted too
    data = np.array([1.5, -2.0, 0.25, 3.0, 1e-3, 7.0, -1.0])
    indices = np.array([2, 0, 2, 1, 2, 0, 1])
    indptr = np.array([0, 3, 4, 7])
    A = sp.csr_matrix((data, indices, indptr), shape=(3, 3))
    assert not A.has_canonical_format
    return A


KERNEL_CODE = _as_apply(laplacian_1d(3)).__code__


@pytest.mark.parametrize("make", [
    lambda: random_csr(40, 0),
    csr_int64_indices,
    csr_duplicates_unsorted,
    lambda: sp.csr_array(random_csr(25, 2)),
], ids=["int32-indices", "int64-indices", "duplicates-unsorted", "csr-array"])
def test_float_csr_takes_the_kernel_bitwise_equal_to_matmul(make):
    A = make()
    n = A.shape[1]
    apply_op = _as_apply(A)
    assert apply_op.__code__ is KERNEL_CODE
    rng = np.random.default_rng(n)
    V = rng.normal(size=(n, 3))
    for v in (rng.normal(size=n), V[:, 1]):  # contiguous, then strided
        assert_bitwise(apply_op(v), A @ v)
    with pytest.raises(ValueError):
        apply_op(np.ones(n + 1))


def dia_unsorted_offsets():
    # offsets out of order and a data array shorter than the matrix is wide
    data = np.random.default_rng(5).normal(size=(3, 18))
    return sp.dia_matrix((data, [3, -2, 0]), shape=(20, 20))


@pytest.mark.parametrize("make", [
    lambda: laplacian_1d(30).todia(),
    dia_unsorted_offsets,
    lambda: sp.dia_array(random_csr(25, 6).todia()),
], ids=["tridiagonal", "unsorted-offsets", "dia-array"])
def test_float_dia_takes_the_kernel_bitwise_equal_to_matmul(make):
    D = make()
    n = D.shape[1]
    apply_op = _as_apply(D)
    assert apply_op.__code__ is KERNEL_CODE
    rng = np.random.default_rng(n)
    V = rng.normal(size=(n, 3))
    for v in (rng.normal(size=n), V[:, 1]):  # contiguous, then strided
        assert_bitwise(apply_op(v), D @ v)
    with pytest.raises(ValueError):
        apply_op(np.ones(n - 1))


@pytest.mark.parametrize("make", [
    lambda: random_csr(20, 3).tocsc(),
    lambda: sp.csr_matrix(np.arange(16, dtype=np.int64).reshape(4, 4)),
    lambda: random_csr(20, 4).toarray(),
    lambda: sp.dia_matrix(np.arange(16, dtype=np.int64).reshape(4, 4)),
], ids=["csc", "int-csr", "dense", "int-dia"])
def test_other_operators_take_matmul(make):
    A = make()
    apply_op = _as_apply(A)
    assert apply_op.__code__ is not KERNEL_CODE
    n = A.shape[1]
    V = np.random.default_rng(n).normal(size=(n, 3))
    assert_bitwise(apply_op(V[:, 1]), np.asarray(A @ V[:, 1], dtype=float))


# ---------------------------------------------------------------------------
# conjugate gradients
# ---------------------------------------------------------------------------

def test_cg_identity_single_iteration():
    b = np.array([1.0, 2.0, 3.0, 4.0])
    rep = cg_solve(np.eye(4), b, np.zeros(4), relative_to_initial(0.5))
    assert rep.converged and rep.iterations == 1
    assert_allclose(rep.solution, b, rtol=1e-12)


@pytest.mark.parametrize("solver", SOLVERS, ids=["cg", "gmres"])
def test_leaves_inputs_unmodified(solver):
    A = laplacian_1d(12)
    b, x0 = np.linspace(-1.0, 2.0, 12), np.full(12, 0.5)
    b_before, x0_before = b.copy(), x0.copy()
    rep = solver(A, b, x0, absolute(1e-10))
    assert rep.converged and rep.iterations > 1
    assert_bitwise(b, b_before)
    assert_bitwise(x0, x0_before)


def test_cg_laplacian_matches_direct():
    A = laplacian_1d(10)
    b = np.ones(10)
    rep = cg_solve(A, b, np.zeros(10), absolute(1e-12))
    assert rep.converged and rep.iterations <= 10
    assert_allclose(rep.solution, solve_direct(A.toarray(), b), atol=1e-9)


def test_cg_exact_initial_guess_zero_iterations():
    A = laplacian_1d(8)
    x = np.linspace(1, 2, 8)
    rep = cg_solve(A, A @ x, x, relative_to_rhs(0.1))
    assert rep.converged and rep.iterations == 0


def test_cg_indefinite_breakdown():
    A = np.diag([1.0, -1.0])
    rep = cg_solve(A, np.array([1.0, 1.0]), np.zeros(2), absolute(1e-12), max_iter=10)
    assert not rep.converged
    assert rep.breakdown == "indefinite or non-finite"


def test_cg_criterion_soundness_with_drift_guard():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = 30
        M = rng.normal(size=(n, n))
        A = M @ M.T + n * np.eye(n)
        b = rng.normal(size=n)
        rep = cg_solve(A, b, np.zeros(n), relative_to_initial(1e-3))
        assert rep.converged
        true_res = norm2(b - A @ rep.solution)
        assert true_res <= DRIFT_GUARD_FACTOR * rep.threshold
        assert rep.final_residual_norm == pytest.approx(true_res, rel=1e-9)


def test_cg_relative_matches_equivalent_absolute():
    # same inequality, so never more iterations than the absolute variant
    rng = np.random.default_rng(12)
    for _ in range(5):
        n = 20
        M = rng.normal(size=(n, n))
        A = M @ M.T + n * np.eye(n)
        b = rng.normal(size=n)
        x0 = rng.normal(size=n)
        r0 = norm2(b - A @ x0)
        tau = 1e-4
        rep_rel = cg_solve(A, b, x0, relative_to_initial(tau))
        rep_abs = cg_solve(A, b, x0, absolute(tau * r0))
        assert rep_rel.iterations <= rep_abs.iterations


def test_cg_oracle_agreement_random_spd():
    rng = np.random.default_rng(13)
    for _ in range(5):
        n = int(rng.integers(5, 51))
        M = rng.normal(size=(n, n))
        A = M @ M.T + n * np.eye(n)
        b = rng.normal(size=n)
        rep = cg_solve(A, b, np.zeros(n), absolute(1e-12), max_iter=20 * n)
        x_ref = solve_direct(A, b)
        assert norm2(rep.solution - x_ref) <= 1e-8 * max(norm2(x_ref), 1.0)


@pytest.mark.parametrize("solver", SOLVERS, ids=["cg", "gmres"])
def test_zero_rhs_relative_to_rhs_verdict(solver):
    # a zero rhs makes the rhs-relative threshold zero, which float64 does
    # not reach from x0 = ones: the solve stops at the floor and says so
    A = laplacian_1d(6)
    rep = solver(A, np.zeros(6), np.ones(6), relative_to_rhs(0.1), max_iter=100)
    assert rep.threshold == 0.0
    assert rep.converged is False
    assert rep.breakdown == "attainable accuracy"
    assert rep.iterations == 3
    assert norm2(rep.solution) <= 1e-10
    # from x0 = 0 the residual is exactly zero and meets the threshold
    rep = solver(A, np.zeros(6), np.zeros(6), relative_to_rhs(0.1), max_iter=100)
    assert rep.converged and rep.iterations == 0


@pytest.mark.parametrize("solver", SOLVERS, ids=["cg", "gmres"])
@pytest.mark.parametrize("b", [np.array([1.0]), np.array(1.0), np.ones(4)],
                         ids=["shape-1", "scalar", "shape-n-1"])
def test_misshaped_rhs_is_rejected(solver, b):
    # broadcasting would reinterpret b; a mis-shaped rhs is an error instead
    with pytest.raises(DimensionMismatchError):
        solver(laplacian_1d(5), b, np.zeros(5), absolute(1e-10))


# ---------------------------------------------------------------------------
# gmres
# ---------------------------------------------------------------------------

def test_gmres_identity():
    b = np.array([5.0, 6.0, 7.0])
    rep = gmres_solve(np.eye(3), b, np.zeros(3), absolute(1e-12))
    assert rep.converged and rep.iterations <= 1
    assert_allclose(rep.solution, b, rtol=1e-12)


def test_gmres_upper_triangular():
    A = np.array([[2.0, 1.0], [0.0, 3.0]])
    rep = gmres_solve(A, np.array([3.0, 3.0]), np.zeros(2), absolute(1e-12))
    assert rep.converged
    assert_allclose(rep.solution, [1.0, 1.0], atol=1e-10)


def test_gmres_zero_iterations_on_satisfied_guess():
    A = np.array([[2.0, 1.0], [0.5, 3.0]])
    x = np.array([1.0, -1.0])
    rep = gmres_solve(A, A @ x, x, relative_to_rhs(0.1))
    assert rep.converged and rep.iterations == 0


def test_gmres_oracle_agreement_diag_dominant():
    rng = np.random.default_rng(14)
    for _ in range(5):
        n = int(rng.integers(5, 51))
        A = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        rep = gmres_solve(A, b, np.zeros(n), absolute(1e-12), max_iter=5 * n)
        x_ref = solve_direct(A, b)
        assert norm2(rep.solution - x_ref) <= 1e-8 * max(norm2(x_ref), 1.0)


def test_gmres_residual_monotone():
    rng = np.random.default_rng(15)
    for _ in range(10):
        n = 25
        A = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        rep = gmres_solve(A, b, np.zeros(n), absolute(1e-11), max_iter=n)
        h = rep.residual_history
        assert all(h[i + 1] <= h[i] * (1 + 1e-12) for i in range(len(h) - 1))


def test_gmres_max_iter_reports_not_converged():
    A = laplacian_1d(50)
    rep = gmres_solve(A, np.ones(50), np.zeros(50), absolute(1e-14), max_iter=3)
    assert not rep.converged
    assert rep.iterations == 3
    assert rep.breakdown == "iteration cap"


# ---------------------------------------------------------------------------
# attainable accuracy: thresholds below the float64 residual floor
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("solver", SOLVERS, ids=["cg", "gmres"])
@pytest.mark.parametrize("n", [20, 50, 100])
def test_threshold_below_floor_stops_at_attainable_accuracy(solver, n):
    # the true residual floors near eps * ||A|| * ||x|| ~ 1e-14 here, fifteen
    # orders above the threshold: the solve must stop and say why
    A = laplacian_1d(n)
    b = np.random.default_rng(n).normal(size=n)
    max_iter = 1000 * n
    rep = solver(A, b, np.zeros(n), absolute(1e-30), max_iter=max_iter)
    assert rep.converged is False
    assert rep.breakdown == "attainable accuracy"
    assert rep.iterations <= max_iter // 100
    true_res = norm2(b - A @ rep.solution)
    assert true_res <= 1e-10 * norm2(b)
    assert rep.final_residual_norm == pytest.approx(true_res, rel=1e-9)


INF_RHS = np.array([1.0, 1.0, np.inf, 1.0, 1.0])
INF_GUESS = np.array([0.0, np.inf, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("solver", SOLVERS, ids=["cg", "gmres"])
@pytest.mark.parametrize("make, b, x0", [
    (relative_to_initial, INF_RHS, np.zeros(5)),
    (relative_to_rhs, INF_RHS, np.zeros(5)),
    (relative_to_initial, np.ones(5), INF_GUESS),
], ids=["rel", "relb", "rel-inf-guess"])
def test_non_finite_initial_residual_is_not_converged(solver, make, b, x0):
    # inf <= tau * inf holds, so a relative threshold must not be tested on it
    rep = solver(laplacian_1d(5), b, x0, make(0.1))
    assert rep.converged is False
    assert rep.iterations == 0
    assert rep.breakdown == "indefinite or non-finite"
    assert rep.final_residual_norm == np.inf


@pytest.mark.parametrize("n", [20, 50, 100])
def test_cg_threshold_far_below_floor_does_not_spin_to_cap(n):
    # the recurrence residual would have to underflow to meet 1e-200; the
    # solve stops once it meets the floor and the true residual sits there
    A = laplacian_1d(n)
    b = np.random.default_rng(n).normal(size=n)
    rep = cg_solve(A, b, np.zeros(n), absolute(1e-200), max_iter=10 * n)
    assert rep.breakdown == "attainable accuracy"
    assert rep.iterations < 10 * n


def test_cg_iteration_cap_reported_before_floor():
    A = laplacian_1d(50)
    b = np.random.default_rng(1).normal(size=50)
    rep = cg_solve(A, b, np.zeros(50), absolute(1e-30), max_iter=10)
    assert rep.converged is False
    assert rep.iterations == 10
    assert rep.breakdown == "iteration cap"


@st.composite
def spd_tridiagonal_systems(draw):
    n = draw(st.integers(2, 40))
    off = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n - 1, max_size=n - 1)))
    margin = draw(st.floats(1e-3, 10.0))
    # strict diagonal dominance with a positive diagonal makes it SPD
    diag = np.abs(np.r_[off, 0.0]) + np.abs(np.r_[0.0, off]) + margin
    A = sp.diags([off, diag, off], [-1, 0, 1]).tocsr()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = rng.normal(size=n) if draw(st.integers(0, 9)) else np.zeros(n)
    x0 = rng.normal(size=n) if draw(st.booleans()) else np.zeros(n)
    return A, b, x0


@st.composite
def spd_tridiagonal_problems(draw):
    A, b, x0 = draw(spd_tridiagonal_systems())
    n = b.shape[0]
    make = draw(st.sampled_from([relative_to_initial, relative_to_rhs, absolute]))
    criterion = make(10.0 ** draw(st.floats(-18.0, 0.0)))
    max_iter = draw(st.integers(1, 6 * n))
    return A, b, x0, criterion, max_iter


@pytest.mark.parametrize("solver", SOLVERS, ids=["cg", "gmres"])
@settings(max_examples=150, deadline=None, database=None)
@given(problem=spd_tridiagonal_problems())
def test_reports_are_honest_property(solver, problem):
    A, b, x0, criterion, max_iter = problem
    rep = solver(A, b, x0, criterion, max_iter=max_iter)
    assert rep.iterations <= max_iter
    assert (rep.breakdown is None) == rep.converged
    assert rep.threshold == criterion.threshold(rep.initial_residual_norm, norm2(b))
    if rep.converged:
        assert norm2(b - A @ rep.solution) <= DRIFT_GUARD_FACTOR * rep.threshold


@pytest.mark.parametrize("solver", SOLVERS, ids=["cg", "gmres"])
@settings(max_examples=150, deadline=None, database=None)
@given(system=spd_tridiagonal_systems(), exponent=st.floats(-300.0, 0.0))
def test_floor_exit_is_honest_property(solver, system, exponent):
    # absolute thresholds from far below the float64 floor up to 1
    A, b, x0 = system
    threshold = 10.0**exponent
    rep = solver(A, b, x0, absolute(threshold))
    assert rep.final_residual_norm == norm2(b - A @ rep.solution)
    assert rep.converged == (rep.final_residual_norm <= DRIFT_GUARD_FACTOR * threshold)
    assert rep.breakdown in (None, "attainable accuracy")
    # the floor reads only the operator's products: a callable gives the
    # same report, bit for bit
    other = solver(lambda v: A @ v, b, x0, absolute(threshold))
    assert other.solution.tobytes() == rep.solution.tobytes()
    assert (other.iterations, other.final_residual_norm, other.breakdown,
            other.residual_history) == (rep.iterations, rep.final_residual_norm,
                                        rep.breakdown, rep.residual_history)
