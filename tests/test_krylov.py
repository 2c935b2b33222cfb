import hashlib
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from inexactfp.krylov import (
    CRITERION_LABELS,
    DRIFT_GUARD_FACTOR,
    DimensionMismatchError,
    TerminationCriterion,
    _as_apply,
    cg_solve,
    gmres_solve,
    norm2,
)
from inexactfp.problems.picard import N, picard_assemble, picard_forcing
from inexactfp.problems.transmission import transmission_assemble


def laplacian_1d(n):
    return sp.diags(
        [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)], [-1, 0, 1]
    ).tocsr()


SOLVERS = [cg_solve, gmres_solve]


# ---------------------------------------------------------------------------
# norm2
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "x,expected",
    [([0.0, 0.0, 0.0], 0.0), ([3.0, 4.0], 5.0), ([1.0, 1.0, 1.0, 1.0], 2.0)],
)
def test_norm2_values(x, expected):
    assert norm2(np.array(x)) == pytest.approx(expected, abs=1e-15)


def test_norm2_scaling():
    rng = np.random.default_rng(1)
    for c in (-3.5, 0.0, 0.25, 7.0):
        x = rng.normal(size=20)
        assert norm2(c * x) == pytest.approx(abs(c) * norm2(x), rel=1e-13)
        assert norm2(x) >= 0.0


def _norm2_cases():
    rng = np.random.default_rng(7)
    for n in (1, 2, 17, 64, 1000):
        yield rng.normal(size=n)
    yield rng.normal(size=(200, 5))[:, 3]  # a strided column view
    yield np.zeros(0)
    yield np.array([1.0, np.inf, -2.0])
    yield np.array([-np.inf])
    yield np.array([1.0, np.nan])
    yield np.array([np.inf, np.nan])


@pytest.mark.parametrize("x", list(_norm2_cases()), ids=lambda x: f"{x.size}-{x.strides[0]}")
def test_norm2_bitwise_equal_to_numpy(x):
    assert np.float64(norm2(x)).tobytes() == np.linalg.norm(x).tobytes()


def test_norm2_squares_overflow():
    # the squares pass float64's range although the norm is far inside it
    assert norm2(np.array([1e200, 1e200])) == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
    assert norm2(np.array([-1e300, 0.0])) == 1e300
    assert norm2(np.full(4, 1.7e308)) == math.inf  # the norm itself overflows


def test_norm2_squares_underflow():
    # a nonzero vector whose squares all round to zero has a nonzero norm
    assert norm2(np.array([1e-200])) == 1e-200
    assert norm2(np.array([3e-200, 4e-200])) == pytest.approx(5e-200, rel=1e-15)
    assert norm2(np.array([5e-324, 0.0])) == 5e-324
    assert norm2(np.zeros(3)) == 0.0


# ---------------------------------------------------------------------------
# criterion algebra
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("criterion, current, r0, rhs, satisfied", [
    (TerminationCriterion("rel", 0.1), 0.05, 1.0, 7.0, True),
    (TerminationCriterion("relb", 0.1), 0.05, 0.01, 0.2, False),
    (TerminationCriterion("abs", 1e-3), 1e-3, 5.0, 5.0, True),  # a residual at the threshold passes
], ids=["relative_to_initial", "relative_to_rhs", "absolute_boundary_inclusive"])
def test_criterion_threshold(criterion, current, r0, rhs, satisfied):
    assert (current <= criterion.threshold(r0, rhs)) is satisfied


def test_criterion_rejects_nonpositive_tolerance():
    with pytest.raises(ValueError):
        TerminationCriterion("abs", 0.0)


@pytest.mark.parametrize("kind", CRITERION_LABELS)
@pytest.mark.parametrize("tau", [math.inf, math.nan])
def test_criterion_rejects_non_finite_tolerance(kind, tau):
    # rel at inf would ask for inf * 0 = NaN of an exact initial guess
    with pytest.raises(ValueError, match="positive and finite"):
        TerminationCriterion(kind, tau)


@pytest.mark.parametrize("kind", ["relative", "REL", "absolute", "", None])
def test_criterion_rejects_unknown_kind(kind):
    with pytest.raises(ValueError, match="unknown criterion"):
        TerminationCriterion(kind, 0.1)


def test_criterion_kind_is_its_label():
    assert CRITERION_LABELS == ("rel", "relb", "abs")
    for label in CRITERION_LABELS:
        assert TerminationCriterion(label, 0.1).kind == label


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------

def report_digest(rep):
    """sha256 over every field of a SolveReport, floats by their bits."""
    fields = (rep.iterations, rep.initial_residual_norm.hex(), rep.threshold.hex(),
              rep.final_residual_norm.hex(), rep.converged, rep.breakdown)
    digest = hashlib.sha256(repr(fields).encode())
    digest.update(rep.solution.tobytes())
    digest.update(np.array(rep.residual_history).tobytes())
    return digest.hexdigest()


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


def reusing_one_buffer(A):
    """``v -> A @ v`` written into one array it returns on every call, which
    it checks holds what it last wrote: a solver may read the output of a
    callable but must neither write it nor keep it across calls."""
    out = np.empty(A.shape[0])
    written = out.copy()

    def apply(v):
        assert out.tobytes() == written.tobytes(), "the solver wrote the operator's output"
        out[:] = A @ v
        written[:] = out
        return out

    return apply


@pytest.mark.parametrize("solver", SOLVERS, ids=["cg", "gmres"])
@pytest.mark.parametrize("kind, tau", [("rel", 1e-8), ("abs", 1e-30)])
def test_callable_owning_its_output_gives_matmul_bits(solver, kind, tau):
    A = laplacian_1d(40)
    rng = np.random.default_rng(40)
    b, x0 = rng.normal(size=40), rng.normal(size=40)
    criterion = TerminationCriterion(kind, tau)
    expected = solver(lambda v: A @ v, b, x0, criterion)
    rep = solver(reusing_one_buffer(A), b, x0, criterion)
    assert rep.iterations > 1
    assert report_digest(rep) == report_digest(expected)


@pytest.mark.parametrize("solver", SOLVERS, ids=["cg", "gmres"])
@pytest.mark.parametrize("op, shape", [
    (lambda v: 2.0 * v.sum(), r"shape \(\)"),
    (lambda v: np.array([v.sum()]), r"shape \(1,\)"),
    (lambda v: v[1:], r"shape \(5,\)"),
    (lambda v: np.r_[v, 1.0], r"shape \(7,\)"),
    (np.ones((1, 6)), r"shape \(1,\)"),
    (np.ones((7, 6)), r"shape \(7,\)"),
    (sp.csr_matrix(np.ones((1, 6))), "1x6"),
    (sp.dia_matrix(np.ones((7, 6))), "7x6"),
], ids=["scalar", "length-1", "n-1", "n+1", "dense-1xn", "dense-(n+1)xn", "csr-1xn",
        "dia-(n+1)xn"])
def test_product_of_wrong_shape_is_rejected(solver, op, shape):
    # written into a work row, a scalar or length-1 product would broadcast
    # and the solve would go on with it
    with pytest.raises(DimensionMismatchError, match=shape):
        solver(op, np.arange(1.0, 7.0), np.zeros(6), TerminationCriterion("rel", 1e-8))


# ---------------------------------------------------------------------------
# conjugate gradients
# ---------------------------------------------------------------------------

def test_cg_solution_owns_its_memory():
    # every exit returns a vector of its own, not a row of CG's work arrays,
    # so a DnState holds one vector per block
    A, b = laplacian_1d(12), np.random.default_rng(12).normal(size=12)
    reports = [cg_solve(A, b, np.zeros(12), TerminationCriterion(kind, tau), max_iter=cap)
               for kind, tau, cap in [("abs", 1e3, 100), ("rel", 1e-6, 100), ("rel", 1e-6, 3),
                                      ("abs", 1e-30, 100)]]
    reports.append(cg_solve(np.diag(np.r_[np.ones(11), -1.0]), b, np.zeros(12),
                            TerminationCriterion("rel", 1e-6)))
    assert [(rep.iterations > 0, rep.breakdown) for rep in reports] == [
        (False, None), (True, None), (True, "iteration cap"), (True, "attainable accuracy"),
        (True, "indefinite or non-finite")]
    for rep in reports:
        assert rep.solution.base is None


def test_cg_identity_single_iteration():
    b = np.array([1.0, 2.0, 3.0, 4.0])
    rep = cg_solve(np.eye(4), b, np.zeros(4), TerminationCriterion("rel", 0.5))
    assert rep.converged and rep.iterations == 1
    assert_allclose(rep.solution, b, rtol=1e-12)


@pytest.mark.parametrize("solver", SOLVERS, ids=["cg", "gmres"])
def test_leaves_inputs_unmodified(solver):
    A = laplacian_1d(12)
    b, x0 = np.linspace(-1.0, 2.0, 12), np.full(12, 0.5)
    b_before, x0_before = b.copy(), x0.copy()
    rep = solver(A, b, x0, TerminationCriterion("abs", 1e-10))
    assert rep.converged and rep.iterations > 1
    assert_bitwise(b, b_before)
    assert_bitwise(x0, x0_before)


def test_cg_laplacian_matches_direct():
    A = laplacian_1d(10)
    b = np.ones(10)
    rep = cg_solve(A, b, np.zeros(10), TerminationCriterion("abs", 1e-12))
    assert rep.converged and rep.iterations <= 10
    assert_allclose(rep.solution, np.linalg.solve(A.toarray(), b), atol=1e-9)


def test_cg_exact_initial_guess_zero_iterations():
    A = laplacian_1d(8)
    x = np.linspace(1, 2, 8)
    rep = cg_solve(A, A @ x, x, TerminationCriterion("relb", 0.1))
    assert rep.converged and rep.iterations == 0


def test_cg_indefinite_breakdown():
    A = np.diag([1.0, -1.0])
    rep = cg_solve(A, np.array([1.0, 1.0]), np.zeros(2), TerminationCriterion("abs", 1e-12),
                   max_iter=10)
    assert not rep.converged
    assert rep.breakdown == "indefinite or non-finite"


def test_cg_criterion_soundness_with_drift_guard():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = 30
        M = rng.normal(size=(n, n))
        A = M @ M.T + n * np.eye(n)
        b = rng.normal(size=n)
        rep = cg_solve(A, b, np.zeros(n), TerminationCriterion("rel", 1e-3))
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
        rep_rel = cg_solve(A, b, x0, TerminationCriterion("rel", tau))
        rep_abs = cg_solve(A, b, x0, TerminationCriterion("abs", tau * r0))
        assert rep_rel.iterations <= rep_abs.iterations


def test_cg_oracle_agreement_random_spd():
    rng = np.random.default_rng(13)
    for _ in range(5):
        n = int(rng.integers(5, 51))
        M = rng.normal(size=(n, n))
        A = M @ M.T + n * np.eye(n)
        b = rng.normal(size=n)
        rep = cg_solve(A, b, np.zeros(n), TerminationCriterion("abs", 1e-12), max_iter=20 * n)
        x_ref = np.linalg.solve(A, b)
        assert norm2(rep.solution - x_ref) <= 1e-8 * max(norm2(x_ref), 1.0)


@pytest.mark.parametrize("solver", SOLVERS, ids=["cg", "gmres"])
def test_zero_rhs_relative_to_rhs_verdict(solver):
    # a zero rhs makes the rhs-relative threshold zero, which float64 does
    # not reach from x0 = ones: the solve stops at the floor and says so
    A = laplacian_1d(6)
    rep = solver(A, np.zeros(6), np.ones(6), TerminationCriterion("relb", 0.1), max_iter=100)
    assert rep.threshold == 0.0
    assert rep.converged is False
    assert rep.breakdown == "attainable accuracy"
    assert rep.iterations == 3
    assert norm2(rep.solution) <= 1e-10
    # from x0 = 0 the residual is exactly zero and meets the threshold
    rep = solver(A, np.zeros(6), np.zeros(6), TerminationCriterion("relb", 0.1), max_iter=100)
    assert rep.converged and rep.iterations == 0


@pytest.mark.parametrize("solver", SOLVERS, ids=["cg", "gmres"])
@pytest.mark.parametrize("b", [np.array([1.0]), np.array(1.0), np.ones(4)],
                         ids=["shape-1", "scalar", "shape-n-1"])
def test_misshaped_rhs_is_rejected(solver, b):
    # broadcasting would reinterpret b; a mis-shaped rhs is an error instead
    with pytest.raises(DimensionMismatchError):
        solver(laplacian_1d(5), b, np.zeros(5), TerminationCriterion("abs", 1e-10))


# ---------------------------------------------------------------------------
# gmres
# ---------------------------------------------------------------------------

def test_gmres_identity():
    b = np.array([5.0, 6.0, 7.0])
    rep = gmres_solve(np.eye(3), b, np.zeros(3), TerminationCriterion("abs", 1e-12))
    assert rep.converged and rep.iterations <= 1
    assert_allclose(rep.solution, b, rtol=1e-12)


def test_gmres_upper_triangular():
    A = np.array([[2.0, 1.0], [0.0, 3.0]])
    rep = gmres_solve(A, np.array([3.0, 3.0]), np.zeros(2), TerminationCriterion("abs", 1e-12))
    assert rep.converged
    assert_allclose(rep.solution, [1.0, 1.0], atol=1e-10)


def test_gmres_zero_iterations_on_satisfied_guess():
    A = np.array([[2.0, 1.0], [0.5, 3.0]])
    x = np.array([1.0, -1.0])
    rep = gmres_solve(A, A @ x, x, TerminationCriterion("relb", 0.1))
    assert rep.converged and rep.iterations == 0


def test_gmres_oracle_agreement_diag_dominant():
    rng = np.random.default_rng(14)
    for _ in range(5):
        n = int(rng.integers(5, 51))
        A = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        rep = gmres_solve(A, b, np.zeros(n), TerminationCriterion("abs", 1e-12), max_iter=5 * n)
        x_ref = np.linalg.solve(A, b)
        assert norm2(rep.solution - x_ref) <= 1e-8 * max(norm2(x_ref), 1.0)


def test_gmres_residual_monotone():
    rng = np.random.default_rng(15)
    for _ in range(10):
        n = 25
        A = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        rep = gmres_solve(A, b, np.zeros(n), TerminationCriterion("abs", 1e-11), max_iter=n)
        h = rep.residual_history
        assert all(h[i + 1] <= h[i] * (1 + 1e-12) for i in range(len(h) - 1))


@pytest.mark.parametrize("scale_A, scale_b", [(1.0, 1e14), (1.0, 1e16), (1e-15, 1.0)])
def test_gmres_happy_breakdown_is_scale_invariant(scale_A, scale_b):
    # the Arnoldi norm is compared with the operator's scale: scaling the
    # rhs or the operator must not end the solve early at a loose residual
    rng = np.random.default_rng(0)
    A = rng.normal(size=(30, 30)) + 30 * np.eye(30)
    b = rng.normal(size=30)
    plain = gmres_solve(A, b, np.zeros(30), TerminationCriterion("rel", 1e-8))
    rep = gmres_solve(scale_A * A, scale_b * b, np.zeros(30), TerminationCriterion("rel", 1e-8))
    assert plain.converged and plain.iterations == 10
    assert rep.converged and rep.iterations == 10
    assert rep.final_residual_norm <= 1e-8 * rep.initial_residual_norm


def test_gmres_max_iter_reports_not_converged():
    A = laplacian_1d(50)
    rep = gmres_solve(A, np.ones(50), np.zeros(50), TerminationCriterion("abs", 1e-14), max_iter=3)
    assert not rep.converged
    assert rep.iterations == 3
    assert rep.breakdown == "iteration cap"


NILPOTENT_SHIFT = np.eye(3, k=1)


@pytest.mark.parametrize("A, b, tol, iterations, least", [
    (np.zeros((3, 3)), np.ones(3), 1e-10, 1, np.sqrt(3.0)),
    (NILPOTENT_SHIFT, np.array([0.0, 0.0, 1.0]), 1e-10, 3, 1.0),
    # A K_2 = span(e1) while b = e1 + e2: the rotated column of step 2 is zero
    # up to rounding, which must not pick its rotation
    (NILPOTENT_SHIFT, np.array([1.0, 1.0, 0.0]), 1e-10, 2, 1.0),
    (NILPOTENT_SHIFT, np.array([0.0, 0.0, 1.0]), 0.5, 3, 1.0),
], ids=["zero", "nilpotent-e3", "nilpotent-e1+e2", "nilpotent-e3-within-guard"])
def test_gmres_singular_operator_exhausts_krylov_space(A, b, tol, iterations, least):
    # a zero rotated column means the Krylov space is exhausted: the solve
    # stops at the least residual over it, and the true residual decides
    rep = gmres_solve(A, b, np.zeros(3), TerminationCriterion("abs", tol))
    assert rep.iterations == iterations
    assert rep.final_residual_norm == norm2(b - A @ rep.solution)
    assert rep.final_residual_norm == pytest.approx(least, rel=1e-12)
    assert rep.residual_history[-1] == pytest.approx(least, rel=1e-12)
    assert rep.converged == (rep.final_residual_norm <= DRIFT_GUARD_FACTOR * tol)
    assert rep.breakdown == (None if rep.converged else "attainable accuracy")


def picard_system(name):
    """A(x) of the Picard problem at a seeded lagged velocity x, as DIA, CSR
    and a dense array, with its forcing and a seeded initial guess."""
    rng = np.random.default_rng(30)
    x = {"smooth": np.sin(np.pi * np.arange(1, N + 1) / (N + 1)),
         "normal": rng.normal(size=N),
         "wide": 10.0 * rng.normal(size=N)}[name]
    A = picard_assemble(x)
    return [A, A.tocsr(), A.toarray()], picard_forcing(), 0.1 * rng.normal(size=N)


def clustered_system():
    """Symmetric, n - 1 eigenvalues in [1, 1.001] and one at 1e-8: GMRES meets
    the float64 floor in a few steps while the true residual sits 1e7 above
    it, so a sub-floor tau restarts once from the true residual, then stops
    at attainable accuracy."""
    rng = np.random.default_rng(0)
    n = 40
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    A = (Q * np.r_[1.0 + 1e-3 * rng.random(n - 1), 1e-8]) @ Q.T
    return [A, sp.csr_matrix(A)], rng.normal(size=n), np.zeros(n)


PINNED_CRITERIA = [("rel", 1e-6), ("relb", 1e-8), ("abs", 1e-10), ("abs", 1e-30)]
SINGULAR_CRITERIA = [("abs", 1e-10), ("abs", 0.5)]

# sha256 of the reports of gmres_solve, in order over operators, then
# criteria; a change to GMRES must keep every bit of every field
GMRES_REPORT_DIGESTS = {
    "picard-smooth": "ec1cd09c71da08d0be57b9dc211a9f194feb94d67a8bdf1add0cc46a1d4104c1",
    "picard-normal": "f34a459264e18d87214bf9e63db6cae9c225e56eb00e55dbb9ab02a499009bba",
    "picard-wide": "4836d733d94e672ae1301cdcafe37ea57b2b8fe26857ed9f2c01c9f44136fb54",
    "clustered": "7f5ad3598725731c1b00d609e4687cb15d6c287cdfa7fe6e77a212880924eeba",
    "zero": "cfa6a981c5de5177e996ea988267cab5dd55886b19aea10a7ea63be6887b693f",
    "nilpotent-e3": "5610afdcccc91d502f2fdc7f8012c4d14635065b4ee3c2208fab8aff46b278a7",
    "nilpotent-e1+e2": "9664eade573cda36763dc4bbc67dd8c67e6f5e2141ee51f41a98155ca9d82b78",
}


def pinned_system(case):
    if case.startswith("picard-"):
        return (*picard_system(case.removeprefix("picard-")), PINNED_CRITERIA)
    if case == "clustered":
        return (*clustered_system(), PINNED_CRITERIA)
    A, b = {"zero": (np.zeros((3, 3)), np.ones(3)),
            "nilpotent-e3": (NILPOTENT_SHIFT, np.array([0.0, 0.0, 1.0])),
            "nilpotent-e1+e2": (NILPOTENT_SHIFT, np.array([1.0, 1.0, 0.0]))}[case]
    return [A, sp.csr_matrix(A)], b, np.zeros(3), SINGULAR_CRITERIA


@pytest.mark.parametrize("case", list(GMRES_REPORT_DIGESTS))
def test_gmres_reports_bitwise_pinned(case):
    operators, b, x0, criteria = pinned_system(case)
    digest = hashlib.sha256()
    reports = []
    for op in operators:
        for kind, tau in criteria:
            rep = gmres_solve(op, b, x0, TerminationCriterion(kind, tau), max_iter=2 * len(b))
            reports.append(rep)
            digest.update(report_digest(rep).encode())
    assert digest.hexdigest() == GMRES_REPORT_DIGESTS[case]
    assert "attainable accuracy" in {rep.breakdown for rep in reports}
    if case == "clustered":
        # the sub-floor tau restarts from the true residual, which is where
        # the recurrence residual rises again, then stops at the floor
        sub_floor = reports[len(criteria) - 1]
        assert sub_floor.breakdown == "attainable accuracy"
        assert np.any(np.diff(sub_floor.residual_history) > 0)


# (kind, tau, max_iter): converged three ways, then the iteration cap and
# attainable accuracy
CG_CRITERIA = [("rel", 1e-6, 1000), ("relb", 1e-8, 1000), ("abs", 1e-10, 1000),
               ("rel", 1e-6, 3), ("abs", 1e-30, 1000)]

# sha256 of the reports of cg_solve, in order over operators, then criteria;
# a change to CG must keep every bit of every field, the sign of each zero too
CG_REPORT_DIGESTS = {
    "transmission-A": "6f5a09f52c37e501d633ea587994ea10eb2b13b9056cadd4f6b4fcb8a0ae0b13",
    "transmission-B": "ae0b7084e0193a7665d07a55cb3d7f771e7950ac5167dd84255e3787e93823c6",
    "laplacian-e1": "48a47effb203f8c72bcf9dfcacf7d0defa194d257bf4811a77c590668c4117af",
    "laplacian-signed-zeros": "536a81b63152de3fc1ebbbd9b446566cd0258423817be96febcab2273bf70c9b",
    "indefinite": "b87d051ac8256b2a97c74210b96d80e7d2b1ccf4e63c3bd93f383e19f3c65adb",
}


def cg_pinned_system(case):
    """Operators (sparse, dense, callable), rhs and initial guess of a case,
    and the outcomes its criteria must reach."""
    outcomes = {None, "iteration cap", "attainable accuracy"}
    if case.startswith("transmission-"):
        sys = transmission_assemble(0.1)
        rng = np.random.default_rng(34)
        if case == "transmission-A":  # DIA
            A, b = sys.A, sys.b1(rng.normal(size=sys.interface_count))
        else:  # CSR
            A, b = sys.B, sys.b2(rng.normal(size=sys.interface_count))
        return [A, A.toarray(), lambda v: A @ v], b, 0.1 * rng.normal(size=len(b)), outcomes
    n = 12
    if case == "indefinite":
        A = np.diag(np.r_[np.ones(n - 1), -1.0])
        return [sp.csr_matrix(A), A, lambda v: A @ v], np.ones(n), np.zeros(n), {
            "indefinite or non-finite"}
    A = laplacian_1d(n)
    b, x0 = np.zeros(n), np.zeros(n)
    if case == "laplacian-signed-zeros":
        b[1::2] = x0[::3] = -0.0
    b[0] = 1.0
    return [A, A.todia(), A.toarray(), lambda v: A @ v], b, x0, outcomes


@pytest.mark.parametrize("case", list(CG_REPORT_DIGESTS))
def test_cg_reports_bitwise_pinned(case):
    operators, b, x0, outcomes = cg_pinned_system(case)
    digest = hashlib.sha256()
    reached = set()
    for op in operators:
        for kind, tau, max_iter in CG_CRITERIA:
            rep = cg_solve(op, b, x0, TerminationCriterion(kind, tau), max_iter=max_iter)
            reached.add(rep.breakdown)
            digest.update(report_digest(rep).encode())
    assert digest.hexdigest() == CG_REPORT_DIGESTS[case]
    assert reached == outcomes


@st.composite
def capped_nonsymmetric_systems(draw):
    n = draw(st.integers(3, 12))
    k = draw(st.integers(1, min(5, n - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = rng.normal(size=(n, n))
    A = np.eye(n) + 0.5 * G / np.linalg.norm(G, 2)
    b = rng.normal(size=n)
    x0 = rng.normal(size=n) if draw(st.booleans()) else np.zeros(n)
    return A, b, x0, k


@settings(max_examples=100, deadline=None, database=None)
@given(system=capped_nonsymmetric_systems())
def test_gmres_minimizes_residual_over_krylov_space_property(system):
    # k < n steps without a restart end at the iteration cap with the least
    # residual over x0 + K_k(A, r0), here from a dense least squares problem
    # on an orthonormal basis of the Krylov matrix
    A, b, x0, k = system
    rep = gmres_solve(A, b, x0, TerminationCriterion("abs", 1e-300), max_iter=k)
    r0 = b - A @ x0
    krylov = np.empty((len(b), k))
    krylov[:, 0] = r0
    for i in range(1, k):
        krylov[:, i] = A @ krylov[:, i - 1]
    basis = np.linalg.qr(krylov)[0]
    y = np.linalg.lstsq(A @ basis, r0, rcond=None)[0]
    least = norm2(r0 - A @ basis @ y)
    assert rep.iterations == k and rep.breakdown == "iteration cap"
    assert abs(rep.final_residual_norm - least) <= 1e-8 * norm2(r0)


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
    rep = solver(A, b, np.zeros(n), TerminationCriterion("abs", 1e-30), max_iter=max_iter)
    assert rep.converged is False
    assert rep.breakdown == "attainable accuracy"
    assert rep.iterations <= max_iter // 100
    true_res = norm2(b - A @ rep.solution)
    assert true_res <= 1e-10 * norm2(b)
    assert rep.final_residual_norm == pytest.approx(true_res, rel=1e-9)


INF_RHS = np.array([1.0, 1.0, np.inf, 1.0, 1.0])
INF_GUESS = np.array([0.0, np.inf, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("solver", SOLVERS, ids=["cg", "gmres"])
@pytest.mark.parametrize("kind, b, x0", [
    ("rel", INF_RHS, np.zeros(5)),
    ("relb", INF_RHS, np.zeros(5)),
    ("rel", np.ones(5), INF_GUESS),
], ids=["rel", "relb", "rel-inf-guess"])
def test_non_finite_initial_residual_is_not_converged(solver, kind, b, x0):
    # inf <= tau * inf holds, so a relative threshold must not be tested on it
    rep = solver(laplacian_1d(5), b, x0, TerminationCriterion(kind, 0.1))
    assert rep.converged is False
    assert rep.iterations == 0
    assert rep.breakdown == "indefinite or non-finite"
    assert rep.final_residual_norm == np.inf


def test_cg_non_finite_recurrence_residual_is_a_breakdown():
    # x and s stay finite, but s.dot(s) overflows after the first step
    A = np.diag([1e-20, 1.0])
    b = 1e150 * np.array([1.0, 1e-10])
    with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
        rep = cg_solve(A, b, np.zeros(2), TerminationCriterion("abs", 1e-3))
    assert rep.iterations == 1
    assert rep.final_residual_norm == math.inf
    assert rep.breakdown == "indefinite or non-finite"


def test_gmres_non_finite_recurrence_residual_is_a_breakdown():
    calls = []

    def op(v):  # NaN from the third product, the second Arnoldi step's
        calls.append(v)
        return 2.0 * v + np.roll(v, 1) if len(calls) <= 2 else np.full_like(v, np.nan)

    rep = gmres_solve(op, 1.0 + np.arange(5), np.zeros(5), TerminationCriterion("abs", 1e-12))
    assert rep.iterations == 2
    assert math.isnan(rep.final_residual_norm)
    assert rep.breakdown == "indefinite or non-finite"


@pytest.mark.parametrize("n", [20, 50, 100])
def test_cg_threshold_far_below_floor_does_not_spin_to_cap(n):
    # the recurrence residual would have to underflow to meet 1e-200; the
    # solve stops once it meets the floor and the true residual sits there
    A = laplacian_1d(n)
    b = np.random.default_rng(n).normal(size=n)
    rep = cg_solve(A, b, np.zeros(n), TerminationCriterion("abs", 1e-200), max_iter=10 * n)
    assert rep.breakdown == "attainable accuracy"
    assert rep.iterations < 10 * n


def test_cg_iteration_cap_reported_before_floor():
    A = laplacian_1d(50)
    b = np.random.default_rng(1).normal(size=50)
    rep = cg_solve(A, b, np.zeros(50), TerminationCriterion("abs", 1e-30), max_iter=10)
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
    kind = draw(st.sampled_from(CRITERION_LABELS))
    criterion = TerminationCriterion(kind, 10.0 ** draw(st.floats(-18.0, 0.0)))
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
    rep = solver(A, b, x0, TerminationCriterion("abs", threshold))
    assert rep.final_residual_norm == norm2(b - A @ rep.solution)
    assert rep.converged == (rep.final_residual_norm <= DRIFT_GUARD_FACTOR * threshold)
    assert rep.breakdown in (None, "attainable accuracy")
    # the floor reads only the operator's products: a callable gives the
    # same report, bit for bit
    other = solver(lambda v: A @ v, b, x0, TerminationCriterion("abs", threshold))
    assert other.solution.tobytes() == rep.solution.tobytes()
    assert (other.iterations, other.final_residual_norm, other.breakdown,
            other.residual_history) == (rep.iterations, rep.final_residual_norm,
                                        rep.breakdown, rep.residual_history)


@pytest.mark.parametrize("solver", SOLVERS, ids=["cg", "gmres"])
@settings(max_examples=40, deadline=None, database=None)
@given(system=spd_tridiagonal_systems(), k=st.integers(-60, 60),
       kind=st.sampled_from(["rel", "relb"]), exponent=st.floats(-12.0, 0.0))
def test_power_of_two_scaling_property(solver, system, k, kind, exponent):
    # under a relative rule every quantity a solve compares scales with b and
    # x0, and a power of two scales without rounding: the solve must too
    A, b, x0 = system
    criterion = TerminationCriterion(kind, 10.0**exponent)
    rep = solver(A, b, x0, criterion)
    scaled = solver(A, b * 2.0**k, x0 * 2.0**k, criterion)
    assert scaled.solution.tobytes() == (rep.solution * 2.0**k).tobytes()
    assert (scaled.iterations, scaled.converged, scaled.breakdown) == (
        rep.iterations, rep.converged, rep.breakdown)
