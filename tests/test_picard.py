import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from inexactfp.fixedpoint import Termination
from inexactfp.krylov import TerminationCriterion, _as_apply, gmres_solve, norm2
from inexactfp.problems import (
    picard_assemble,
    picard_exact_solution,
    picard_forcing,
    picard_iterate,
)
from inexactfp.problems.picard import N, VISCOSITY


def test_assemble_zero_velocity_is_symmetric_laplacian():
    A = picard_assemble(np.zeros(8))
    dense = A.toarray()
    assert_allclose(dense, dense.T, rtol=0)
    assert_allclose(np.diag(dense), 2 * VISCOSITY * 9**2, rtol=1e-14)


def test_assemble_manufactured_solution_exact_for_zero_velocity():
    # the three-point stencil is exact on the quadratic u*: -nu u*'' = 2 nu
    A = picard_assemble(np.zeros(N))
    assert_allclose(A @ picard_exact_solution(), 2 * VISCOSITY, rtol=1e-10)


def test_assemble_upwind_diagonal_nonnegative():
    rng = np.random.default_rng(5)
    x = rng.normal(size=10)
    A = picard_assemble(x)
    diffusion = picard_assemble(np.zeros(10))
    convection = (A - diffusion).toarray()
    assert np.all(np.diag(convection) >= 0)
    # upwind direction follows the velocity sign
    for i in range(10):
        if x[i] >= 0 and i > 0:
            assert convection[i, i - 1] <= 0 and convection[i, min(i + 1, 9)] >= -1e-15
        if x[i] < 0 and i < 9:
            assert convection[i, i + 1] <= 0


def diags_reference(x):
    """A(x) built with sp.diags as CSR, the reference for the DIA build."""
    h, nu = 1.0 / (len(x) + 1), VISCOSITY
    main = 2.0 * nu / h**2 + np.abs(x) / h
    lower = -nu / h**2 - np.where(x[1:] >= 0.0, x[1:], 0.0) / h
    upper = -nu / h**2 + np.where(x[:-1] >= 0.0, 0.0, x[:-1]) / h
    return sp.diags([lower, main, upper], [-1, 0, 1], format="csr")


def velocity_fields(n):
    """A drawn field with +0 and -0 entries, its negation, +0 and -0."""
    rng = np.random.default_rng(n)
    x = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
    x[::4] = 0.0
    x[1::4] = -0.0
    return x, -x, np.zeros(n), np.full(n, -0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 64, 200])
def test_assemble_csr_arrays_bitwise_equal_to_diags(n):
    for field in velocity_fields(n):
        A = picard_assemble(field).tocsr()
        ref = diags_reference(field)
        assert A.shape == ref.shape
        for part in ("indptr", "indices", "data"):
            got, want = getattr(A, part), getattr(ref, part)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), part


@pytest.mark.parametrize("n", [1, 2, 3, 64, 200])
def test_assemble_dia_products_bitwise_equal_to_diags(n):
    rng = np.random.default_rng(n + 1)
    for field in velocity_fields(n):
        A = picard_assemble(field)
        ref = diags_reference(field)
        assert A.format == "dia" and list(A.offsets) == [-1, 0, 1]
        for v in (field, rng.normal(size=n), np.full(n, -0.0)):
            want = (ref @ v).tobytes()
            assert _as_apply(A)(v).tobytes() == want
            assert (A @ v).tobytes() == want


def test_forcing_fixed_point_property():
    u = picard_exact_solution()
    assert norm2(picard_assemble(u) @ u - picard_forcing()) == 0.0


def test_relative_criterion_converges_for_loose_tau():
    loose = picard_iterate(TerminationCriterion("rel", 1e-1), tol=1e-12)
    tight = picard_iterate(TerminationCriterion("rel", 1e-12), tol=1e-12)
    assert loose.residuals[-1] <= 1e-12
    assert tight.residuals[-1] <= 1e-12
    assert_allclose(loose.final, tight.final, atol=1e-10)
    # the work counter pins the GMRES arithmetic bit for bit: a last-bit
    # change moves it (GMRES with a column basis and its rotations replayed
    # one by one took 95 steps and 4,415 iterations)
    assert loose.steps == 93
    assert loose.total_inner_iterations == 4305


def test_relative_criterion_exact_at_loose_tau():
    # the relative rule from the previous iterate reaches u* at tau = 0.9 too
    # (measured: 1.27e-12 after 469 steps)
    trace = picard_iterate(TerminationCriterion("rel", 0.9), tol=1e-12)
    assert trace.terminated_by is Termination.RESIDUAL_BELOW_TOL
    assert norm2(trace.final - picard_exact_solution()) <= 1e-9


def test_absolute_criterion_plateaus():
    trace = picard_iterate(TerminationCriterion("abs", 1e-3), tol=1e-12)
    assert trace.terminated_by is Termination.INNER_STAGNATION
    assert 1e-5 <= trace.residuals[-1] <= 1e-2


@pytest.mark.parametrize("kind, tau, steps", [("abs", 1e-2, 19), ("relb", 1e-1, 11)])
def test_trace_holds_one_residual_per_step(kind, tau, steps):
    # the step that stalls records its residual too, before the stagnation exit
    trace = picard_iterate(TerminationCriterion(kind, tau), tol=1e-12)
    assert trace.terminated_by is Termination.INNER_STAGNATION
    assert trace.steps == steps
    assert len(trace.residuals) == trace.steps


def test_max_iter_caps_outer_steps():
    trace = picard_iterate(TerminationCriterion("rel", 1e-1), tol=1e-12, max_iter=3)
    assert trace.terminated_by is Termination.MAX_ITER
    assert trace.steps == 3
    assert len(trace.residuals) == 3


def test_trace_records_carry_no_vectors():
    trace = picard_iterate(TerminationCriterion("rel", 1e-1), tol=1e-12, max_iter=3)
    records = [r for step in trace.inner_reports for r in step]
    assert len(records) == 3
    assert all(r.solution is None and r.residual_history is None for r in records)
    A = picard_assemble(trace.final)
    rep = gmres_solve(A, picard_forcing(), trace.final, TerminationCriterion("rel", 1e-1))
    assert rep.solution.shape == (N,)
    assert len(rep.residual_history) == rep.iterations + 1

