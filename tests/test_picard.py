import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from inexactfp.fixedpoint import Termination
from inexactfp.krylov import TerminationCriterion, gmres_solve
from inexactfp.linalg import norm2
from inexactfp.problems import (
    PicardProblemSpec,
    picard_assemble,
    picard_forcing,
    picard_iterate,
)

SPEC = PicardProblemSpec(n=64, viscosity=1e-2)


def test_assemble_zero_velocity_is_symmetric_laplacian():
    spec = PicardProblemSpec(n=8, viscosity=0.5)
    A = picard_assemble(spec, np.zeros(8))
    dense = A.toarray()
    assert_allclose(dense, dense.T, rtol=0)
    assert_allclose(np.diag(dense), 2 * 0.5 / spec.h**2, rtol=1e-14)


def test_assemble_manufactured_solution_exact_for_zero_velocity():
    # quadratic solution, three-point stencil: the discrete solve is exact
    spec = PicardProblemSpec(n=3, viscosity=1.0)
    A = picard_assemble(spec, np.zeros(3))
    u = np.linalg.solve(A.toarray(), A @ spec.exact_solution())
    assert_allclose(u, spec.exact_solution(), rtol=1e-12)


def test_assemble_upwind_diagonal_nonnegative():
    spec = PicardProblemSpec(n=10, viscosity=1e-2)
    rng = np.random.default_rng(5)
    x = rng.normal(size=10)
    A = picard_assemble(spec, x)
    diffusion = picard_assemble(spec, np.zeros(10))
    convection = (A - diffusion).toarray()
    assert np.all(np.diag(convection) >= 0)
    # upwind direction follows the velocity sign
    for i in range(10):
        if x[i] >= 0 and i > 0:
            assert convection[i, i - 1] <= 0 and convection[i, min(i + 1, 9)] >= -1e-15
        if x[i] < 0 and i < 9:
            assert convection[i, i + 1] <= 0


def diags_reference(spec, x):
    """A(x) built with sp.diags, the reference for the direct CSR build."""
    h, nu = spec.h, spec.viscosity
    main = 2.0 * nu / h**2 + np.abs(x) / h
    lower = -nu / h**2 - np.where(x[1:] >= 0.0, x[1:], 0.0) / h
    upper = -nu / h**2 + np.where(x[:-1] >= 0.0, 0.0, x[:-1]) / h
    return sp.diags([lower, main, upper], [-1, 0, 1], format="csr")


@pytest.mark.parametrize("n", [1, 2, 3, 64, 200])
def test_assemble_csr_arrays_bitwise_equal_to_diags(n):
    spec = PicardProblemSpec(n=n, viscosity=1e-2)
    rng = np.random.default_rng(n)
    x = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
    x[::4] = 0.0
    x[1::4] = -0.0
    for field in (x, -x, np.zeros(n), np.full(n, -0.0)):
        A = picard_assemble(spec, field)
        ref = diags_reference(spec, field)
        assert A.shape == ref.shape
        for part in ("indptr", "indices", "data"):
            got, want = getattr(A, part), getattr(ref, part)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), part


def test_forcing_fixed_point_property():
    b = picard_forcing(SPEC)
    A = picard_assemble(SPEC, SPEC.exact_solution())
    assert norm2(A @ SPEC.exact_solution() - b) == 0.0


def test_relative_criterion_converges_for_loose_tau():
    loose = picard_iterate(SPEC, TerminationCriterion("rel", 1e-1), tol=1e-12)
    tight = picard_iterate(SPEC, TerminationCriterion("rel", 1e-12), tol=1e-12)
    assert loose.residuals[-1] <= 1e-12
    assert tight.residuals[-1] <= 1e-12
    assert_allclose(loose.final, tight.final, atol=1e-10)
    # the work counter pins the GMRES arithmetic bit for bit: a last-bit
    # change in the Givens rotations (math.hypot for np.hypot) gives 96 steps
    # and 4,498 GMRES iterations
    assert loose.steps == 95
    assert loose.total_inner_iterations == 4415


def test_absolute_criterion_plateaus():
    trace = picard_iterate(SPEC, TerminationCriterion("abs", 1e-3), tol=1e-12)
    assert trace.terminated_by is Termination.INNER_STAGNATION
    assert 1e-5 <= trace.residuals[-1] <= 1e-2


def test_max_iter_caps_outer_steps():
    trace = picard_iterate(SPEC, TerminationCriterion("rel", 1e-1), tol=1e-12, max_iter=3)
    assert trace.terminated_by is Termination.MAX_ITER
    assert trace.steps == 3
    assert len(trace.residuals) == 3


def test_trace_records_carry_no_vectors():
    trace = picard_iterate(SPEC, TerminationCriterion("rel", 1e-1), tol=1e-12, max_iter=3)
    records = [r for step in trace.inner_reports for r in step]
    assert len(records) == 3
    assert all(r.solution is None and r.residual_history is None for r in records)
    A = picard_assemble(SPEC, trace.final)
    rep = gmres_solve(A, picard_forcing(SPEC), trace.final, TerminationCriterion("rel", 1e-1))
    assert rep.solution.shape == (SPEC.n,)
    assert len(rep.residual_history) == rep.iterations + 1


def test_spec_validation():
    with pytest.raises(ValueError):
        PicardProblemSpec(n=0, viscosity=1.0)
    with pytest.raises(ValueError):
        PicardProblemSpec(n=4, viscosity=0.0)
    with pytest.raises(ValueError):
        picard_assemble(SPEC, np.zeros(3))
