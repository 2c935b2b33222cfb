import numpy as np
import pytest
from numpy.testing import assert_allclose

from inexactfp.fixedpoint import Termination
from inexactfp.krylov import absolute, cg_solve, relative_to_initial
from inexactfp.linalg import norm2, solve_direct
from inexactfp.problems import (
    DnState,
    dn_iterate,
    dn_step,
    exact_solution,
    field_rows,
    solution_errors,
    spd_spot_check,
    transmission_assemble,
)


@pytest.fixture(scope="module")
def sys10():
    return transmission_assemble(0.1)


def test_block_sizes(sys10):
    # dx = 1/10: 9 interface unknowns, 81 Dirichlet-block unknowns,
    # 90 Neumann-block unknowns (9x9 interior + 9 interface)
    assert sys10.interface_count == 9
    assert sys10.A.shape == (81, 81)
    assert sys10.B.shape == (90, 90)
    assert sys10.monolithic.shape == (171, 171)


def test_exact_solution_samples():
    assert exact_solution(1.0, 0.5) == pytest.approx(0.70710678, abs=1e-8)
    # zero on the outer boundary
    for x, y in [(0.0, 0.3), (2.0, 0.7), (0.5, 0.0), (1.5, 1.0)]:
        assert exact_solution(x, y) == pytest.approx(0.0, abs=1e-12)


def test_blocks_symmetric_and_spd(sys10):
    for M in (sys10.A, sys10.B, sys10.monolithic):
        gap = abs(M - M.T)
        assert gap.nnz == 0 or gap.max() == 0.0
        assert spd_spot_check(M)
        # CG converges on a generic rhs: the practical SPD certificate
        rep = cg_solve(M, np.ones(M.shape[0]), np.zeros(M.shape[0]), absolute(1e-10),
                       max_iter=4 * M.shape[0])
        assert rep.converged


def test_monolithic_consistency_of_blocks(sys10):
    # the stacked blocks reproduce the monolithic residual exactly at the
    # monolithic solution
    state = DnState.from_monolithic(sys10)
    r1 = sys10.A @ state.u1 - sys10.b1(state.u_gamma)
    r2 = sys10.B @ state.u2 - sys10.b2(sys10.coupling_column(state.u1))
    assert norm2(r1) <= 1e-10 * norm2(sys10.b1(state.u_gamma))
    assert norm2(r2) <= 1e-10 * norm2(sys10.b2(sys10.coupling_column(state.u1)))


def test_dn_step_fixed_point_property(sys10):
    state = DnState.from_monolithic(sys10)
    new_state, (rep1, rep2) = dn_step(sys10, state, absolute(1e-13))
    assert_allclose(new_state.u_gamma, state.u_gamma, atol=1e-9)
    assert rep1.converged and rep2.converged


def test_dn_step_zero_forcing_zero_fixed_point():
    sys0 = transmission_assemble(0.1, forcing=lambda x, y: 0.0)
    state = DnState.zeros(sys0)
    new_state, (rep1, rep2) = dn_step(sys0, state, absolute(1e-13))
    assert norm2(new_state.u_gamma) == 0.0
    assert rep1.iterations == 0 and rep2.iterations == 0


def test_dn_step_matches_direct_solve_oracle(sys10):
    # one sweep from zero interface data, replayed with dense direct solves
    state = DnState.zeros(sys10)
    new_state, _ = dn_step(sys10, state, absolute(1e-13))
    u1 = solve_direct(sys10.A.toarray(), sys10.b1(state.u_gamma))
    u2 = solve_direct(sys10.B.toarray(), sys10.b2(sys10.coupling_column(state.u1)))
    assert_allclose(new_state.u_gamma, u2[: sys10.interface_count], atol=1e-8)
    assert_allclose(new_state.u1, u1, atol=1e-8)


def test_dn_step_rejects_unknown_inner_guess(sys10):
    with pytest.raises(ValueError, match="inner_guess"):
        dn_step(sys10, DnState.zeros(sys10), absolute(1e-6), inner_guess="previuos")


def test_dn_iterate_relative_criterion_exact(sys10):
    trace = dn_iterate(sys10, relative_to_initial(1e-2), tol=1e-14)
    err_gamma, err_full = solution_errors(sys10, trace.dn_state)
    assert trace.terminated_by is Termination.INCREMENT_BELOW_TOL
    assert err_gamma <= 1e-10
    assert 84 <= trace.steps <= 126  # reference: 105 sweeps at this mesh


def test_dn_iterate_absolute_criterion_plateau(sys10):
    trace = dn_iterate(sys10, absolute(1e-2), tol=1e-14)
    _, err_full = solution_errors(sys10, trace.dn_state)
    assert err_full == pytest.approx(7.727e-4, rel=2.0)  # within factor 3


def test_monolithic_equivalence_tight_absolute():
    for dx in (0.1, 0.05):
        sys_ = transmission_assemble(dx)
        trace = dn_iterate(sys_, absolute(1e-13), tol=1e-12)
        err_gamma, _ = solution_errors(sys_, trace.dn_state)
        assert err_gamma <= 1e-9


def test_second_order_convergence():
    errors = [transmission_assemble(dx).discretization_max_error()
              for dx in (0.1, 0.05, 0.025)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 <= coarse / fine <= 4.5
    assert errors[0] <= 2.5e-2  # sanity band at dx = 1/10


def test_field_rows_cover_grid_with_boundary(sys10):
    rows = list(field_rows(sys10, "exact"))
    n = sys10.n_cells
    assert len(rows) == (2 * n + 1) * (n + 1)
    values = {(round(x, 10), round(y, 10)): v for x, y, v in rows}
    assert values[(0.0, 0.0)] == 0.0
    assert values[(1.0, 0.5)] == pytest.approx(0.70710678, abs=1e-8)
    discrete = dict(
        ((round(x, 10), round(y, 10)), v) for x, y, v in field_rows(sys10, "discrete")
    )
    assert discrete[(2.0, 1.0)] == 0.0
    # discrete field approximates the exact one away from the boundary
    assert discrete[(1.0, 0.5)] == pytest.approx(0.70710678, abs=3e-2)


def test_assemble_rejects_bad_dx():
    with pytest.raises(ValueError):
        transmission_assemble(0.3)
