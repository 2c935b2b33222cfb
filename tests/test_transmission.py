import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from inexactfp.fixedpoint import Termination
from inexactfp.krylov import absolute, cg_solve, relative_to_initial
from inexactfp.linalg import norm2, solve_direct
from inexactfp.problems import (
    DnState,
    default_forcing,
    dn_iterate,
    dn_step,
    exact_solution,
    field_rows,
    solution_errors,
    transmission_assemble,
)


def spd_spot_check(matrix: sp.csr_matrix, probes: int = 3) -> bool:
    """Cheap positive-definiteness check: Rayleigh quotients of a few power
    steps stay positive and the matrix is exactly symmetric."""
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


def per_node_reference(n, f):
    """Node-by-node five-point assembly of (A, B, monolithic) and their
    forcing vectors, in the block orderings of ``TransmissionSystem``."""
    h = 1.0 / n
    m = n - 1
    ih2 = 1.0 / h**2

    def idx1(i, j):
        return (j - 1) * m + (i - 1)

    def idx_b(i, j):  # interface (i = n) first, then the Omega2 interior
        return j - 1 if i == n else m + (j - 1) * m + (i - n - 1)

    def idx_mono(i, j):
        return (j - 1) * (2 * n - 1) + (i - 1)

    def assemble(nodes, index):
        """Five-point rows over ``nodes``; neighbours outside them are data."""
        rows, cols, vals = [], [], []
        for i, j in nodes:
            k = index(i, j)
            rows.append(k); cols.append(k); vals.append(4.0 * ih2)
            for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if nb in nodes:
                    rows.append(k); cols.append(index(*nb)); vals.append(-ih2)
        size = len(nodes)
        return sp.csr_matrix((vals, (rows, cols)), shape=(size, size))

    omega1 = {(i, j) for j in range(1, n) for i in range(1, n)}
    block2 = {(i, j) for j in range(1, n) for i in range(n, 2 * n)}
    strip = {(i, j) for j in range(1, n) for i in range(1, 2 * n)}
    f1, f2, rhs = np.empty(m * m), np.empty(m + m * m), np.empty(len(strip))
    for i, j in omega1:
        f1[idx1(i, j)] = f(i * h, j * h)
    for i, j in block2:
        f2[idx_b(i, j)] = f(1.0 if i == n else i * h, j * h)
    for i, j in strip:
        rhs[idx_mono(i, j)] = -f(i * h, j * h)
    return {
        "A": assemble(omega1, idx1),
        "B": assemble(block2, idx_b),
        "monolithic": assemble(strip, idx_mono),
        "f_omega1": f1,
        "f_block2": f2,
        "monolithic_rhs": rhs,
    }


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
    err_gamma, err_full = solution_errors(sys10, trace.state)
    assert trace.terminated_by is Termination.INCREMENT_BELOW_TOL
    assert err_gamma <= 1e-10
    assert 84 <= trace.steps <= 126  # reference: 105 sweeps at this mesh


def test_dn_iterate_absolute_criterion_plateau(sys10):
    trace = dn_iterate(sys10, absolute(1e-2), tol=1e-14)
    _, err_full = solution_errors(sys10, trace.state)
    assert err_full == pytest.approx(7.727e-4, rel=2.0)  # within factor 3


def test_monolithic_equivalence_tight_absolute():
    for dx in (0.1, 0.05):
        sys_ = transmission_assemble(dx)
        trace = dn_iterate(sys_, absolute(1e-13), tol=1e-12)
        err_gamma, _ = solution_errors(sys_, trace.state)
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


# at n = 49, n * (1/n) rounds below 1, so the interface forcing must be
# sampled at x = 1 itself
@pytest.mark.parametrize("n", [2, 3, 4, 10, 49])
def test_stencil_matches_per_node_reference(n):
    sys_ = transmission_assemble(1.0 / n)
    ref = per_node_reference(n, lambda x, y: float(default_forcing(x, y)))
    for name in ("A", "B", "monolithic"):
        got, want = getattr(sys_, name), ref[name]
        assert got.shape == want.shape, name
        # same CSR arrays: sorted column indices and no stored zeros
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, part), getattr(want, part), err_msg=name)
    for name in ("f_omega1", "f_block2", "monolithic_rhs"):
        np.testing.assert_array_equal(getattr(sys_, name), ref[name], err_msg=name)


@pytest.mark.parametrize("n", [2, 3, 10])
def test_oracle_state_round_trips_to_monolithic(n):
    sys_ = transmission_assemble(1.0 / n)
    state = DnState.from_monolithic(sys_)
    full = sys_.assemble_full(state.u1, state.u2)
    assert full.tobytes() == sys_.monolithic_solution().tobytes()
    np.testing.assert_array_equal(state.u_gamma, state.u2[: sys_.interface_count])


def test_scalar_forcing_broadcasts():
    sys_ = transmission_assemble(0.25, forcing=lambda x, y: 2.0)
    assert sys_.f_omega1.shape == (sys_.n1,) and sys_.f_block2.shape == (sys_.n2,)
    assert np.all(sys_.f_omega1 == 2.0) and np.all(sys_.f_block2 == 2.0)
    assert np.all(sys_.monolithic_rhs == -2.0)
