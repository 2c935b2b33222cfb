import dataclasses
import hashlib
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose
from scipy.sparse.linalg import splu

from inexactfp.experiments import export_field_csvs
from inexactfp.fixedpoint import Termination
from inexactfp.krylov import TerminationCriterion, _as_apply, cg_solve, norm2
from inexactfp.problems import (
    DnState,
    dn_iterate,
    dn_step,
    exact_solution,
    field_grids,
    solution_errors,
    transmission_assemble,
)
from inexactfp.problems import transmission
from inexactfp.problems.transmission import _five_point, default_forcing


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
    sym_gap = abs(matrix - matrix.T).tocsr()  # A is DIA, which has no max()
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
        rhs[idx_mono(i, j)] = -f(1.0 if i == n else i * h, j * h)
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
    assert sys10.monolithic_solution().shape == (9, 19)  # the (m, 2m + 1) grid


def test_exact_solution_samples():
    assert exact_solution(1.0, 0.5) == pytest.approx(0.70710678, abs=1e-8)
    # zero on the outer boundary
    for x, y in [(0.0, 0.3), (2.0, 0.7), (0.5, 0.0), (1.5, 1.0)]:
        assert exact_solution(x, y) == pytest.approx(0.0, abs=1e-12)


def test_blocks_symmetric_and_spd(sys10):
    for M in (sys10.A, sys10.B):
        gap = abs(M - M.T).tocsr()
        assert gap.nnz == 0 or gap.max() == 0.0
        assert spd_spot_check(M)
        # CG converges on a generic rhs: the practical SPD certificate
        n = M.shape[0]
        rep = cg_solve(M, np.ones(n), np.zeros(n), TerminationCriterion("abs", 1e-10),
                       max_iter=4 * n)
        assert rep.converged


# at n = 49, n * (1/n) rounds below 1 and the interface forcing is sampled
# at x = 1 itself
@pytest.mark.parametrize("n", [10, 49])
def test_monolithic_consistency_of_blocks(n):
    # the stacked blocks reproduce the monolithic residual exactly at the
    # monolithic solution
    sys_ = transmission_assemble(1.0 / n)
    state = DnState.from_monolithic(sys_)
    u_gamma = sys_.interface(state.u2)
    r1 = sys_.A @ state.u1 - sys_.b1(u_gamma)
    r2 = sys_.B @ state.u2 - sys_.b2(sys_.coupling_column(state.u1))
    assert norm2(r1) <= 1e-10 * norm2(sys_.b1(u_gamma))
    assert norm2(r2) <= 1e-10 * norm2(sys_.b2(sys_.coupling_column(state.u1)))


def test_dn_step_fixed_point_property(sys10):
    state = DnState.from_monolithic(sys10)
    new_state, (rep1, rep2) = dn_step(sys10, state, TerminationCriterion("abs", 1e-13))
    assert_allclose(sys10.interface(new_state.u2), sys10.interface(state.u2), atol=1e-9)
    assert rep1.converged and rep2.converged


def test_dn_step_zero_forcing_zero_fixed_point(sys10):
    sys0 = dataclasses.replace(
        sys10, f_omega1=np.zeros(sys10.n1), f_block2=np.zeros(sys10.n2)
    )
    state = DnState(np.zeros(sys0.n1), np.zeros(sys0.n2))
    new_state, (rep1, rep2) = dn_step(sys0, state, TerminationCriterion("abs", 1e-13))
    assert norm2(sys0.interface(new_state.u2)) == 0.0
    assert rep1.iterations == 0 and rep2.iterations == 0


def test_dn_step_matches_direct_solve_oracle(sys10):
    # one sweep from zero interface data, replayed with dense direct solves
    state = DnState(np.zeros(sys10.n1), np.zeros(sys10.n2))
    new_state, _ = dn_step(sys10, state, TerminationCriterion("abs", 1e-13))
    u1 = np.linalg.solve(sys10.A.toarray(), sys10.b1(np.zeros(sys10.interface_count)))
    u2 = np.linalg.solve(sys10.B.toarray(), sys10.b2(sys10.coupling_column(state.u1)))
    assert_allclose(new_state.u2, u2, atol=1e-8)
    assert_allclose(new_state.u1, u1, atol=1e-8)


def test_dn_step_rejects_unknown_inner_guess(sys10):
    with pytest.raises(ValueError, match="inner_guess"):
        dn_step(sys10, DnState(np.zeros(sys10.n1), np.zeros(sys10.n2)),
                TerminationCriterion("abs", 1e-6), inner_guess="previuos")


def test_dn_iterate_relative_criterion_exact(sys10):
    trace = dn_iterate(sys10, TerminationCriterion("rel", 1e-2), tol=1e-14)
    err_gamma, err_full = solution_errors(sys10, trace.state)
    assert trace.terminated_by is Termination.INCREMENT_BELOW_TOL
    assert err_gamma <= 1e-10
    assert 84 <= trace.steps <= 126  # reference: 105 sweeps at this mesh


def test_dn_iterate_absolute_criterion_plateau(sys10):
    trace = dn_iterate(sys10, TerminationCriterion("abs", 1e-2), tol=1e-14)
    _, err_full = solution_errors(sys10, trace.state)
    assert err_full == pytest.approx(7.727e-4, rel=2.0)  # within factor 3


def test_dn_iterate_relative_from_previous_iterate_exact_at_loose_tau(sys10):
    # the paper's headline at its edge: the relative rule from the previous
    # iterate converges at tau = 0.9 too (measured: 5.5e-13 after 198 sweeps)
    trace = dn_iterate(sys10, TerminationCriterion("rel", 0.9), tol=1e-14)
    err_gamma, _ = solution_errors(sys10, trace.state)
    assert trace.terminated_by is Termination.INCREMENT_BELOW_TOL
    assert err_gamma <= 1e-9


def test_dn_iterate_relative_from_zero_guess_stalls_at_loose_tau(sys10):
    # the same rule from a zero inner guess is not the paper's criterion: it
    # stops on a small increment far from the solution (measured: interface
    # error 0.96, full error 3.90 after 81 sweeps)
    trace = dn_iterate(sys10, TerminationCriterion("rel", 0.9), tol=1e-14, inner_guess="zero")
    err_gamma, _ = solution_errors(sys10, trace.state)
    assert trace.terminated_by is Termination.INCREMENT_BELOW_TOL
    assert err_gamma > 1e-1


def test_monolithic_equivalence_tight_absolute():
    for dx in (0.1, 0.05):
        sys_ = transmission_assemble(dx)
        trace = dn_iterate(sys_, TerminationCriterion("abs", 1e-13), tol=1e-12)
        err_gamma, _ = solution_errors(sys_, trace.state)
        assert err_gamma <= 1e-9


def test_second_order_convergence():
    errors = [transmission_assemble(dx).discretization_max_error()
              for dx in (0.1, 0.05, 0.025)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 <= coarse / fine <= 4.5
    assert errors[0] <= 2.5e-2  # sanity band at dx = 1/10


def test_field_grids_cover_grid_with_boundary(sys10):
    x, y, exact, discrete = field_grids(sys10.dx, sys10.monolithic_solution())
    n = sys10.n_cells
    assert x.shape == y.shape == exact.shape == discrete.shape == (n + 1, 2 * n + 1)
    assert (x[0, 0], y[0, 0]) == (0.0, 0.0) and exact[0, 0] == 0.0
    assert (x[n // 2, n], y[n // 2, n]) == pytest.approx((1.0, 0.5))
    assert exact[n // 2, n] == pytest.approx(0.70710678, abs=1e-8)
    assert (x[n, 2 * n], y[n, 2 * n]) == pytest.approx((2.0, 1.0))
    assert discrete[n, 2 * n] == 0.0
    for edge in (discrete[0], discrete[n], discrete[:, 0], discrete[:, 2 * n]):
        assert np.all(edge == 0.0)
    # discrete field approximates the exact one away from the boundary
    assert discrete[n // 2, n] == pytest.approx(0.70710678, abs=3e-2)


def test_assemble_rejects_bad_dx():
    for dx in (0.3, 0.0, -0.5, 1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="1/dx must be a positive integer"):
            transmission_assemble(dx)


# at n = 49, n * (1/n) rounds below 1, so the interface forcing must be
# sampled at x = 1 itself; n = 20 and 40 are the grids the benchmark runs
@pytest.mark.parametrize("n", [2, 3, 4, 10, 20, 40, 49])
def test_stencil_matches_per_node_reference(n):
    sys_ = transmission_assemble(1.0 / n)
    ref = per_node_reference(n, lambda x, y: float(default_forcing(x, y)))
    for name in ("A", "B"):
        got, want = getattr(sys_, name).tocsr(), ref[name]
        assert got.shape == want.shape, name
        # same CSR arrays and index dtypes: sorted column indices and no
        # stored zeros (A is DIA; its conversion drops the zeros stored at
        # the grid row ends)
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, part), getattr(want, part), err_msg=name)
            assert getattr(got, part).dtype == getattr(want, part).dtype, (name, part)
    # A's diagonals, stored zeros included, are those of the reference's DIA
    want = ref["A"].todia()
    for part in ("offsets", "data"):
        got_part, want_part = getattr(sys_.A, part), getattr(want, part)
        assert got_part.dtype == want_part.dtype and got_part.tobytes() == want_part.tobytes()
    for name in ("f_omega1", "f_block2"):
        np.testing.assert_array_equal(getattr(sys_, name), ref[name], err_msg=name)


@pytest.mark.parametrize("rows, cols", list(itertools.product([1, 2, 3, 5], repeat=2)))
def test_five_point_matches_dense_loops(rows, cols):
    ih2 = 9.0
    size = rows * cols
    want = np.zeros((size, size))
    for j, i in itertools.product(range(rows), range(cols)):
        want[j * cols + i, j * cols + i] = 4 * ih2
        for jj, ii in ((j - 1, i), (j, i - 1), (j, i + 1), (j + 1, i)):
            if 0 <= jj < rows and 0 <= ii < cols:
                want[j * cols + i, jj * cols + ii] = -ih2
    got = _five_point(rows, cols, ih2)
    assert got.format == "dia"
    np.testing.assert_array_equal(got.toarray(), want)
    # strictly ascending offsets, exactly the diagonals holding a nonzero
    nonempty = [k for k in range(1 - size, size) if np.diagonal(want, k).any()]
    assert got.offsets.tolist() == nonempty
    assert got.tocsr().nnz == np.count_nonzero(want)


@pytest.mark.parametrize("n", [2, 3, 4, 10, 49, 80])
def test_dia_block_is_bitwise_the_csr_laplacian_product(n):
    sys_ = transmission_assemble(1.0 / n)
    A, csr = sys_.A, sys_.A.tocsr()
    assert A.format == "dia"
    assert np.all(np.diff(A.offsets) > 0)
    apply_op = _as_apply(A)
    rng = np.random.default_rng(n)
    size = A.shape[0]
    v = rng.normal(size=size) * 10.0 ** rng.integers(-8, 9, size=size)
    v[::7] = 0.0
    v[3::7] = -0.0
    for w in (v, -v, np.full(size, -0.0), np.ones(size)):
        assert (A @ w).tobytes() == (csr @ w).tobytes()
        assert apply_op(w).tobytes() == (csr @ w).tobytes()


# sha256 of each assembled array's dtype, shape and bytes at the benchmark's
# mesh grids (its seeds shift n = 80 and 160 by up to one cell; the per-node
# reference test stops at n = 49), then of the two field CSVs at n = 80
ASSEMBLY_ARRAYS = ("A.offsets", "A.data", "B.indptr", "B.indices", "B.data",
                   "f_omega1", "f_block2")
ASSEMBLY_DIGESTS = {
    79: ["5a591f06f4281ef5a18bacce97b623d6d74149ab1169f75285a7a7d5ae7146a6",
         "615ba556153af8e6d5d17e7cc4361b9ac18373808c3d1aaa1d911a5b1c99a9a4",
         "9a806ef59c16a1fa41d30682eed612ab53221f32f21e97c87f19f78def347de4",
         "1830f4ed93cb255b44ad94a61d9156644153153dcd88f254cd6df55c0e1361fa",
         "8d6bed0b4e5515fb2fb779613083a2f0d78d439dcd9c968eaf67fe26e5ce9182",
         "f26f4f018d71384bbcaee91413ac55906e7b4030abaec5d968ae7809cfc279c5",
         "ec22d0c1bc9b6934b0fe7ef7ec7ffa15da2ace0c256387ba89c475763599fc16"],
    80: ["54fb980dbbac7fb6fd1bce9c75517a49e325807bf5d09e9d58a346dfe5c4b744",
         "7a7ae662db0ec963ed89ff0c8098d8cd43cbdffadf169d74ec47a130b83468ba",
         "389a74fb2a631e58b7fb54fb54ad7dadbec3b34f8071e4c715787c3662dc30ed",
         "5fad74b36fbbd77d22962e7215f0cad6d75be59a3a50dd1142fbce688137fb4a",
         "ea5d94ee607f51539daa22b0c945b9ac9daaa4190108c27ca77d5b739d8caabf",
         "4a0d5c59873b197a36c0c7f41721d3750f9d7539d1f44076a4e15763729f8127",
         "2abebcee1c054eb274c006dcba8f958714e49dcf10a0261ac2e5cc702583527c"],
    81: ["548b04bf1af0101a29249c04dc84e7d15e91801dac026dc3ebb4cd1fafb67428",
         "f042c0cb948dc4a318c64990c2e99d02a3ffefb2fe531624dd1f681d01a90e43",
         "67c53ec1ead1a19b5d18c9e19a077ff495e0ffc3a349591269ac481321208f5e",
         "cfbb084759aab0af2d88aed5a810539accb45f40c08119adaa3f811eeedd6b8a",
         "53ec90ab3505203e88357938715d737b6f72aa14d1f78b6f78cee15b9cab9351",
         "a87878b71fd571549287f4684907cf27462173444dbc34d48ce19224b7966d2a",
         "c83024db94384709e2245deb3d632cf9567794827dbe926dce85cbae5b6935a5"],
    160: ["044d20f0d1668d8e6198f1fb3549a95be41d97200dda6066df9473b36c34b842",
          "859842ecda85d79d32a0c50b6383266c38de5562624fdcf459865224f5b191dd",
          "f3aafdf272fe91d21369a68e13d06c9a3cd5ff042af84b02f137bc89a04701e8",
          "a1710c4b056eb539ee053929f87f38e111ffb556c06e0abd685598d092fae71e",
          "2bcf8ab4fb4b4f175e637cb0be1e51f45c97b51a31bae1470e684c1d1471f017",
          "bdfc9e4d5ae264549b82a17db6d4d0152cc623b312f38b47269ca04d6127cebf",
          "c0d33160629577fcf727293813042641a664e31e7f7d8ca0c32648fb3d11cec2"],
}
FIELD_CSV_DIGESTS_80 = [
    "28e11d500d8cd0d02b38c27c558a762cfc738d370960a82027a1d20ed65e13b7",
    "fd22c8a783ff8b2f7f6ed8901901aaac5e57643539e7510b847ed44437aa8caa",
]


def array_digest(a):
    a = np.ascontiguousarray(a)
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()


def test_benchmark_grid_assembly_and_export_bytes_pinned(tmp_path):
    for n, digests in ASSEMBLY_DIGESTS.items():
        sys_ = transmission_assemble(1.0 / n)
        arrays = (sys_.A.offsets, sys_.A.data, sys_.B.indptr, sys_.B.indices,
                  sys_.B.data, sys_.f_omega1, sys_.f_block2)
        got = {name: array_digest(a) for name, a in zip(ASSEMBLY_ARRAYS, arrays)}
        assert got == dict(zip(ASSEMBLY_ARRAYS, digests)), n
    paths = export_field_csvs(1 / 80, str(tmp_path / "p_"))
    assert [hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths] == FIELD_CSV_DIGESTS_80


# sha256 of both field CSVs at the edge grids of the export: n = 2 has a
# one-point transform axis, at n = 49 n * (1/n) rounds below 1, and n = 160
# is the benchmark's fine grid
FIELD_CSV_DIGESTS = {
    2: ["f79861b3167ef57a6ffe8c06015e0e13fe9ef7c54dc67511d691e8f89775e685",
        "4c46bcd2a8962b93268c69e0979c585d5e3588b5cc86bf227611fa6fc7c9df24"],
    49: ["6c5604a62222746bc1de58823c91e4a74b8b209395525d39f54c98b9e3920104",
         "1685e5c7acd249d721b36ad688ee534437544a7e01f0bf5420e8f89d12fa4876"],
    160: ["242c08f4a2a1e3e5428b010a8625816c01773c435a0179b657fce3a125fa3dd8",
          "3852a58bb40e4e4927bb8beaba0434af79582c281ea70950d3e802558af82205"],
}


@pytest.mark.parametrize("n", sorted(FIELD_CSV_DIGESTS))
def test_export_bytes_pinned_at_edge_grids(n, tmp_path):
    paths = export_field_csvs(1 / n, str(tmp_path / "p_"))
    assert [hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths] == FIELD_CSV_DIGESTS[n]


def test_export_assembles_no_operator(tmp_path, monkeypatch):
    # the exported discrete field is the oracle, solved from the mesh alone
    def refuse(*args):
        raise AssertionError("export_field_csvs assembled an operator")

    monkeypatch.setattr(transmission, "_five_point", refuse)
    paths = export_field_csvs(1 / 10, str(tmp_path / "p_"))
    assert [hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths] == [
        "c4c00067680170a332f2bff7a8522d9df43882a09490cbd37d28346f1745631c",
        "d112d60f1c85893665adf9c52f7379e7d697b8286e37c19b0d66a24b9691a248",
    ]


# outer sweeps and CG iterations at dx = 1/20; a last-bit change in the
# matvec or the CG updates can move them. The abs run ends on a Neumann
# solve of 0 iterations; the rel run's late solves stop at the float64 floor
@pytest.mark.parametrize("criterion, terminated_by, steps, cg_iterations", [
    (TerminationCriterion("abs", 1e-2), Termination.INNER_STAGNATION, 60, 2930),
    (TerminationCriterion("rel", 1e-1), Termination.INCREMENT_BELOW_TOL, 197, 5325),
], ids=["abs-1e-2", "rel-1e-1"])
def test_dn_work_counters_pinned(criterion, terminated_by, steps, cg_iterations):
    trace = dn_iterate(transmission_assemble(1 / 20), criterion, tol=1e-14)
    assert trace.terminated_by is terminated_by
    assert trace.steps == steps
    assert trace.total_inner_iterations == cg_iterations


def test_dn_trace_records_carry_no_vectors():
    sys_ = transmission_assemble(1 / 10)
    trace = dn_iterate(sys_, TerminationCriterion("abs", 1e-4), tol=1e-8)
    records = [r for step in trace.inner_reports for r in step]
    assert len(records) == 2 * trace.steps
    assert all(r.solution is None and r.residual_history is None for r in records)
    rep = cg_solve(sys_.A, sys_.b1(sys_.interface(trace.state.u2)), np.zeros(sys_.n1),
                   TerminationCriterion("abs", 1e-4))
    assert rep.solution.shape == (sys_.n1,)
    assert len(rep.residual_history) == rep.iterations + 1


def test_dn_trace_memory_per_sweep_below_one_vector():
    # a zero-guess relb run at dx = 1/20 plateaus and runs to its sweep cap;
    # what the trace holds per extra sweep must stay below one Omega1 vector
    sys_ = transmission_assemble(1 / 20)
    held = []
    for max_iter in (100, 200):
        tracemalloc.start()
        try:
            trace = dn_iterate(sys_, TerminationCriterion("relb", 1e-1), tol=1e-14,
                               max_iter=max_iter, inner_guess="zero")
            held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert trace.steps == max_iter
        del trace
    assert (held[1] - held[0]) / 100 < sys_.n1 * 8


@pytest.mark.parametrize("n", [2, 3, 10])
def test_oracle_state_round_trips_to_monolithic(n):
    sys_ = transmission_assemble(1.0 / n)
    state = DnState.from_monolithic(sys_)
    full = sys_.assemble_full(state.u1, state.u2)
    assert full.tobytes() == sys_.monolithic_solution().tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 49])
def test_sine_transform_oracle_matches_sparse_lu(n):
    # n = 2 gives a length-1 transform axis; the reference assembles the
    # monolithic system node by node, in the grid's row-major order
    ref = per_node_reference(n, lambda x, y: float(default_forcing(x, y)))
    M, b = ref["monolithic"], ref["monolithic_rhs"]
    grid = transmission_assemble(1.0 / n).monolithic_solution()
    assert grid.shape == (n - 1, 2 * n - 1)
    u = grid.ravel()
    assert np.abs(u - splu(M.tocsc()).solve(b)).max() <= 1e-12
    m_inf = abs(M).sum(axis=1).max()
    assert norm2(M @ u - b) <= 1e-10 * (m_inf * norm2(u) + norm2(b))


# sha256 of the oracle's bytes at the benchmark's mesh grids (its seeds draw
# n from 79, 80, 81 and twice that), flattened so that its shape does not
# enter: the LU comparison above has a tolerance and the field CSVs print 7
# digits, so only this pins the oracle's bits
ORACLE_DIGESTS = {
    79: "a9e69cfad24dcc6bcaf710511dc5ec104747e8649e475924bceeaf394a9077ca",
    80: "d5e0206d1d8339a47fc02920d04219beb09fb45ac2ddd1a4bda19b384daaf302",
    81: "969a5cb1f7a6b122f7f3ed7dc8b4da28a15a01055d1ff934026897d2baadb811",
    158: "33895976ef5a01bb38fc977a7c1496dcb5be68095438511a852193cc0797614e",
    160: "87f15fb976521ba4bf82bd3ddd90a0ac05eb8021b2732dc6f1a0eac6df2fa291",
    162: "cea4e1a6a7987a5b3486d910cc04d8e5c7a1d8aac3271ad07f24e4a2b6274775",
}


@pytest.mark.parametrize("n", sorted(ORACLE_DIGESTS))
def test_oracle_bytes_pinned(n):
    u = transmission_assemble(1.0 / n).monolithic_solution()
    digest = hashlib.sha256(np.ascontiguousarray(u).ravel().tobytes()).hexdigest()
    assert digest == ORACLE_DIGESTS[n]
