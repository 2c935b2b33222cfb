import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from inexactfp.linalg import (
    DimensionMismatchError,
    SingularMatrixError,
    norm2,
    solve_direct,
)


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


def test_solve_direct_identity():
    assert_allclose(solve_direct(np.eye(2), np.array([4.0, 9.0])), [4.0, 9.0])


def test_solve_direct_diagonal():
    assert_allclose(solve_direct(np.diag([2.0, 4.0]), np.array([2.0, 2.0])), [1.0, 0.5])


def test_solve_direct_coupled_2x2():
    # (I - AB) x = b with alpha = beta = 0.1; elimination by hand gives
    # x1 = 1/0.99 and x2 = (1 + 0.000101 * x1) / 0.999999
    A = np.array([[0.1, 0.0], [0.001, 0.001]])
    B = np.array([[0.1, 0.0], [0.001, 0.001]])
    x = solve_direct(np.eye(2) - A @ B, np.ones(2))
    x1 = 1.0 / 0.99
    x2 = (1.0 + 0.000101 * x1) / 0.999999
    assert_allclose(x, [x1, x2], rtol=1e-13)


def test_solve_direct_residual_contract():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = rng.integers(2, 25)
        M = rng.normal(size=(n, n)) + n * np.eye(n)  # well conditioned
        b = rng.normal(size=n)
        x = solve_direct(M, b)
        resid = norm2(M @ x - b)
        assert resid <= 1e-10 * (norm2(M @ x) + norm2(b) + norm2(x))


def test_solve_direct_singular_names_pivot():
    M = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
    with pytest.raises(SingularMatrixError) as err:
        solve_direct(M, np.ones(2))
    assert err.value.pivot_index == 1


def test_solve_direct_near_singular_names_pivot():
    # LAPACK factors this without complaint (U[1, 1] = 1.1e-15 is not zero);
    # the 1e-13 * ||M||_inf pivot test flags it
    M = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    with pytest.raises(SingularMatrixError) as err:
        solve_direct(M, np.ones(2))
    assert err.value.pivot_index == 1


def test_solve_direct_sparse_matches_dense():
    rng = np.random.default_rng(4)
    M = rng.normal(size=(12, 12)) + 12 * np.eye(12)
    b = rng.normal(size=12)
    assert_allclose(solve_direct(sp.csr_matrix(M), b), solve_direct(M, b), rtol=1e-10)


def test_solve_direct_nested_lists():
    assert_allclose(solve_direct([[2, 1], [1, 3]], [1, 2]), [0.2, 0.6], rtol=1e-15)
    with pytest.raises(DimensionMismatchError):
        solve_direct([[1, 2, 3], [4, 5, 6]], [1, 2])
