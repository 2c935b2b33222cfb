import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from inexactfp.fixedpoint import iterate_plain
from inexactfp.problems import (
    linear_nested,
    nested_local_derivatives,
    nested_scalar,
    scalar_map,
)
from inexactfp.problems.linear import OFF_DIAGONAL


@pytest.mark.parametrize(
    "gamma,L",
    [(0.3, 0.101239), (1.145, 0.899524), (1.2, 0.996035)],
)
def test_scalar_map_lipschitz_labels(gamma, L):
    _, lip = scalar_map(gamma)
    assert isinstance(lip, float)
    assert lip == pytest.approx(L, abs=5e-7)


@pytest.mark.parametrize("gamma", [0.0, -0.3, math.nan])
def test_scalar_map_rejects_nonpositive_gamma(gamma):
    with pytest.raises(ValueError, match="gamma must be positive"):
        scalar_map(gamma)


def test_scalar_map_evaluates():
    f, _ = scalar_map(0.3)
    assert f(0.0) == pytest.approx(0.25)
    assert f(1.0) == pytest.approx(math.exp(0.3) / 4)


def test_nested_scalar_slopes_at_one():
    # S and F are increasing and convex on [0, 1], so their slopes at x = 1
    # are the Lipschitz constants they were built from
    S, F = nested_scalar(0.9, 0.99)
    h = 1e-7
    assert (S(1.0 + h) - S(1.0 - h)) / (2 * h) == pytest.approx(0.9, rel=1e-6)
    assert (F(1.0 + h) - F(1.0 - h)) / (2 * h) == pytest.approx(0.99, rel=1e-6)


def test_nested_zero_edge():
    S, F = nested_scalar(0.0, 0.0)
    assert S(F(0.7)) == 0.0


def test_nested_local_derivatives():
    S, F = nested_scalar(0.9, 0.99)
    x_star = float(iterate_plain(lambda x: S(F(x)), 0.5, tol=1e-14).final[0])
    dS, dF = nested_local_derivatives(0.9, 0.99, x_star)
    # finite difference oracle at the fixed point
    h = 1e-7
    assert dS == pytest.approx((S(x_star + h) - S(x_star - h)) / (2 * h), rel=1e-6)
    assert dF == pytest.approx((F(x_star + h) - F(x_star - h)) / (2 * h), rel=1e-6)


def documented_matrix(p):
    return np.array([[p, 0.0], [OFF_DIAGONAL, OFF_DIAGONAL]])


def linear_part(g):
    """The matrix of an affine map g, column by column."""
    return np.column_stack([g(e) - g(np.zeros(2)) for e in np.eye(2)])


def test_linear_nested_fixed_point():
    S, F, x_star = linear_nested(0.1, 0.1)
    x1 = 1.0 / 0.99
    x2 = (1.0 + 0.000101 * x1) / 0.999999
    assert_allclose(x_star, [x1, x2], rtol=1e-12)
    assert_allclose(S(F(x_star)), x_star, rtol=1e-12)


def test_linear_nested_fixed_point_is_the_direct_solve():
    # (I - AB) x = b with alpha = beta = 0.1; elimination by hand gives
    # x1 = 1/0.99 and x2 = (1 + 0.000101 * x1) / 0.999999. linear_nested's
    # fixed point is this direct solve, bit for bit
    A = np.array([[0.1, 0.0], [0.001, 0.001]])
    B = np.array([[0.1, 0.0], [0.001, 0.001]])
    x = np.linalg.solve(np.eye(2) - A @ B, np.ones(2))
    x1 = 1.0 / 0.99
    x2 = (1.0 + 0.000101 * x1) / 0.999999
    assert_allclose(x, [x1, x2], rtol=1e-13)
    assert linear_nested(0.1, 0.1)[2].tobytes() == x.tobytes()


def test_linear_nested_exactly_singular_raises():
    # alpha = beta = 1 makes I - AB exactly singular; the CLI never gets here
    with pytest.raises(np.linalg.LinAlgError):
        linear_nested(1.0, 1.0)


def test_linear_nested_matrix_entries():
    # S(x) = A x + b and F(x) = B x with A, B the documented matrices and
    # b = (1, 1): each unit vector picks out a column, bit for bit
    assert OFF_DIAGONAL == 0.001
    S, F, _ = linear_nested(0.9, 0.99)
    A, B = documented_matrix(0.9), documented_matrix(0.99)
    assert S(np.zeros(2)).tobytes() == np.array([1.0, 1.0]).tobytes()
    assert F(np.zeros(2)).tobytes() == np.zeros(2).tobytes()
    for i, e in enumerate(np.eye(2)):
        assert S(e).tobytes() == (A[:, i] + 1.0).tobytes()
        assert F(e).tobytes() == B[:, i].tobytes()


def test_linear_nested_spectral_norms():
    S, F, _ = linear_nested(0.1, 0.1)
    for matrix, p in ((linear_part(S), 0.1), (linear_part(F), 0.1)):
        svd_norm = np.linalg.svd(matrix, compute_uv=False)[0]
        assert p < svd_norm < p + 1e-4  # slightly above alpha resp. beta


def test_linear_nested_zero_edge():
    _, _, x_star = linear_nested(0.0, 0.0)
    assert_allclose(x_star, [1.0, 1.0], atol=1e-5)
