import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from inexactfp.linalg import norm2
from inexactfp.problems.linear import linear_nested


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
