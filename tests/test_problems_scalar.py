import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from inexactfp.fixedpoint import iterate_plain
from inexactfp.problems import (
    NestedScalarSpec,
    ScalarMapSpec,
    linear_nested,
    nested_local_derivatives,
    nested_scalar,
    scalar_map,
)


@pytest.mark.parametrize(
    "gamma,L",
    [(0.3, 0.101239), (1.145, 0.899524), (1.2, 0.996035)],
)
def test_scalar_map_lipschitz_labels(gamma, L):
    _, lip = scalar_map(ScalarMapSpec(gamma))
    assert isinstance(lip, float)
    assert lip == pytest.approx(L, abs=5e-7)


def test_scalar_map_evaluates():
    f, _ = scalar_map(ScalarMapSpec(0.3))
    assert f(0.0) == pytest.approx(0.25)
    assert f(1.0) == pytest.approx(math.exp(0.3) / 4)


def test_nested_spec_from_lipschitz():
    spec = NestedScalarSpec.from_lipschitz(0.9, 0.99)
    assert spec.gamma1 == pytest.approx(3.6 / math.e, rel=1e-12)
    assert spec.gamma2 == pytest.approx(0.495, rel=1e-12)
    assert spec.L_S == pytest.approx(0.9, rel=1e-12)
    assert spec.L_F == pytest.approx(0.99, rel=1e-12)


def test_nested_zero_edge():
    S, F, L_S, L_F = nested_scalar(NestedScalarSpec(0.0, 0.0))
    assert S(F(0.7)) == 0.0
    assert L_S == 0.0 and L_F == 0.0


def test_nested_local_derivatives():
    spec = NestedScalarSpec.from_lipschitz(0.9, 0.99)
    S, F, _, _ = nested_scalar(spec)
    x_star = float(iterate_plain(lambda x: S(F(x)), 0.5, tol=1e-14).final[0])
    dS, dF = nested_local_derivatives(spec, x_star)
    # finite difference oracle at the fixed point
    h = 1e-7
    assert dS == pytest.approx((S(x_star + h) - S(x_star - h)) / (2 * h), rel=1e-6)
    assert dF == pytest.approx((F(x_star + h) - F(x_star - h)) / (2 * h), rel=1e-6)


def test_linear_nested_fixed_point():
    problem = linear_nested(0.1, 0.1)
    x1 = 1.0 / 0.99
    x2 = (1.0 + 0.000101 * x1) / 0.999999
    assert_allclose(problem.x_star, [x1, x2], rtol=1e-12)
    assert_allclose(problem.S(problem.F(problem.x_star)), problem.x_star, rtol=1e-12)


def test_linear_nested_matrix_entries():
    problem = linear_nested(0.9, 0.99)
    assert_allclose(problem.A, [[0.9, 0.0], [0.001, 0.001]], rtol=0)
    assert_allclose(problem.B, [[0.99, 0.0], [0.001, 0.001]], rtol=0)
    assert_allclose(problem.b, [1.0, 1.0], rtol=0)


def test_linear_nested_spectral_norms():
    problem = linear_nested(0.1, 0.1)
    svd_norm = np.linalg.svd(problem.A, compute_uv=False)[0]
    assert problem.L_S == pytest.approx(svd_norm, rel=1e-12)
    assert svd_norm > 0.1  # slightly above alpha


def test_linear_nested_zero_edge():
    problem = linear_nested(0.0, 0.0)
    assert_allclose(problem.x_star, [1.0, 1.0], atol=1e-5)
