import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import inexactfp
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


def test_solve_direct_nested_lists():
    assert_allclose(solve_direct([[2, 1], [1, 3]], [1, 2]), [0.2, 0.6], rtol=1e-15)
    with pytest.raises(DimensionMismatchError):
        solve_direct([[1, 2, 3], [4, 5, 6]], [1, 2])


_LAZY_SOLVERS_SCRIPT = textwrap.dedent("""
    import sys

    import numpy as np

    from inexactfp.experiments import ExperimentConfig, run_experiment
    from inexactfp.linalg import SingularMatrixError, solve_direct

    run_experiment(ExperimentConfig(experiment="picard", taus=[1e-1]))
    run_experiment(ExperimentConfig(experiment="scalar-direct", gammas=[0.3]))
    # the transmission oracle is a sine transform, not a direct solve
    run_experiment(ExperimentConfig(experiment="transmission-error", dxs=[0.1]))
    loaded = [m for m in ("scipy.linalg", "scipy.sparse.linalg") if m in sys.modules]
    assert not loaded, loaded

    M = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert np.allclose(solve_direct(M, np.array([1.0, 2.0])), [0.2, 0.6])
    try:
        solve_direct(0.0 * M, np.ones(2))
    except SingularMatrixError:
        pass
    else:
        raise AssertionError("no SingularMatrixError")
""")


def test_direct_solvers_load_on_first_direct_solve():
    # pytest has loaded scipy.linalg already, so this runs in a fresh interpreter
    src = str(Path(inexactfp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", _LAZY_SOLVERS_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
