import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from inexactfp.fixedpoint import (
    NotAContractionError,
    PerturbationSchedule,
    Termination,
    bound_direct,
    bound_nested,
    iterate_nested,
    iterate_perturbed,
    iterate_plain,
    _drive,
)
from inexactfp.krylov import DRIFT_GUARD_FACTOR, TerminationCriterion, cg_solve, gmres_solve, norm2
from inexactfp.problems import (
    dn_iterate,
    linear_nested,
    nested_scalar,
    picard_iterate,
    transmission_assemble,
)
from inexactfp.problems.linear import OFF_DIAGONAL


def halving(x):
    return x / 2


def scalar_exp(gamma):
    return lambda x: np.exp(gamma * x) / 4


def documented_matrix(p):
    """A resp. B of linear_nested(alpha, beta), with p = alpha resp. beta."""
    return np.array([[p, 0.0], [OFF_DIAGONAL, OFF_DIAGONAL]])


# ---------------------------------------------------------------------------
# plain iteration
# ---------------------------------------------------------------------------

def test_plain_halving_map():
    trace = iterate_plain(halving, 1.0, tol=1e-14)
    assert trace.terminated_by is Termination.INCREMENT_BELOW_TOL
    assert abs(trace.final[0]) <= 1e-13
    ratios = [trace.increments[i + 1] / trace.increments[i]
              for i in range(len(trace.increments) - 2)]
    assert_allclose(ratios, 0.5, rtol=1e-10)


def test_plain_scalar_exp_fixed_point():
    f = scalar_exp(0.3)
    # oracle: 200 raw applications of the map
    x = 0.5
    for _ in range(200):
        x = f(x)
    trace = iterate_plain(f, 0.5, tol=1e-14)
    assert trace.final[0] == pytest.approx(x, abs=1e-13)
    # root of x - e^(0.3 x)/4, cross-checked with scipy brentq
    assert trace.final[0] == pytest.approx(0.2711894791, abs=1e-7)


def test_plain_affine_map_matches_direct_solve():
    S, F, x_star = linear_nested(0.1, 0.1)
    trace = iterate_plain(lambda x: S(F(x)), np.zeros(2), tol=1e-15)
    assert_allclose(trace.final, x_star, atol=1e-12)


def test_plain_divergence_flagged():
    trace = iterate_plain(lambda x: 3.0 * x, 1.0, tol=1e-14, max_iter=200)
    assert trace.terminated_by is Termination.DIVERGED


def test_divergence_judged_against_the_first_increment():
    # a first increment of 1e20 sets the run's scale; geometric growth from
    # there is still stopped, by the growth test before any overflow
    trace = iterate_plain(lambda x: 10.0 * x + 1e20, 0.0, tol=1e-14, max_iter=200)
    assert trace.terminated_by is Termination.DIVERGED
    assert trace.increments[0] == 1e20
    assert 1 < trace.steps < 200
    assert np.all(np.isfinite(trace.final))


def test_large_constant_perturbation_is_not_divergence():
    # the run behind `linear-nested --alphas 0.5 --betas 0.5 --eps 1e100`: a
    # contraction whose first increment is far above DIVERGENCE_LIMIT
    S, F, x_star = linear_nested(0.5, 0.5)
    sched = PerturbationSchedule(1e100)
    trace = iterate_nested(S, F, sched, sched, np.zeros(2), tol=1e-14)
    assert trace.terminated_by is Termination.INCREMENT_BELOW_TOL
    assert trace.steps > 1
    assert norm2(trace.final - x_star) <= bound_nested(1e100, 1e100, 0.5, 0.5)


# the per-step contraction inequality carries a 1e-8 relative slack, so it
# is only checkable while increments sit well above the ~1e-15 noise floor;
# tol=1e-7 keeps every tested increment meaningful.

def test_plain_increment_contraction_property():
    for gamma in (0.3, 1.145, 1.2):
        f = scalar_exp(gamma)
        L = gamma * np.exp(gamma) / 4
        trace = iterate_plain(f, 0.5, tol=1e-7)
        incs = trace.increments
        assert all(
            incs[k + 1] <= L * incs[k] * (1 + 1e-8) for k in range(len(incs) - 1)
        )


def test_plain_increment_contraction_affine():
    S, F, _ = linear_nested(0.9, 0.9)
    L = float(np.linalg.norm(documented_matrix(0.9) @ documented_matrix(0.9), 2))
    incs = iterate_plain(lambda x: S(F(x)), np.zeros(2), tol=1e-7).increments
    assert all(incs[k + 1] <= L * incs[k] * (1 + 1e-8) for k in range(len(incs) - 1))


@pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan])
def test_nonpositive_tol_rejected(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        iterate_plain(lambda x: 0.5 * x, 1.0, tol=tol)


ABS = TerminationCriterion("abs", 1e-8)


@pytest.mark.parametrize("call", [
    lambda: cg_solve(np.eye(2), np.ones(2), np.zeros(2), ABS, max_iter=-1),
    lambda: gmres_solve(np.eye(2), np.ones(2), np.zeros(2), ABS, max_iter=-1),
    lambda: iterate_plain(halving, 1.0, tol=1e-8, max_iter=-1),
    lambda: iterate_perturbed(halving, PerturbationSchedule(0.0), 1.0, tol=1e-8, max_iter=-1),
    lambda: iterate_nested(halving, halving, PerturbationSchedule(0.0), PerturbationSchedule(0.0),
                           1.0, tol=1e-8, max_iter=-1),
    lambda: dn_iterate(transmission_assemble(0.25), ABS, tol=1e-8, max_iter=-1),
    lambda: picard_iterate(ABS, tol=1e-8, max_iter=-1),
    lambda: PerturbationSchedule(-1e-2),
    lambda: PerturbationSchedule(math.inf),
    lambda: PerturbationSchedule(1e-2, -0.5),
    lambda: PerturbationSchedule(1e-2, math.nan),
    lambda: PerturbationSchedule.adaptive(math.nan, 0.5),
], ids=["cg-cap", "gmres-cap", "plain-cap", "perturbed-cap", "nested-cap", "dn-cap",
        "picard-cap", "negative-magnitude", "infinite-magnitude", "negative-decay",
        "nan-decay", "adaptive-nan-c"])
def test_library_rejects_negative_caps_and_bad_schedules(call):
    # max_iter=0 stays legal: a run of no steps
    with pytest.raises(ValueError, match="must be nonnegative"):
        call()


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_schedule_none_is_zero():
    s = PerturbationSchedule(0.0)
    assert norm2(s.vector(3, 4)) == 0.0


def test_schedule_constant_norm_and_direction():
    s = PerturbationSchedule(0.2)
    v = s.vector(0, 9)
    assert norm2(v) == pytest.approx(0.2, rel=1e-12)
    assert np.all(v > 0)  # all-ones direction by default


def test_schedule_vectors_exact():
    # eps_k = magnitude0 * decay**k along ones/sqrt(size), with no rounding
    # beyond that: a length-1 iterate gets the magnitude itself
    for m in (0.0, 1e-1, 3.7e-5, 2.5):
        for k in (0, 1, 7, 500):
            assert PerturbationSchedule(m).vector(k, 1).tolist() == [m]
            assert PerturbationSchedule(m).vector(k, 2).tolist() == [
                m / np.sqrt(2.0)
            ] * 2
            adaptive = PerturbationSchedule.adaptive(m, 0.9)
            assert adaptive.vector(k, 1).tolist() == [m * 0.9**k]


def test_schedule_adaptive_decay():
    s = PerturbationSchedule.adaptive(1e-2, 0.5)
    assert s.magnitude(0) == pytest.approx(1e-2)
    assert s.magnitude(3) == pytest.approx(1e-2 * 0.125)
    with pytest.raises(ValueError):
        PerturbationSchedule.adaptive(1e-2, 1.0)


# ---------------------------------------------------------------------------
# perturbed iteration
# ---------------------------------------------------------------------------

def test_perturbed_none_equals_plain():
    f = halving
    plain = iterate_plain(f, 1.0, tol=1e-14)
    pert = iterate_perturbed(f, PerturbationSchedule(0.0), 1.0, tol=1e-14)
    assert plain.increments == pert.increments
    assert plain.final.tobytes() == pert.final.tobytes()


def test_perturbed_constant_matches_reference_value():
    f = scalar_exp(0.3)
    x_star = iterate_plain(f, 0.5, tol=1e-14).final
    sched = PerturbationSchedule(1e-2)
    trace = iterate_perturbed(f, sched, 0.5, tol=1e-14)
    err = abs(trace.final - x_star)[0]
    assert err == pytest.approx(1.089e-2, rel=0.01)


def test_perturbed_adaptive_reaches_exact_solution():
    f = scalar_exp(0.3)
    L = 0.3 * np.exp(0.3) / 4
    x_star = iterate_plain(f, 0.5, tol=1e-15).final
    sched = PerturbationSchedule.adaptive(1e-2, L)
    trace = iterate_perturbed(f, sched, 0.5, tol=1e-15)
    assert abs(trace.final - x_star)[0] <= 1e-12


# ---------------------------------------------------------------------------
# nested iteration
# ---------------------------------------------------------------------------

def test_nested_identity_maps_stay_put():
    ident = lambda x: x
    zero = PerturbationSchedule(0.0)
    trace = iterate_nested(ident, ident, zero, zero, np.array([2.0, -1.0]), tol=1e-14)
    assert trace.steps == 1
    assert trace.increments[0] == 0.0


def test_nested_linear_2x2_reference_band():
    S, F, x_star = linear_nested(0.1, 0.1)
    sched = PerturbationSchedule(1e-1)
    trace = iterate_nested(S, F, sched, sched, np.zeros(2), tol=1e-14)
    err = norm2(trace.final - x_star)
    assert 0.9 * 1.058e-1 <= err <= 1.25 * 1.058e-1


def test_nested_scalar_reference_cell():
    S, F = nested_scalar(0.9, 0.99)
    x_star = iterate_plain(lambda x: S(F(x)), 0.5, tol=1e-14).final
    sched = PerturbationSchedule(1e-1)
    trace = iterate_nested(S, F, sched, sched, 0.5, tol=1e-14)
    err = abs(trace.final - x_star)[0]
    assert err == pytest.approx(1.658e-1, rel=0.01)


# ---------------------------------------------------------------------------
# error bounds
# ---------------------------------------------------------------------------

def test_bound_direct_values():
    assert bound_direct(0.0, 0.3) == 0.0
    assert bound_direct(1e-2, 0.9) == pytest.approx(0.1, rel=1e-12)
    assert bound_direct(1e-1, 0.101239) == pytest.approx(0.111264, rel=1e-5)
    assert bound_direct(1e-2, 0.0) == 1e-2  # L = 0 is a contraction
    for L in (1.0, -0.1, math.nan):
        with pytest.raises(NotAContractionError):
            bound_direct(1e-2, L)
    for eps in (-1e-2, math.nan):
        with pytest.raises(ValueError):
            bound_direct(eps, 0.5)


def test_bound_nested_values():
    assert bound_nested(0.1, 0.1, 0.1, 0.1) == pytest.approx(1.111111e-1, rel=1e-6)
    assert bound_nested(0.1, 0.1, 0.99, 0.99) == pytest.approx(10.0, rel=1e-6)
    assert bound_nested(0.1, 0.1, 0.9, 0.9) == pytest.approx(1.0, rel=1e-6)
    assert bound_nested(0.1, 0.1, 0.0, 0.9) == pytest.approx(0.1, rel=1e-12)
    for L_S, L_F in ((1.0, 1.0), (0.1, -5.0), (-0.1, 0.5), (math.nan, 0.5), (0.5, math.nan)):
        with pytest.raises(NotAContractionError):
            bound_nested(0.1, 0.1, L_S, L_F)
    for eps, delta in ((-0.1, 0.1), (0.1, -0.1), (math.nan, 0.1), (0.1, math.nan)):
        with pytest.raises(ValueError):
            bound_nested(eps, delta, 0.5, 0.5)


def test_direct_bound_dominates_measured_error():
    for gamma in (0.3, 1.145, 1.2):
        f = scalar_exp(gamma)
        L = gamma * np.exp(gamma) / 4
        x_star = iterate_plain(f, 0.5, tol=1e-14).final
        for eps in (1e-1, 1e-2, 1e-3):
            sched = PerturbationSchedule(eps)
            trace = iterate_perturbed(f, sched, 0.5, tol=1e-14)
            err = abs(trace.final - x_star)[0]
            assert err <= bound_direct(eps, L) + 1e-10


ADAPTIVE_LIMIT_CASES = [
    pytest.param(0.3, id="gamma=0.3"),
    pytest.param(1.145, id="gamma=1.145"),
    pytest.param(
        1.2,
        id="gamma=1.2",
        marks=pytest.mark.xfail(
            strict=True,
            reason="intrinsic limit: the schedule decays at the global L=0.996 "
            "while the outer tolerance cuts off at 1e-12, leaving an error of "
            "about TOL * L/(1-L) = 250*TOL > 100*TOL",
        ),
    ),
]


@pytest.mark.parametrize("gamma", ADAPTIVE_LIMIT_CASES)
def test_adaptive_schedule_recovers_exact_scalar(gamma):
    f = scalar_exp(gamma)
    L = gamma * np.exp(gamma) / 4
    x_star = iterate_plain(f, 0.5, tol=1e-14).final
    sched = PerturbationSchedule.adaptive(1e-2, L)
    trace = iterate_perturbed(f, sched, 0.5, tol=1e-12)
    assert abs(trace.final - x_star)[0] <= 100 * 1e-12


@pytest.mark.parametrize("alpha,beta", [(0.1, 0.1), (0.9, 0.9), (0.99, 0.99)])
def test_adaptive_schedule_recovers_exact_2x2(alpha, beta):
    S, F, x_star = linear_nested(alpha, beta)
    L = float(np.linalg.norm(documented_matrix(alpha) @ documented_matrix(beta), 2))
    sched = PerturbationSchedule.adaptive(1e-2, L)
    trace = iterate_perturbed(lambda x: S(F(x)), sched, np.zeros(2), tol=1e-12)
    assert norm2(trace.final - x_star) <= 100 * 1e-12


@pytest.mark.parametrize("alpha,beta", [(0.1, 0.1), (0.9, 0.9), (0.9, 0.99)])
def test_nested_per_step_geometric_series_bound(alpha, beta):
    # brute-force accumulation of the per-step bound
    # (Ls Lf)^{k+1} ||x0 - x*|| + sum_j (Ls Lf)^j (Ls eps + delta)
    S, F, x_star = linear_nested(alpha, beta)
    L_S = np.linalg.norm(documented_matrix(alpha), 2)
    L_F = np.linalg.norm(documented_matrix(beta), 2)
    eps = 1e-1
    sched = PerturbationSchedule(eps)
    # the trace keeps only its last iterate: record each one as S returns
    # it, plus the delta_k the driver adds, the same operations bit for bit
    iterates = [np.zeros(2)]

    def recorded_S(x):
        y = S(x)
        iterates.append(y + sched.vector(len(iterates) - 1, 2))
        return y

    trace = iterate_nested(recorded_S, F, sched, sched, np.zeros(2), tol=1e-14)
    assert len(iterates) == trace.steps + 1
    assert iterates[-1].tobytes() == trace.final.tobytes()
    e0 = norm2(iterates[0] - x_star)
    rho = L_S * L_F
    for k in range(trace.steps):
        partial = sum(rho**j * (L_S * eps + eps) for j in range(k + 1))
        bound_k = rho ** (k + 1) * e0 + partial
        err_k = norm2(iterates[k + 1] - x_star)
        assert err_k <= bound_k + 1e-10


def test_nested_bound_dominates_measured_error():
    for L_S in (0.1, 0.9, 0.99):
        for L_F in (0.1, 0.9, 0.99):
            S, F = nested_scalar(L_S, L_F)
            x_star = iterate_plain(lambda x: S(F(x)), 0.5, tol=1e-14).final
            sched = PerturbationSchedule(1e-1)
            trace = iterate_nested(S, F, sched, sched, 0.5, tol=1e-14)
            err = abs(trace.final - x_star)[0]
            assert err <= bound_nested(1e-1, 1e-1, L_S, L_F) + 1e-10


# ---------------------------------------------------------------------------
# the bounds on drawn linear contractions
# ---------------------------------------------------------------------------

BOUND_TOL = 1e-10


def linear_contraction(rng, n, L):
    """x -> M x + c with ||M||_2 = L, as (M, c)."""
    G = rng.normal(size=(n, n))
    return L * G / np.linalg.norm(G, 2), rng.normal(size=n)


def unit_vector(rng, n):
    v = rng.normal(size=n)
    return v / norm2(v)


def bound_slack(q, x_star):
    """What the bounds leave out: the increment test stops within
    BOUND_TOL q/(1 - q) of the perturbed fixed point, plus rounding."""
    return BOUND_TOL * q / (1.0 - q) + 1e-12 * (1.0 + norm2(x_star))


@settings(max_examples=60, deadline=None, database=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), L=st.floats(0.0, 0.95),
       eps=st.floats(0.0, 1.0))
def test_direct_bound_holds_on_drawn_linear_contractions(n, seed, L, eps):
    rng = np.random.default_rng(seed)
    M, c = linear_contraction(rng, n, L)
    e = eps * unit_vector(rng, n)
    x_star = np.linalg.solve(np.eye(n) - M, c)
    trace = iterate_plain(lambda x: M @ x + c + e, np.zeros(n), BOUND_TOL)
    assert trace.terminated_by is Termination.INCREMENT_BELOW_TOL
    err = norm2(trace.final - x_star)
    assert err <= bound_direct(eps, L) + bound_slack(L, x_star)


@settings(max_examples=60, deadline=None, database=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), L_S=st.floats(0.1, 2.0),
       q=st.floats(0.0, 0.95), eps=st.floats(0.0, 1.0), delta=st.floats(0.0, 1.0))
def test_nested_bound_holds_on_drawn_linear_contractions(n, seed, L_S, q, eps, delta):
    # L_S may exceed 1: the theorem asks only that L_S L_F < 1
    L_F = q / L_S
    rng = np.random.default_rng(seed)
    M_S, c_S = linear_contraction(rng, n, L_S)
    M_F, c_F = linear_contraction(rng, n, L_F)
    e, d = eps * unit_vector(rng, n), delta * unit_vector(rng, n)
    x_star = np.linalg.solve(np.eye(n) - M_S @ M_F, M_S @ c_F + c_S)
    # the drawn perturbations enter through the maps; the schedules, whose
    # direction is the all-ones vector, add zero
    none = PerturbationSchedule(0.0)
    trace = iterate_nested(lambda z: M_S @ z + c_S + d, lambda x: M_F @ x + c_F + e,
                           none, none, np.zeros(n), BOUND_TOL)
    assert trace.terminated_by is Termination.INCREMENT_BELOW_TOL
    err = norm2(trace.final - x_star)
    assert err <= bound_nested(eps, delta, L_S, L_F) + bound_slack(L_S * L_F, x_star)


@settings(max_examples=60, deadline=None, database=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), L_S=st.floats(0.1, 2.0),
       q=st.floats(0.0, 0.95), eps=st.floats(0.0, 1.0), delta=st.floats(0.0, 1.0))
def test_nested_per_step_bound_holds_with_fresh_drawn_perturbations(n, seed, L_S, q, eps,
                                                                     delta):
    # e_k and d_k of norms eps and delta in a new drawn direction at every
    # step: ||x_k - x*|| <= rho^k ||x_0 - x*|| + (L_S eps + delta)(1 - rho^k)/(1 - rho)
    L_F = q / L_S
    rng = np.random.default_rng(seed)
    M_S, c_S = linear_contraction(rng, n, L_S)
    M_F, c_F = linear_contraction(rng, n, L_F)
    x_star = np.linalg.solve(np.eye(n) - M_S @ M_F, M_S @ c_F + c_S)
    iterates = [np.zeros(n)]

    def S(z):
        iterates.append(M_S @ z + c_S + delta * unit_vector(rng, n))
        return iterates[-1]

    # the increments stay near the perturbations, so most runs end at max_iter
    none = PerturbationSchedule(0.0)
    trace = iterate_nested(S, lambda x: M_F @ x + c_F + eps * unit_vector(rng, n),
                           none, none, np.zeros(n), BOUND_TOL, max_iter=200)
    assert len(iterates) == trace.steps + 1
    assert np.array_equal(iterates[-1], trace.final)  # the schedules add zero
    rho, k = L_S * L_F, np.arange(len(iterates))
    errors = np.array([norm2(x - x_star) for x in iterates])
    bound = (rho**k * errors[0] + (L_S * eps + delta) * (1 - rho**k) / (1 - rho)
             + 1e-12 * (1 + norm2(x_star)))
    assert np.all(errors <= bound)


# ---------------------------------------------------------------------------
# inexact inner solves: x -> solve(A, B x + c) with ||A^-1 B||_2 = L
# ---------------------------------------------------------------------------

INNER_SOLVERS = [cg_solve, gmres_solve]
OUTER_TOL = 1e-12


def inner_solve_problem(n, seed, L, kappa):
    """SPD A with spectrum in [1, kappa], B = A M with ||M||_2 = L, and c
    making a drawn unit vector x* the fixed point, as (A, B, c, x*)."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    A = (Q * np.r_[1.0, 1.0 + (kappa - 1.0) * rng.random(n - 1)]) @ Q.T
    M, _ = linear_contraction(rng, n, L)
    B = A @ M
    x_star = unit_vector(rng, n)
    return A, B, A @ x_star - B @ x_star, x_star


def iterate_inner_solves(solver, A, B, c, criterion):
    """The outer iteration, each step one inner solve from the current iterate."""
    def step(x, k):
        rep = solver(A, B @ x + c, x, criterion)
        return rep.solution, [rep], None

    return _drive(step, np.zeros(len(c)), OUTER_TOL, 2000)


@pytest.mark.parametrize("solver", INNER_SOLVERS, ids=["cg", "gmres"])
@settings(max_examples=50, deadline=None, database=None)
@given(n=st.integers(4, 40), seed=st.integers(0, 2**32 - 1), L=st.floats(0.1, 0.95),
       kappa=st.floats(1.0, 10.0), shrink=st.floats(0.0, 6.0))
def test_rel_inner_solves_reach_the_fixed_point_property(solver, n, seed, L, kappa, shrink):
    # a rel solve from x leaves an error of at most rho ||T x - x||, with
    # rho = DRIFT_GUARD_FACTOR tau cond(A), so x -> T x + e(x) contracts by
    # L + rho (1 + L) <= (1 + L) / 2 for the tau drawn here: the iteration
    # reaches x* up to OUTER_TOL and rounding, far below 1e-8
    A, B, c, x_star = inner_solve_problem(n, seed, L, kappa)
    tau = 0.5 * (1.0 - L) / (DRIFT_GUARD_FACTOR * kappa * (1.0 + L)) * 10.0**-shrink
    trace = iterate_inner_solves(solver, A, B, c, TerminationCriterion("rel", tau))
    assert norm2(trace.final - x_star) < 1e-8 * norm2(x_star)


@pytest.mark.parametrize("solver", INNER_SOLVERS, ids=["cg", "gmres"])
@settings(max_examples=50, deadline=None, database=None)
@given(n=st.integers(4, 40), seed=st.integers(0, 2**32 - 1), L=st.floats(0.1, 0.95),
       kappa=st.floats(1.0, 10.0), kind=st.sampled_from(["abs", "relb"]),
       exponent=st.floats(-10.0, -2.0))
def test_abs_and_relb_inner_solves_stay_within_the_direct_bound_property(
        solver, n, seed, L, kappa, kind, exponent):
    # a converged solve has a true residual within DRIFT_GUARD_FACTOR of its
    # threshold, so its error is at most eps = DRIFT_GUARD_FACTOR threshold
    # ||A^-1||; the step that ends the run then gives ||x - x*|| <=
    # (eps + L inc) / (1 - L) = bound_direct(eps, L) + L inc / (1 - L)
    A, B, c, x_star = inner_solve_problem(n, seed, L, kappa)
    trace = iterate_inner_solves(solver, A, B, c, TerminationCriterion(kind, 10.0**exponent))
    last = trace.inner_reports[-1][-1]
    assert last.converged
    eps = DRIFT_GUARD_FACTOR * last.threshold * np.linalg.norm(np.linalg.inv(A), 2)
    slack = L * trace.increments[-1] / (1.0 - L) + 1e-12 * (1.0 + norm2(x_star))
    assert norm2(trace.final - x_star) <= bound_direct(eps, L) + slack
