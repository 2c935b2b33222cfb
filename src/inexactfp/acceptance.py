"""Acceptance suite: every reproduction target as a pass/fail check.

Expected values are pinned as module constants. Four pinned entries
correct obvious exponent misprints in the source data; the corrections
follow from the exact proportionality in epsilon and from the bound
formula and are marked below. Heavy runs are cached so overlapping
criteria share them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fixedpoint import (
    PerturbationSchedule,
    Termination,
    bound_direct,
    bound_nested,
    iterate_nested,
    iterate_perturbed,
    iterate_plain,
)
from .krylov import absolute, cg_solve, evaluate_criterion, gmres_solve, relative_to_initial
from .linalg import norm2, solve_direct
from .problems import (
    NestedScalarSpec,
    PicardProblemSpec,
    ScalarMapSpec,
    dn_iterate,
    linear_nested,
    nested_scalar,
    picard_iterate,
    scalar_map,
    solution_errors,
    transmission_assemble,
)
from .experiments import make_criterion

# ---------------------------------------------------------------------------
# frozen reference values
# ---------------------------------------------------------------------------

# |x_eps - x*| for x = e^(gamma x)/4, constant positive perturbation
SCALAR_DIRECT_REFERENCE = {
    0.3: {1e-1: 1.090e-1, 1e-2: 1.089e-2, 1e-3: 1.089e-3},
    1.145: {1e-1: 2.016e-1, 1e-2: 1.827e-2, 1e-3: 1.813e-3},
    1.2: {1e-1: 2.290e-1, 1e-2: 1.981e-2, 1e-3: 1.961e-3},
}

# nested 2x2 estimates eps (1 + a) / (1 - a b); the (1e-1, 0.99, 0.9) entry
# is misprinted as 1.826e-1 in the source and must be 1.826e-0 (exact
# proportionality in eps; the 1e-2 block has 1.826e-1)
LINEAR_NESTED_BOUND_REFERENCE = {
    (0.1, 0.1): 1.111e-1, (0.1, 0.9): 1.209e-1, (0.1, 0.99): 1.221e-1,
    (0.9, 0.1): 2.0879e-1, (0.9, 0.9): 1.000e-0, (0.9, 0.99): 1.743e-0,
    (0.99, 0.1): 2.209e-1, (0.99, 0.9): 1.826e-0, (0.99, 0.99): 1.000e+1,
}

# measured lines at eps = 1e-1; other eps blocks scale exactly (three source
# cells are misprinted: (1e-1, 0.99, 0.9) as 1.293e-1 and the
# (1e-3, 0.9, 0.99) / (1e-3, 0.99, 0.9) entries one decade low)
LINEAR_NESTED_MEASURED_BASE = {
    (0.1, 0.1): 1.058e-1, (0.1, 0.9): 1.111e-1, (0.1, 0.99): 1.117e-1,
    (0.9, 0.1): 1.638e-1, (0.9, 0.9): 7.107e-1, (0.9, 0.99): 1.235e-0,
    (0.99, 0.1): 1.715e-1, (0.99, 0.9): 1.293e-0, (0.99, 0.99): 7.071e-0,
}

NESTED_EPS_VALUES = (1e-1, 1e-2, 1e-3)
NESTED_LS_VALUES = (0.1, 0.9, 0.99)
NESTED_LF_VALUES = (0.01, 0.1, 0.9, 0.99)

# global-estimate lines of the nested scalar problem, all 36 printed cells
SCALAR_NESTED_GLOBAL_REFERENCE = {
    1e-1: {
        0.1: [1.101e-1, 1.111e-1, 1.209e-1, 1.221e-1],
        0.9: [1.917e-1, 2.088e-1, 1.000e-0, 1.743e-0],
        0.99: [2.010e-1, 2.209e-1, 1.826e-0, 1.000e+1],
    },
    1e-2: {
        0.1: [1.101e-2, 1.111e-2, 1.209e-2, 1.221e-2],
        0.9: [1.917e-2, 2.088e-2, 1.000e-1, 1.743e-1],
        0.99: [2.010e-2, 2.209e-2, 1.826e-1, 1.000e-0],
    },
    1e-3: {
        0.1: [1.101e-3, 1.111e-3, 1.209e-3, 1.221e-3],
        0.9: [1.917e-3, 2.088e-3, 1.000e-2, 1.743e-2],
        0.99: [2.010e-3, 2.209e-3, 1.826e-2, 1.000e-1],
    },
}

# measured (third) lines of the nested scalar problem
SCALAR_NESTED_MEASURED_REFERENCE = {
    1e-1: {
        0.1: [1.039e-1, 1.039e-1, 1.042e-1, 1.042e-1],
        0.9: [1.350e-1, 1.370e-1, 1.618e-1, 1.658e-1],
        0.99: [1.386e-1, 1.411e-1, 1.746e-1, 1.806e-1],
    },
    1e-2: {
        0.1: [1.037e-2, 1.037e-2, 1.038e-2, 1.039e-2],
        0.9: [1.334e-2, 1.350e-2, 1.525e-2, 1.551e-2],
        0.99: [1.368e-2, 1.388e-2, 1.621e-2, 1.658e-2],
    },
    1e-3: {
        0.1: [1.037e-3, 1.037e-3, 1.038e-3, 1.038e-3],
        0.9: [1.333e-3, 1.348e-3, 1.518e-3, 1.542e-3],
        0.99: [1.366e-3, 1.386e-3, 1.612e-3, 1.646e-3],
    },
}

# transmission, absolute criterion: plateau ||x - x*||_2 on the full domain
TRANSMISSION_ABS_REFERENCE = {
    0.1: {1e-1: 6.643e-3, 1e-2: 7.727e-4, 1e-3: 7.117e-5, 1e-4: 5.497e-6},
    0.05: {1e-1: 7.308e-3, 1e-2: 6.344e-4, 1e-3: 8.603e-5, 1e-4: 7.426e-6},
}

# transmission, rhs-relative criterion at dx = 1/10
TRANSMISSION_RELB_REFERENCE = {
    1e-1: 7.606e-1, 1e-2: 9.620e-2, 1e-3: 1.230e-2, 1e-4: 9.110e-4,
}

TRANSMISSION_OUTER_REFERENCE = 105  # dx = 1/10, initial-residual-relative


@dataclass
class CheckResult:
    criterion: str
    title: str
    passed: bool
    details: list[str] = field(default_factory=list)

    def line(self, text: str):
        self.details.append(text)

    def require(self, ok: bool, text: str):
        if not ok:
            self.passed = False
        self.details.append(("ok   " if ok else "FAIL ") + text)


class AcceptanceRuns:
    """Lazy cache of the expensive coupled runs shared between criteria."""

    def __init__(self):
        self._systems = {}
        self._dn = {}

    def system(self, dx: float):
        if dx not in self._systems:
            self._systems[dx] = transmission_assemble(dx)
        return self._systems[dx]

    def dn(self, dx: float, label: str, tau: float, tol: float = 1e-14,
           inner_guess: str = "previous"):
        key = (dx, label, tau, tol, inner_guess)
        if key not in self._dn:
            sys_ = self.system(dx)
            trace = dn_iterate(
                sys_, make_criterion(label, tau), tol=tol,
                max_iter=20_000, inner_guess=inner_guess,
            )
            err_gamma, err_full = solution_errors(sys_, trace.state)
            self._dn[key] = {
                "trace": trace,
                "interface_error": err_gamma,
                "full_error": err_full,
            }
        return self._dn[key]


def _rel(measured: float, expected: float) -> float:
    return abs(measured - expected) / abs(expected)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def check_a1(runs: AcceptanceRuns) -> CheckResult:
    res = CheckResult("A1", "scalar direct perturbation vs reference table", True)
    for gamma, per_eps in SCALAR_DIRECT_REFERENCE.items():
        f, lip = scalar_map(ScalarMapSpec(gamma))
        x_star = iterate_plain(f, 0.5, tol=1e-14).final
        for eps, expected in per_eps.items():
            schedule = PerturbationSchedule.constant(eps, direction=[1.0])
            trace = iterate_perturbed(f, schedule, 0.5, tol=1e-14)
            err = float(abs(trace.final - x_star)[0])
            res.require(
                _rel(err, expected) <= 0.01,
                f"gamma={gamma} eps={eps:.0e}: |x_eps-x*|={err:.4e} vs {expected:.3e} "
                f"({100 * _rel(err, expected):.2f}%)",
            )
            bound = bound_direct(eps, lip.L)
            res.require(err <= bound + 1e-10, f"  and within bound {bound:.4e}")
    return res


def check_a2(runs: AcceptanceRuns) -> CheckResult:
    res = CheckResult("A2", "adaptive schedules reach machine-level error", True)
    for gamma in (0.3, 1.145, 1.2):
        f, lip = scalar_map(ScalarMapSpec(gamma))
        x_star = iterate_plain(f, 0.5, tol=1e-15).final
        schedule = PerturbationSchedule.adaptive(1e-2, lip.L, direction=[1.0])
        trace = iterate_perturbed(f, schedule, 0.5, tol=1e-15)
        err = float(abs(trace.final - x_star)[0])
        res.require(err <= 1e-12, f"scalar gamma={gamma}: |x-x*|={err:.2e} <= 1e-12")
    S, F, L_S, L_F = nested_scalar(NestedScalarSpec.from_lipschitz(0.9, 0.99))
    x_star = iterate_plain(lambda x: S(F(x)), 0.5, tol=1e-15).final
    schedule = PerturbationSchedule.adaptive(1e-2, L_S * L_F, direction=[1.0])
    trace = iterate_nested(S, F, schedule, schedule, 0.5, tol=1e-15)
    err = float(abs(trace.final - x_star)[0])
    res.require(err <= 1e-12, f"nested LS=0.9 LF=0.99: |x-x*|={err:.2e} <= 1e-12")
    return res


def check_a3(runs: AcceptanceRuns) -> CheckResult:
    res = CheckResult("A3", "nested bound values vs reference estimates", True)
    for eps in NESTED_EPS_VALUES:
        for (alpha, beta), base in LINEAR_NESTED_BOUND_REFERENCE.items():
            expected = base * (eps / 1e-1)
            value = bound_nested(eps, eps, alpha, beta)
            res.require(
                _rel(value, expected) <= 0.01,
                f"eps={eps:.0e} a={alpha} b={beta}: bound={value:.4e} vs {expected:.4e}",
            )
    return res


def check_a4(runs: AcceptanceRuns) -> CheckResult:
    res = CheckResult("A4", "nested measured errors (all-ones direction)", True)
    for eps in NESTED_EPS_VALUES:
        for (alpha, beta), base in LINEAR_NESTED_MEASURED_BASE.items():
            expected = base * (eps / 1e-1)
            problem = linear_nested(alpha, beta)
            schedule = PerturbationSchedule.constant(eps)
            trace = iterate_nested(
                problem.S, problem.F, schedule, schedule, np.zeros(2), tol=1e-14
            )
            err = norm2(trace.final - problem.x_star)
            ratio = err / expected
            bound = bound_nested(eps, eps, alpha, beta)
            res.require(
                0.7 <= ratio <= 1.3 and err <= bound,
                f"eps={eps:.0e} a={alpha} b={beta}: measured={err:.4e} "
                f"({ratio:.3f}x reference, bound {bound:.3e})",
            )
    return res


def check_a5(runs: AcceptanceRuns) -> CheckResult:
    res = CheckResult("A5", "nested scalar table: global estimates and measured", True)
    for eps in NESTED_EPS_VALUES:
        for L_S in NESTED_LS_VALUES:
            for j, L_F in enumerate(NESTED_LF_VALUES):
                expected_glob = SCALAR_NESTED_GLOBAL_REFERENCE[eps][L_S][j]
                glob = bound_nested(eps, eps, L_S, L_F)
                res.require(
                    _rel(glob, expected_glob) <= 0.01,
                    f"eps={eps:.0e} LS={L_S} LF={L_F}: global={glob:.4e} vs {expected_glob:.3e}",
                )
                S, F, _, _ = nested_scalar(NestedScalarSpec.from_lipschitz(L_S, L_F))
                x_star = iterate_plain(lambda x: S(F(x)), 0.5, tol=1e-14).final
                schedule = PerturbationSchedule.constant(eps, direction=[1.0])
                trace = iterate_nested(S, F, schedule, schedule, 0.5, tol=1e-14)
                err = float(abs(trace.final - x_star)[0])
                expected_meas = SCALAR_NESTED_MEASURED_REFERENCE[eps][L_S][j]
                res.require(
                    _rel(err, expected_meas) <= 0.05 and err <= glob,
                    f"  measured={err:.4e} vs {expected_meas:.3e} "
                    f"({100 * _rel(err, expected_meas):.2f}%), <= global",
                )
    return res


def check_a6(runs: AcceptanceRuns) -> CheckResult:
    res = CheckResult("A6", "Picard dichotomy on the substitute problem", True)
    spec = PicardProblemSpec(n=64, viscosity=1e-2)
    rel_taus = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7]
    gmres_counts = {}
    for tau in rel_taus:
        trace = picard_iterate(spec, relative_to_initial(tau), tol=1e-12)
        gmres_counts[tau] = trace.total_inner_iterations
        res.require(
            trace.residuals[-1] <= 1e-12,
            f"rel tau={tau:.0e}: residual={trace.residuals[-1]:.2e} <= 1e-12 "
            f"(outer={trace.steps}, gmres={trace.total_inner_iterations})",
        )
    cheapest = min(gmres_counts.values())
    res.require(
        gmres_counts[1e-1] <= 1.1 * cheapest,
        f"tau=1e-1 cheapest: {gmres_counts[1e-1]} gmres vs min {cheapest} (10% slack)",
    )
    plateau = []
    for tau in (1e-2, 1e-3, 1e-4, 1e-5):
        trace = picard_iterate(spec, absolute(tau), tol=1e-12)
        plateau.append(trace.residuals[-1])
        res.line(f"     abs tau={tau:.0e}: stagnation residual {plateau[-1]:.3e}")
    res.require(
        all(plateau[i] > plateau[i + 1] for i in range(len(plateau) - 1)),
        "stagnation residuals decrease monotonically with tau",
    )
    for i in range(len(plateau) - 1):
        ratio = plateau[i] / plateau[i + 1]
        res.require(3 <= ratio <= 30, f"decade ratio {ratio:.1f} in [3, 30]")
    return res


A7_DXS = (0.1, 0.05, 0.025)
A7_TAUS = (1e-1, 1e-2, 1e-3, 1e-4)


def check_a7(runs: AcceptanceRuns) -> CheckResult:
    res = CheckResult("A7", "transmission exactness under the relative criterion", True)
    for dx in A7_DXS:
        for tau in A7_TAUS:
            out = runs.dn(dx, "rel", tau)
            res.require(
                out["interface_error"] <= 1e-9,
                f"dx={dx} tau={tau:.0e}: interface error {out['interface_error']:.2e} "
                f"(outer={out['trace'].steps}, cg={out['trace'].total_inner_iterations})",
            )
    return res


def check_a8(runs: AcceptanceRuns) -> CheckResult:
    res = CheckResult("A8", "transmission absolute-criterion plateau", True)
    for dx, per_tau in TRANSMISSION_ABS_REFERENCE.items():
        errors = []
        for tau, expected in per_tau.items():
            out = runs.dn(dx, "abs", tau)
            err = out["full_error"]
            errors.append(err)
            factor = err / expected
            res.require(
                1 / 3 <= factor <= 3,
                f"dx={dx} tau={tau:.0e}: error {err:.3e} vs {expected:.3e} ({factor:.2f}x)",
            )
        for i in range(len(errors) - 1):
            ratio = errors[i] / errors[i + 1]
            res.require(5 <= ratio <= 20, f"dx={dx} decade ratio {ratio:.1f} in [5, 20]")
    return res


def check_a9(runs: AcceptanceRuns) -> CheckResult:
    res = CheckResult("A9", "transmission rhs-relative criterion", True)
    out = runs.dn(0.025, "relb", 1e-1)
    diverged = out["trace"].terminated_by is Termination.DIVERGED
    res.require(
        diverged or out["full_error"] > 1e2,
        f"dx=1/40 tau=1e-1: status={out['trace'].terminated_by.value}, "
        f"error={out['full_error']:.3e} (expected divergence or error > 1e2; "
        "not reproducible with this CG, see ledger)",
    )
    for tau, expected in TRANSMISSION_RELB_REFERENCE.items():
        out = runs.dn(0.1, "relb", tau)
        err = out["full_error"]
        factor = err / expected
        res.require(
            1 / 5 <= factor <= 5,
            f"dx=1/10 tau={tau:.0e}: error {err:.3e} vs {expected:.3e} ({factor:.2f}x)",
        )
    return res


def check_a10(runs: AcceptanceRuns) -> CheckResult:
    res = CheckResult("A10", "transmission efficiency structure", True)
    outers = {}
    cgs = {}
    for tau in A7_TAUS:
        out = runs.dn(0.1, "rel", tau)
        outers[tau] = out["trace"].steps
        cgs[tau] = out["trace"].total_inner_iterations
    band = (TRANSMISSION_OUTER_REFERENCE * 0.8, TRANSMISSION_OUTER_REFERENCE * 1.2)
    stable = [outers[t] for t in (1e-2, 1e-3, 1e-4)]
    for tau in (1e-2, 1e-3, 1e-4):
        res.require(
            band[0] <= outers[tau] <= band[1],
            f"dx=1/10 tau={tau:.0e}: {outers[tau]} outer sweeps in [{band[0]:.0f}, {band[1]:.0f}]",
        )
    res.require(max(stable) - min(stable) < 5, f"outer spread {max(stable) - min(stable)} < 5")
    ordered = [cgs[t] for t in (1e-1, 1e-2, 1e-3, 1e-4)]
    res.require(
        all(ordered[i] < ordered[i + 1] for i in range(3)),
        f"cumulative cg strictly increases as tau tightens: {ordered}",
    )
    for outer_tol in (1e-2, 1e-3, 1e-4):
        rel_run = runs.dn(0.05, "rel", 1e-1, tol=outer_tol)
        abs_run = runs.dn(0.05, "abs", outer_tol, tol=outer_tol)
        ratio = abs_run["trace"].total_inner_iterations / max(
            rel_run["trace"].total_inner_iterations, 1
        )
        res.require(
            ratio > 1.5,
            f"TOL={outer_tol:.0e}: cg(abs)/cg(rel) = "
            f"{abs_run['trace'].total_inner_iterations}/{rel_run['trace'].total_inner_iterations}"
            f" = {ratio:.2f} > 1.5",
        )
    return res


def check_a11(runs: AcceptanceRuns) -> CheckResult:
    res = CheckResult("A11", "property suite", True)

    # direct-perturbation bound dominates the measured error (scalar maps)
    for gamma in (0.3, 1.145, 1.2):
        f, lip = scalar_map(ScalarMapSpec(gamma))
        x_star = iterate_plain(f, 0.5, tol=1e-14).final
        for eps in (1e-1, 1e-2, 1e-3):
            trace = iterate_perturbed(
                f, PerturbationSchedule.constant(eps, direction=[1.0]), 0.5, tol=1e-14
            )
            err = float(abs(trace.final - x_star)[0])
            bound = bound_direct(eps, lip.L)
            res.require(err <= bound + 1e-10,
                        f"direct bound: gamma={gamma} eps={eps:.0e}: {err:.3e} <= {bound:.3e}")

    # nested bound dominates the measured error (analytic global constants)
    for L_S in NESTED_LS_VALUES:
        for L_F in NESTED_LF_VALUES:
            S, F, _, _ = nested_scalar(NestedScalarSpec.from_lipschitz(L_S, L_F))
            x_star = iterate_plain(lambda x: S(F(x)), 0.5, tol=1e-14).final
            trace = iterate_nested(
                S, F,
                PerturbationSchedule.constant(1e-1, direction=[1.0]),
                PerturbationSchedule.constant(1e-1, direction=[1.0]),
                0.5, tol=1e-14,
            )
            err = float(abs(trace.final - x_star)[0])
            bound = bound_nested(1e-1, 1e-1, L_S, L_F)
            res.require(err <= bound + 1e-10,
                        f"nested bound: LS={L_S} LF={L_F}: {err:.3e} <= {bound:.3e}")

    # GMRES residual monotonicity on seeded unsymmetric systems
    rng = np.random.default_rng(7)
    mono_ok = True
    for _ in range(5):
        n = 30
        A = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        rep = gmres_solve(A, b, np.zeros(n), absolute(1e-10), max_iter=n)
        h = rep.residual_history
        mono_ok &= all(h[i + 1] <= h[i] * (1 + 1e-12) for i in range(len(h) - 1))
    res.require(mono_ok, "gmres residual history non-increasing on 5 seeded systems")

    # criterion soundness with the 10x drift guard, via recomputed residuals
    sound = True
    for _ in range(5):
        n = 25
        M = rng.normal(size=(n, n))
        A = M @ M.T + n * np.eye(n)
        b = rng.normal(size=n)
        for crit in (relative_to_initial(1e-2), absolute(1e-6)):
            rep = cg_solve(A, b, np.zeros(n), crit, max_iter=500)
            if rep.converged:
                threshold = crit.threshold(rep.initial_residual_norm, rep.rhs_norm)
                true_res = norm2(b - A @ rep.solution)
                sound &= true_res <= 10 * threshold
    res.require(sound, "converged reports satisfy their criterion (10x drift guard)")

    # monolithic equivalence at a tight absolute criterion
    for dx in (0.1, 0.05):
        out = runs.dn(dx, "abs", 1e-13, tol=1e-12)
        res.require(
            out["interface_error"] <= 1e-9,
            f"monolithic equivalence dx={dx}: {out['interface_error']:.2e} <= 1e-9",
        )

    # second-order convergence of the monolithic discretization
    errs = [runs.system(dx).discretization_max_error() for dx in (0.1, 0.05, 0.025)]
    for i in range(2):
        factor = errs[i] / errs[i + 1]
        res.require(3.5 <= factor <= 4.5, f"halving dx cuts max error by {factor:.2f}")

    # solver-vs-direct oracle agreement
    agree = True
    for _ in range(5):
        n = 40
        M = rng.normal(size=(n, n))
        A = M @ M.T + n * np.eye(n)
        b = rng.normal(size=n)
        x_ref = solve_direct(A, b)
        rep = cg_solve(A, b, np.zeros(n), absolute(1e-12), max_iter=10 * n)
        agree &= norm2(rep.solution - x_ref) <= 1e-8 * max(norm2(x_ref), 1.0)
        G = rng.normal(size=(n, n)) + n * np.eye(n)
        x_ref = solve_direct(G, b)
        rep = gmres_solve(G, b, np.zeros(n), absolute(1e-12), max_iter=5 * n)
        agree &= norm2(rep.solution - x_ref) <= 1e-8 * max(norm2(x_ref), 1.0)
    res.require(agree, "cg/gmres match the direct solver at tau_a=1e-12 on seeded systems")
    return res


ALL_CHECKS = {
    "A1": check_a1,
    "A2": check_a2,
    "A3": check_a3,
    "A4": check_a4,
    "A5": check_a5,
    "A6": check_a6,
    "A7": check_a7,
    "A8": check_a8,
    "A9": check_a9,
    "A10": check_a10,
    "A11": check_a11,
}


def run_acceptance(ids=None, runs: AcceptanceRuns | None = None, verbose: bool = False):
    """Execute acceptance criteria; returns (results, all_passed)."""
    runs = runs or AcceptanceRuns()
    selected = list(ALL_CHECKS) if not ids else list(ids)
    results = []
    for cid in selected:
        if cid not in ALL_CHECKS:
            raise ValueError(f"unknown acceptance criterion {cid!r}")
        results.append(ALL_CHECKS[cid](runs))
    return results, all(r.passed for r in results)
