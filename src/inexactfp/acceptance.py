"""Acceptance suite: every reproduction target as a pass/fail check.

Expected values are pinned as module constants. Four pinned entries
correct obvious exponent misprints in the source data; the corrections
follow from the exact proportionality in epsilon and from the bound
formula and are marked below. Every criterion that needs a sweep runs the
experiment of the same name through ``run_experiment`` and asserts on its
row dicts, so a verdict always describes the table the CLI emits. A
criterion whose reference covers an experiment's default grid passes no
grid, and otherwise passes only the values that differ from the defaults.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .experiments import ExperimentConfig, UsageError, run_experiment
from .fixedpoint import Termination
from .krylov import DRIFT_GUARD_FACTOR, TerminationCriterion, cg_solve, gmres_solve, norm2
from .problems import transmission_assemble

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

NESTED_LF_VALUES = (0.01, 0.1, 0.9, 0.99)  # the column order of the two tables below

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
    passed: bool = True
    details: list[str] = field(default_factory=list)

    def require(self, ok: bool, text: str):
        if not ok:
            self.passed = False
        self.details.append(("ok   " if ok else "FAIL ") + text)


def _rel(measured: float, expected: float) -> float:
    return abs(measured - expected) / abs(expected)


def _rows(experiment: str, **grid) -> list[dict]:
    return run_experiment(ExperimentConfig(experiment, **grid)).rows


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def check_a1() -> CheckResult:
    res = CheckResult("A1", "scalar direct perturbation vs reference table")
    for row in _rows("scalar-direct"):
        gamma, eps, err = row["gamma"], row["eps"], row["error"]
        expected = SCALAR_DIRECT_REFERENCE[gamma][eps]
        res.require(
            _rel(err, expected) <= 0.01,
            f"gamma={gamma} eps={eps:.0e}: |x_eps-x*|={err:.4e} vs {expected:.3e} "
            f"({100 * _rel(err, expected):.2f}%)",
        )
        res.require(err <= row["bound"] + 1e-10, f"  and within bound {row['bound']:.4e}")
    return res


def check_a2() -> CheckResult:
    res = CheckResult("A2", "adaptive schedules reach machine-level error")
    for row in _rows("scalar-adaptive"):
        res.require(row["error"] <= 1e-12,
                    f"{row['problem']}: |x-x*|={row['error']:.2e} <= 1e-12")
    return res


def check_a3() -> CheckResult:
    res = CheckResult("A3", "nested bound values vs reference estimates")
    for row in _rows("linear-nested"):
        eps, alpha, beta, value = row["eps"], row["alpha"], row["beta"], row["bound"]
        expected = LINEAR_NESTED_BOUND_REFERENCE[alpha, beta] * (eps / 1e-1)
        res.require(
            _rel(value, expected) <= 0.01,
            f"eps={eps:.0e} a={alpha} b={beta}: bound={value:.4e} vs {expected:.4e}",
        )
    return res


def check_a4() -> CheckResult:
    res = CheckResult("A4", "nested measured errors (all-ones direction)")
    for row in _rows("linear-nested"):
        eps, alpha, beta = row["eps"], row["alpha"], row["beta"]
        expected = LINEAR_NESTED_MEASURED_BASE[alpha, beta] * (eps / 1e-1)
        err, bound = row["error"], row["bound"]
        ratio = err / expected
        res.require(
            0.7 <= ratio <= 1.3 and err <= bound,
            f"eps={eps:.0e} a={alpha} b={beta}: measured={err:.4e} "
            f"({ratio:.3f}x reference, bound {bound:.3e})",
        )
    return res


def check_a5() -> CheckResult:
    res = CheckResult("A5", "nested scalar table: global estimates and measured")
    for row in _rows("scalar-nested"):
        eps, L_S, L_F = row["eps"], row["L_S"], row["L_F"]
        j = NESTED_LF_VALUES.index(L_F)
        expected_glob = SCALAR_NESTED_GLOBAL_REFERENCE[eps][L_S][j]
        glob = row["global_estimate"]
        res.require(
            _rel(glob, expected_glob) <= 0.01,
            f"eps={eps:.0e} LS={L_S} LF={L_F}: global={glob:.4e} vs {expected_glob:.3e}",
        )
        err = row["error"]
        expected_meas = SCALAR_NESTED_MEASURED_REFERENCE[eps][L_S][j]
        res.require(
            _rel(err, expected_meas) <= 0.05 and err <= glob,
            f"  measured={err:.4e} vs {expected_meas:.3e} "
            f"({100 * _rel(err, expected_meas):.2f}%), <= global",
        )
    return res


def check_a6() -> CheckResult:
    res = CheckResult("A6", "Picard dichotomy on the substitute problem")
    rows = _rows("picard")
    gmres_counts = {}
    for row in rows:
        if row["criterion"] != "rel":
            continue
        gmres_counts[row["tau"]] = row["gmres_iterations"]
        res.require(
            row["residual"] <= 1e-12,
            f"rel tau={row['tau']:.0e}: residual={row['residual']:.2e} <= 1e-12 "
            f"(outer={row['outer_iterations']}, gmres={row['gmres_iterations']})",
        )
    cheapest = min(gmres_counts.values())
    res.require(
        gmres_counts[1e-1] <= 1.1 * cheapest,
        f"tau=1e-1 cheapest: {gmres_counts[1e-1]} gmres vs min {cheapest} (10% slack)",
    )
    plateau = []
    for row in rows:
        if row["criterion"] == "abs":
            plateau.append(row["residual"])
            res.details.append(
                f"     abs tau={row['tau']:.0e}: stagnation residual {plateau[-1]:.3e}")
    res.require(
        all(plateau[i] > plateau[i + 1] for i in range(len(plateau) - 1)),
        "stagnation residuals decrease monotonically with tau",
    )
    for i in range(len(plateau) - 1):
        ratio = plateau[i] / plateau[i + 1]
        res.require(3 <= ratio <= 30, f"decade ratio {ratio:.1f} in [3, 30]")
    return res


def check_a7() -> CheckResult:
    res = CheckResult("A7", "transmission exactness under the relative criterion")
    for row in _rows("transmission-iters", dxs=[0.1, 0.05, 0.025]):
        res.require(
            row["interface_error"] <= 1e-9,
            f"dx={row['dx']} tau={row['tau']:.0e}: interface error "
            f"{row['interface_error']:.2e} "
            f"(outer={row['outer_iterations']}, cg={row['cg_iterations']})",
        )
    return res


def check_a8() -> CheckResult:
    res = CheckResult("A8", "transmission absolute-criterion plateau")
    # one run: the sweep holds each dx's rows together, in tau order
    for dx, rows in itertools.groupby(_rows("transmission-error"), key=lambda row: row["dx"]):
        errors = []
        for row in rows:
            tau, err = row["tau"], row["full_error"]
            expected = TRANSMISSION_ABS_REFERENCE[dx][tau]
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


def check_a9() -> CheckResult:
    res = CheckResult("A9", "transmission rhs-relative criterion")
    (row,) = _rows("transmission-error", criterion="relb", taus=[1e-1], dxs=[0.025])
    diverged = row["status"] == Termination.DIVERGED.value
    res.require(
        diverged or row["full_error"] > 1e2,
        f"dx=1/40 tau=1e-1: status={row['status']}, "
        f"error={row['full_error']:.3e} (expected divergence or error > 1e2; "
        "not reproducible with this CG, see README's acceptance suite)",
    )
    for row in _rows("transmission-error", criterion="relb", dxs=[0.1]):
        tau, err = row["tau"], row["full_error"]
        expected = TRANSMISSION_RELB_REFERENCE[tau]
        factor = err / expected
        res.require(
            1 / 5 <= factor <= 5,
            f"dx=1/10 tau={tau:.0e}: error {err:.3e} vs {expected:.3e} ({factor:.2f}x)",
        )
    return res


def check_a10() -> CheckResult:
    res = CheckResult("A10", "transmission efficiency structure")
    rows = _rows("transmission-iters", dxs=[0.1])
    outers = {row["tau"]: row["outer_iterations"] for row in rows}
    cgs = {row["tau"]: row["cg_iterations"] for row in rows}
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
    rows = _rows("transmission-efficiency", outer_tols=[1e-2, 1e-3, 1e-4])
    cg = {(row["outer_tol"], row["criterion"]): row["cg_iterations"] for row in rows}
    for outer_tol in (1e-2, 1e-3, 1e-4):
        cg_rel, cg_abs = cg[outer_tol, "rel"], cg[outer_tol, "abs"]
        ratio = cg_abs / max(cg_rel, 1)
        res.require(
            ratio > 1.5,
            f"TOL={outer_tol:.0e}: cg(abs)/cg(rel) = {cg_abs}/{cg_rel} = {ratio:.2f} > 1.5",
        )
    return res


def check_a11() -> CheckResult:
    res = CheckResult("A11", "property suite")

    # direct-perturbation bound dominates the measured error (scalar maps)
    for row in _rows("scalar-direct"):
        err, bound = row["error"], row["bound"]
        res.require(err <= bound + 1e-10,
                    f"direct bound: gamma={row['gamma']} eps={row['eps']:.0e}: "
                    f"{err:.3e} <= {bound:.3e}")

    # nested bound dominates the measured error (analytic global constants)
    for row in _rows("scalar-nested", eps_values=[1e-1]):
        err, bound = row["error"], row["global_estimate"]
        res.require(err <= bound + 1e-10,
                    f"nested bound: LS={row['L_S']} LF={row['L_F']}: {err:.3e} <= {bound:.3e}")

    # GMRES residual monotonicity on seeded unsymmetric systems
    rng = np.random.default_rng(7)
    mono_ok = True
    for _ in range(5):
        n = 30
        A = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        rep = gmres_solve(A, b, np.zeros(n), TerminationCriterion("abs", 1e-10), max_iter=n)
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
        for crit in (TerminationCriterion("rel", 1e-2), TerminationCriterion("abs", 1e-6)):
            rep = cg_solve(A, b, np.zeros(n), crit, max_iter=500)
            if rep.converged:
                sound &= norm2(b - A @ rep.solution) <= DRIFT_GUARD_FACTOR * rep.threshold
    res.require(sound, "converged reports satisfy their criterion (10x drift guard)")

    # monolithic equivalence at a tight absolute criterion
    for row in _rows("transmission-error", taus=[1e-13], tol=1e-12):
        res.require(
            row["interface_error"] <= 1e-9,
            f"monolithic equivalence dx={row['dx']}: {row['interface_error']:.2e} <= 1e-9",
        )

    # second-order convergence of the monolithic discretization
    errs = [transmission_assemble(dx).discretization_max_error() for dx in (0.1, 0.05, 0.025)]
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
        x_ref = np.linalg.solve(A, b)
        rep = cg_solve(A, b, np.zeros(n), TerminationCriterion("abs", 1e-12), max_iter=10 * n)
        agree &= norm2(rep.solution - x_ref) <= 1e-8 * max(norm2(x_ref), 1.0)
        G = rng.normal(size=(n, n)) + n * np.eye(n)
        x_ref = np.linalg.solve(G, b)
        rep = gmres_solve(G, b, np.zeros(n), TerminationCriterion("abs", 1e-12), max_iter=5 * n)
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


def run_acceptance(ids=None):
    """Execute acceptance criteria; returns (results, all_passed)."""
    selected = list(ALL_CHECKS) if not ids else list(ids)
    for cid in selected:  # every id before any check runs
        if cid not in ALL_CHECKS:
            raise UsageError(f"unknown acceptance criterion {cid!r}")
    results = [ALL_CHECKS[cid]() for cid in selected]
    return results, all(r.passed for r in results)
