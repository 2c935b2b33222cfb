"""Benchmark workloads: inputs made from a seed, one pass through the
library's public entry points, and the correctness check of every case.

Seed 0 gives the nominal inputs. Any other seed jitters every inner
tolerance within a factor ``TAU_JITTER`` and, on ``mesh``, shifts the cell
count by up to ``MESH_SHIFT`` cell. That keeps each workload in its regime
(same layer shares) while a rule tuned to the exact nominal values shows up.

The module is imported only after ``inexactfp`` is importable; the library
functions are looked up as module attributes at call time, so the traced
run sees every call the untraced run makes.
"""

from __future__ import annotations

import csv
import math
import os
import random
import time
from dataclasses import dataclass, field

import numpy as np

from inexactfp import experiments, problems

WORKLOADS = ("dn-rel", "dn-abs", "picard", "mesh")

TAU_JITTER = 1.25
MESH_SHIFT = 1

# (experiment id, criterion, taus, dxs, outer tol) per sweep. Each
# (dx, tau) pair of a sweep is one case: one ``run_experiment`` call, as a
# CLI call with a single --dx and --tau makes, timed on its own.
_EXPERIMENT_INPUTS = {
    "nominal": {
        "dn-rel": [("transmission-iters", "rel", (1e-1, 1e-2, 1e-3, 1e-4), (1 / 20,), 1e-14)],
        "dn-abs": [("transmission-error", "abs", (1e-1, 1e-2), (1 / 40, 1 / 80), 1e-14)],
        "picard": [
            ("picard", "rel", (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7), (None,), 1e-12),
            ("picard", "abs", (1e-2, 1e-3, 1e-4, 1e-5), (None,), 1e-12),
        ],
    },
    "tiny": {
        "dn-rel": [("transmission-iters", "rel", (1e-1, 1e-4), (1 / 10,), 1e-14)],
        "dn-abs": [("transmission-error", "abs", (1e-1, 1e-2), (1 / 10, 1 / 20), 1e-14)],
        "picard": [
            ("picard", "rel", (1e-1, 1e-4), (None,), 1e-12),
            ("picard", "abs", (1e-2, 1e-3), (None,), 1e-12),
        ],
    },
}
# mesh: cells per unit length of the coarse grid; the fine grid has twice as many
_MESH_CELLS = {"nominal": 80, "tiny": 10}

# Seed-0 plateau errors (``full_error``) of dn-abs at the seed commit, keyed
# by cells per unit length and nominal tau. A case passes when its error,
# scaled by tau / nominal tau, stays within PLATEAU_FACTOR of its entry.
ABS_PLATEAU_SEED = {
    10: {1e-1: 6.316e-03, 1e-2: 8.116e-04},
    20: {1e-1: 7.414e-03, 1e-2: 7.573e-04},
    40: {1e-1: 1.022e-02, 1e-2: 9.707e-04},
    80: {1e-1: 1.182e-02, 1e-2: 1.202e-03},
}
PLATEAU_FACTOR = 3.0  # the A8 reference band

DN_REL_MAX_INTERFACE_ERROR = 1e-9  # A7
PICARD_REL_MAX_RESIDUAL = 1e-12  # A6
ABS_DECADE_RATIO = (5.0, 20.0)  # A8, per decade of tau
PICARD_DECADE_RATIO = (3.0, 30.0)  # A6, per decade of tau
MESH_HALVING_FACTOR = (3.5, 4.5)  # A11: second order in dx
ORACLE_STATE_MAX_ERROR = 1e-12
CSV_REL_TOL = 1e-6  # values are exported with 7 significant digits


@dataclass(frozen=True)
class ExperimentInput:
    """One ``run_experiment`` call; ``nominal_taus`` pairs with ``cfg.taus``."""

    cfg: experiments.ExperimentConfig
    nominal_taus: tuple


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    experiments: tuple = ()  # of ExperimentInput
    mesh_cells: tuple = ()  # (coarse, fine) cells per unit length

    def describe(self) -> dict:
        if self.workload == "mesh":
            return {"mesh_cells": list(self.mesh_cells)}
        return {
            "calls": [
                {
                    "experiment": e.cfg.experiment,
                    "criterion": e.cfg.criterion,
                    "taus": e.cfg.taus,
                    "dxs": e.cfg.dxs,
                    "tol": e.cfg.tol,
                }
                for e in self.experiments
            ]
        }


def make_inputs(workload: str, seed: int, size: str = "nominal") -> Inputs:
    """Generate the workload's inputs; seed 0 is the nominal set."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = random.Random(seed) if seed else None
    if workload == "mesh":
        n = _MESH_CELLS[size]
        if rng is not None:
            n += rng.randint(-MESH_SHIFT, MESH_SHIFT)
        return Inputs(workload, seed, mesh_cells=(n, 2 * n))
    calls = []
    for exp_id, criterion, taus, dxs, tol in _EXPERIMENT_INPUTS[size][workload]:
        jittered = [t * TAU_JITTER ** rng.uniform(-1.0, 1.0) if rng else t for t in taus]
        for dx in dxs:
            for tau, tau0 in zip(jittered, taus):
                cfg = experiments.ExperimentConfig(
                    experiment=exp_id,
                    criterion=criterion,
                    taus=[tau],
                    dxs=[dx] if dx else None,
                    tol=tol,
                )
                calls.append(ExperimentInput(cfg, (tau0,)))
    return Inputs(workload, seed, experiments=tuple(calls))


@dataclass
class PassOutput:
    """What one pass produced: per-call reports and bytes, or mesh results."""

    reports: list = field(default_factory=list)  # (ExperimentInput, TableReport, bytes)
    mesh: list = field(default_factory=list)  # dicts, one per grid
    unit_seconds: list = field(default_factory=list)  # wall time of each timed unit

    def fingerprint(self):
        """Everything a deterministic rerun must reproduce exactly."""
        if self.mesh:
            return [
                (m["n"], m["oracle_interface_error"], m["oracle_full_error"], m["max_error"],
                 m["csv_bytes"], m["oracle_field"].tobytes())
                for m in self.mesh
            ]
        return [out for _, _, out in self.reports]

    def counts(self) -> dict:
        """Work counters read from the rows, as the untraced run sees them."""
        inner = outer = 0
        for _, report, _ in self.reports:
            for row in report.rows:
                inner += row.get("cg_iterations", 0) + row.get("gmres_iterations", 0)
                outer += row["outer_iterations"]
        return {"inner_iters": inner, "outer_steps": outer}


def run_pass(inputs: Inputs, workdir: str, begin_unit=None) -> PassOutput:
    """One pass over the workload's cases, in order, one case at a time.
    ``begin_unit(label)``, when given, is called before each timed unit (an
    experiment case, or one step of a mesh case) and outside its timing."""
    out = PassOutput()

    def timed(label, fn, *args):
        if begin_unit:
            begin_unit(label)
        t0 = time.perf_counter()
        result = fn(*args)
        out.unit_seconds.append(time.perf_counter() - t0)
        return result

    if inputs.workload == "mesh":
        for n in inputs.mesh_cells:
            out.mesh.append(_mesh_case(n, workdir, timed))
        return out
    for k, item in enumerate(inputs.experiments):
        label = f"{k}: {item.cfg.experiment} {item.cfg.criterion} tau={item.cfg.taus[0]:.3e}"
        out.reports.append(timed(label, _experiment_case, item))
    return out


def _experiment_case(item: ExperimentInput):
    report = experiments.run_experiment(item.cfg)
    return item, report, experiments.emit(report, "csv")


def _mesh_case(n: int, workdir: str, timed) -> dict:
    """Assembly, the monolithic oracle, its error metrics and CSV export;
    each step is a timed unit of the case."""
    dx = 1.0 / n
    system = timed(f"mesh n={n} assemble", problems.transmission_assemble, dx)
    u = timed(f"mesh n={n} oracle", system.monolithic_solution)  # sparse LU
    oracle = timed(f"mesh n={n} restrict", problems.DnState.from_monolithic, system)
    err_gamma, err_full = timed(f"mesh n={n} errors", problems.solution_errors, system, oracle)
    max_error = timed(f"mesh n={n} max error", system.discretization_max_error)
    prefix = os.path.join(workdir, f"n{n}_")
    paths = timed(f"mesh n={n} export", experiments.export_field_csvs, dx, prefix)
    return {
        "n": n,
        "oracle_interface_error": err_gamma,
        "oracle_full_error": err_full,
        "max_error": max_error,
        "paths": tuple(paths),
        "csv_bytes": sum(os.path.getsize(p) for p in paths),
        # monolithic ordering is row-major in (j, i) over the interior nodes
        "oracle_field": u.reshape(n - 1, 2 * n - 1).copy(),
    }


@dataclass(frozen=True)
class CaseResult:
    case: str
    ok: bool
    detail: str


def check_pass(inputs: Inputs, out: PassOutput) -> list[CaseResult]:
    """Check a pass against the paper's claims; one result per experiment
    row or mesh grid. The row checkers also get each jittered tau's seed-0
    value."""
    if inputs.workload == "mesh":
        return _check_mesh(out)
    checker = {"dn-rel": _check_dn_rel, "dn-abs": _check_dn_abs, "picard": _check_picard}[
        inputs.workload
    ]
    rows, emitted_ok, nominal = [], [], {}
    for item, report, emitted in out.reports:
        csv_rows = list(csv.DictReader(emitted.decode("utf-8").splitlines()))
        ok = len(csv_rows) == len(report.rows) and all(
            math.isclose(float(r["tau"]), row["tau"], rel_tol=1e-3)
            for r, row in zip(csv_rows, report.rows)
        )
        rows += report.rows
        emitted_ok += [ok] * len(report.rows)
        nominal.update(zip(item.cfg.taus, item.nominal_taus))
    results = []
    for row, csv_ok, (ok, detail) in zip(rows, emitted_ok, checker(rows, nominal)):
        if not csv_ok:
            ok, detail = False, "emitted CSV does not match the rows; " + detail
        results.append(CaseResult(_case_name(row), ok, detail))
    return results


def _case_name(row: dict) -> str:
    parts = [row["criterion"], f"tau={row['tau']:.3e}"]
    if "dx" in row:
        parts.append(f"dx=1/{round(1 / row['dx'])}")
    return " ".join(parts)


def _per_decade(err_hi: float, err_lo: float, tau_hi: float, tau_lo: float) -> float:
    """Error ratio per decade of tau between two rows."""
    if not (err_hi > 0 and err_lo > 0):
        return math.nan
    return (err_hi / err_lo) ** (1.0 / math.log10(tau_hi / tau_lo))


def _check_dn_rel(rows, nominal):
    for row in rows:
        err = row["interface_error"]
        yield err <= DN_REL_MAX_INTERFACE_ERROR, f"interface error {err:.2e} <= 1e-9"


def _check_dn_abs(rows, nominal):
    previous = {}
    for row in rows:
        n = round(1 / row["dx"])
        err, tau = row["full_error"], row["tau"]
        expected = ABS_PLATEAU_SEED[n][nominal[tau]] * tau / nominal[tau]
        ok = 1 / PLATEAU_FACTOR <= err / expected <= PLATEAU_FACTOR
        detail = f"plateau {err:.3e} vs seed-scaled {expected:.3e}"
        if n in previous:
            ratio = _per_decade(previous[n][0], err, previous[n][1], tau)
            ok &= ABS_DECADE_RATIO[0] <= ratio <= ABS_DECADE_RATIO[1]
            detail += f", decade ratio {ratio:.2f} in {list(ABS_DECADE_RATIO)}"
        previous[n] = (err, tau)
        yield ok, detail


def _check_picard(rows, nominal):
    previous = None
    for row in rows:
        res, tau = row["residual"], row["tau"]
        if row["criterion"] == "rel":
            yield res <= PICARD_REL_MAX_RESIDUAL, f"residual {res:.2e} <= 1e-12"
            continue
        ok, detail = math.isfinite(res) and res > 0, f"plateau residual {res:.3e}"
        if previous is not None:
            ratio = _per_decade(previous[0], res, previous[1], tau)
            ok &= res < previous[0] and PICARD_DECADE_RATIO[0] <= ratio <= PICARD_DECADE_RATIO[1]
            detail += f", decreasing, decade ratio {ratio:.2f} in {list(PICARD_DECADE_RATIO)}"
        previous = (res, tau)
        yield ok, detail


def _check_mesh(out: PassOutput) -> list[CaseResult]:
    results = []
    for k, m in enumerate(out.mesh):
        ok = max(m["oracle_interface_error"], m["oracle_full_error"]) <= ORACLE_STATE_MAX_ERROR
        detail = (
            f"oracle state errors {m['oracle_interface_error']:.1e}/"
            f"{m['oracle_full_error']:.1e} <= 1e-12"
        )
        csv_ok, csv_detail = _check_exported_field(m)
        ok &= csv_ok
        detail += "; " + csv_detail
        if k > 0:
            factor = out.mesh[k - 1]["max_error"] / m["max_error"]
            ok &= MESH_HALVING_FACTOR[0] <= factor <= MESH_HALVING_FACTOR[1]
            detail += f"; halving dx cuts max error by {factor:.3f}"
        results.append(CaseResult(f"mesh n={m['n']}", bool(ok), detail))
    return results


def _check_exported_field(m: dict) -> tuple[bool, str]:
    """The discrete CSV has (2n+1)(n+1) rows and matches the oracle."""
    n = m["n"]
    expected_rows = (2 * n + 1) * (n + 1)
    discrete = next(p for p in m["paths"] if p.endswith("discrete.csv"))
    data = np.loadtxt(discrete, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (expected_rows, 3):
        return False, f"discrete CSV shape {data.shape}, expected ({expected_rows}, 3)"
    # rows run over j (y) outer, i (x) inner on the closed grid
    grid = data[:, 2].reshape(n + 1, 2 * n + 1)
    oracle = m["oracle_field"]
    scale = max(float(np.abs(oracle).max()), 1e-300)
    worst = float(np.abs(grid[1:n, 1 : 2 * n] - oracle).max())
    boundary_zero = not (grid[[0, n], :].any() or grid[:, [0, 2 * n]].any())
    ok = worst <= CSV_REL_TOL * scale and boundary_zero
    return ok, f"{expected_rows} CSV rows, max deviation from oracle {worst:.1e}"
