"""Experiment harness: parameter sweeps over the test problems, emitted as
CSV or Markdown tables.

Every experiment is deterministic for a given configuration; divergent runs
show up as flagged rows instead of aborting a sweep. Wall times are
measured and kept on the in-memory rows but never emitted, so identical
configurations produce byte-identical files.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from . import __version__
from .fixedpoint import (
    DEFAULT_MAX_ITER,
    PerturbationSchedule,
    Termination,
    bound_direct,
    bound_nested,
    iterate_nested,
    iterate_perturbed,
    iterate_plain,
)
from .krylov import TerminationCriterion, absolute, relative_to_initial, relative_to_rhs
from .linalg import norm2
from .problems import (
    NestedScalarSpec,
    PicardProblemSpec,
    ScalarMapSpec,
    dn_iterate,
    field_rows,
    linear_nested,
    nested_local_derivatives,
    nested_scalar,
    picard_iterate,
    scalar_map,
    solution_errors,
    transmission_assemble,
)

EXPERIMENT_IDS = (
    "scalar-direct",
    "scalar-adaptive",
    "linear-nested",
    "scalar-nested",
    "picard",
    "transmission-error",
    "transmission-iters",
    "transmission-efficiency",
)

CRITERION_LABELS = ("rel", "relb", "abs")

_CRITERION_FACTORY = {
    "rel": relative_to_initial,
    "relb": relative_to_rhs,
    "abs": absolute,
}


class UsageError(ValueError):
    """Invalid experiment configuration."""


def make_criterion(label: str, tau: float) -> TerminationCriterion:
    try:
        return _CRITERION_FACTORY[label](tau)
    except KeyError:
        raise UsageError(f"unknown criterion {label!r}; expected one of {CRITERION_LABELS}")


_POSITIVE_LISTS = ("gammas", "taus", "dxs", "outer_tols")
_NONNEGATIVE_LISTS = ("eps_values", "alphas", "betas", "ls_values", "lf_values")


@dataclass
class ExperimentConfig:
    """Grid and output settings for one experiment run. Unset fields fall
    back to per-experiment defaults mirroring the reference tables."""

    experiment: str
    gammas: list[float] | None = None
    eps_values: list[float] | None = None
    alphas: list[float] | None = None
    betas: list[float] | None = None
    ls_values: list[float] | None = None
    lf_values: list[float] | None = None
    taus: list[float] | None = None
    dxs: list[float] | None = None
    criterion: str | None = None
    tol: float | None = None
    outer_tols: list[float] | None = None
    adaptive_c: float = 1e-2
    inner_guess: str = "previous"
    max_outer: int | None = None
    out_format: str = "csv"
    out_path: str | None = None
    export_fields: str | None = None

    def validate(self):
        if self.experiment not in EXPERIMENT_IDS:
            raise UsageError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENT_IDS}"
            )
        if self.criterion is not None and self.criterion not in CRITERION_LABELS:
            raise UsageError(
                f"unknown criterion {self.criterion!r}; expected one of {CRITERION_LABELS}"
            )
        if self.inner_guess not in ("previous", "zero"):
            raise UsageError(f"inner_guess must be 'previous' or 'zero', got {self.inner_guess!r}")
        if self.out_format not in ("csv", "md"):
            raise UsageError(f"format must be 'csv' or 'md', got {self.out_format!r}")
        for name in ("tol", "adaptive_c"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise UsageError(f"{name} must be finite, got {value}")
        for name in (*_POSITIVE_LISTS, *_NONNEGATIVE_LISTS):
            values = getattr(self, name)
            if values is None:
                continue
            if len(values) == 0:
                raise UsageError(f"{name} must not be empty")
            if not all(map(math.isfinite, values)):
                raise UsageError(f"{name} must be finite, got {values}")
            if name in _POSITIVE_LISTS and any(v <= 0 for v in values):
                raise UsageError(f"{name} must be positive, got {values}")
            if any(v < 0 for v in values):  # zero is meaningful: no perturbation
                raise UsageError(f"{name} must be nonnegative, got {values}")
        if self.tol is not None and self.tol <= 0:
            raise UsageError(f"tol must be positive, got {self.tol}")
        if self.max_outer is not None and self.max_outer < 1:
            raise UsageError(f"max_outer must be at least 1, got {self.max_outer}")
        if self.export_fields and not self.experiment.startswith("transmission"):
            raise UsageError("--export-fields applies to transmission experiments")


@dataclass
class TableReport:
    experiment: str
    columns: list[str]
    rows: list[dict]
    provenance: dict = dc_field(default_factory=dict)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.3e}"
    return str(value)


_UNEMITTED_COLUMNS = ("wall_time",)  # measured but environment-dependent


def _emitted_columns(report: TableReport) -> list[str]:
    return [c for c in report.columns if c not in _UNEMITTED_COLUMNS]


def emit(report: TableReport, out_format: str) -> bytes:
    """Render a report as CSV or Markdown bytes (UTF-8, LF line endings).

    CSV is plain data: a header naming every column, one row per grid
    point, floats in scientific notation with 4 significant digits.
    Markdown mirrors the reference layout where one is defined for the
    experiment and falls back to a flat pipe table otherwise. Wall times
    stay on the in-memory report only, keeping the output bytes
    deterministic.
    """
    columns = _emitted_columns(report)
    if out_format == "csv":
        lines = [",".join(columns)]
        for row in report.rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        return ("\n".join(lines) + "\n").encode("utf-8")
    if out_format == "md":
        return _emit_markdown(report).encode("utf-8")
    raise UsageError(f"format must be 'csv' or 'md', got {out_format!r}")


def _pipe_row(cells) -> str:
    return "| " + " | ".join(cells) + " |"


def _emit_markdown(report: TableReport) -> str:
    lines = [f"# {report.experiment}", ""]
    for key, value in sorted(report.provenance.items()):
        lines.append(f"- {key}: {value}")
    lines.append("")
    if report.experiment == "linear-nested":
        lines += _markdown_blocks(
            report, outer="eps", row_key="alpha", col_key="beta",
            line_fields=[("estimate", "bound"), ("measured", "error")],
        )
    elif report.experiment == "scalar-nested":
        lines += _markdown_blocks(
            report, outer="eps", row_key="L_S", col_key="L_F",
            line_fields=[
                ("global estimate", "global_estimate"),
                ("local estimate", "local_estimate"),
                ("measured", "error"),
            ],
        )
    else:
        columns = _emitted_columns(report)
        lines.append(_pipe_row(columns))
        lines.append(_pipe_row(["---"] * len(columns)))
        for row in report.rows:
            lines.append(_pipe_row([_fmt(row[c]) for c in columns]))
    return "\n".join(lines) + "\n"


def _markdown_blocks(report, outer, row_key, col_key, line_fields):
    """Blocked layout: per outer value, rows grouped by row_key with the
    estimate/measured lines adjacent, columns spanned by col_key."""
    col_values = sorted({row[col_key] for row in report.rows})
    outer_values = sorted({row[outer] for row in report.rows}, reverse=True)
    row_values = sorted({row[row_key] for row in report.rows})
    index = {(r[outer], r[row_key], r[col_key]): r for r in report.rows}
    lines = []
    for ov in outer_values:
        lines.append(f"## {outer} = {_fmt(ov)}")
        lines.append("")
        header = [row_key, "line"] + [f"{col_key}={_fmt(c)}" for c in col_values]
        lines.append(_pipe_row(header))
        lines.append(_pipe_row(["---"] * len(header)))
        for rv in row_values:
            for label, fld in line_fields:
                cells = [_fmt(rv), label]
                for cv in col_values:
                    row = index.get((ov, rv, cv))
                    cells.append(_fmt(row[fld]) if row else "-")
                lines.append(_pipe_row(cells))
        lines.append("")
    return lines


# --------------------------------------------------------------------------
# individual experiments
# --------------------------------------------------------------------------

def _given(value, default):  # a config field, or the experiment's default if unset
    return default if value is None else value


def _run_scalar_direct(cfg: ExperimentConfig) -> TableReport:
    gammas = _given(cfg.gammas, [0.3, 1.145, 1.2])
    eps_values = _given(cfg.eps_values, [1e-1, 1e-2, 1e-3])
    tol = _given(cfg.tol, 1e-14)
    max_iter = _given(cfg.max_outer, DEFAULT_MAX_ITER)
    columns = ["gamma", "L", "eps", "error", "bound", "outer_iterations", "wall_time"]
    rows = []
    for gamma in gammas:
        f, L = scalar_map(ScalarMapSpec(gamma))
        x_star = iterate_plain(f, 0.5, tol=tol).final
        for eps in eps_values:
            t0 = time.perf_counter()
            schedule = PerturbationSchedule.constant(eps, direction=[1.0])
            trace = iterate_perturbed(f, schedule, 0.5, tol=tol, max_iter=max_iter)
            err = float(abs(trace.final - x_star)[0])
            rows.append({
                "gamma": gamma,
                "L": L,
                "eps": eps,
                "error": err,
                "bound": bound_direct(eps, L),
                "outer_iterations": trace.steps,
                "wall_time": time.perf_counter() - t0,
            })
    return TableReport("scalar-direct", columns, rows)


def _run_scalar_adaptive(cfg: ExperimentConfig) -> TableReport:
    gammas = _given(cfg.gammas, [0.3, 1.145, 1.2])
    pairs = list(zip(_given(cfg.ls_values, [0.9]), _given(cfg.lf_values, [0.99])))
    tol = _given(cfg.tol, 1e-15)
    max_iter = _given(cfg.max_outer, DEFAULT_MAX_ITER)
    c = cfg.adaptive_c
    columns = ["problem", "L", "c", "error", "outer_iterations", "wall_time"]
    rows = []
    for gamma in gammas:
        f, L = scalar_map(ScalarMapSpec(gamma))
        x_star = iterate_plain(f, 0.5, tol=tol).final
        t0 = time.perf_counter()
        schedule = PerturbationSchedule.adaptive(c, L, direction=[1.0])
        trace = iterate_perturbed(f, schedule, 0.5, tol=tol, max_iter=max_iter)
        rows.append({
            "problem": f"scalar gamma={gamma}",
            "L": L,
            "c": c,
            "error": float(abs(trace.final - x_star)[0]),
            "outer_iterations": trace.steps,
            "wall_time": time.perf_counter() - t0,
        })
    for L_S, L_F in pairs:
        S, F, _, _ = nested_scalar(NestedScalarSpec.from_lipschitz(L_S, L_F))
        x_star = iterate_plain(lambda x: S(F(x)), 0.5, tol=tol).final
        t0 = time.perf_counter()
        schedule = PerturbationSchedule.adaptive(c, L_S * L_F, direction=[1.0])
        trace = iterate_nested(S, F, schedule, schedule, 0.5, tol=tol, max_iter=max_iter)
        rows.append({
            "problem": f"nested LS={L_S} LF={L_F}",
            "L": L_S * L_F,
            "c": c,
            "error": float(abs(trace.final - x_star)[0]),
            "outer_iterations": trace.steps,
            "wall_time": time.perf_counter() - t0,
        })
    return TableReport("scalar-adaptive", columns, rows)


def _run_linear_nested(cfg: ExperimentConfig) -> TableReport:
    alphas = _given(cfg.alphas, [0.1, 0.9, 0.99])
    betas = _given(cfg.betas, [0.1, 0.9, 0.99])
    eps_values = _given(cfg.eps_values, [1e-1, 1e-2, 1e-3])
    tol = _given(cfg.tol, 1e-14)
    max_iter = _given(cfg.max_outer, DEFAULT_MAX_ITER)
    columns = ["eps", "alpha", "beta", "bound", "error", "outer_iterations", "wall_time"]
    rows = []
    for eps in eps_values:
        for alpha in alphas:
            for beta in betas:
                problem = linear_nested(alpha, beta)
                t0 = time.perf_counter()
                schedule = PerturbationSchedule.constant(eps)  # all-ones direction
                trace = iterate_nested(
                    problem.S, problem.F, schedule, schedule, np.zeros(2), tol, max_iter
                )
                err = norm2(trace.final - problem.x_star)
                rows.append({
                    "eps": eps,
                    "alpha": alpha,
                    "beta": beta,
                    "bound": bound_nested(eps, eps, alpha, beta),
                    "error": err,
                    "outer_iterations": trace.steps,
                    "wall_time": time.perf_counter() - t0,
                })
    return TableReport("linear-nested", columns, rows)


def _run_scalar_nested(cfg: ExperimentConfig) -> TableReport:
    ls_values = _given(cfg.ls_values, [0.1, 0.9, 0.99])
    lf_values = _given(cfg.lf_values, [0.01, 0.1, 0.9, 0.99])
    eps_values = _given(cfg.eps_values, [1e-1, 1e-2, 1e-3])
    tol = _given(cfg.tol, 1e-14)
    max_iter = _given(cfg.max_outer, DEFAULT_MAX_ITER)
    columns = [
        "eps", "L_S", "L_F", "global_estimate", "local_estimate", "error",
        "outer_iterations", "wall_time",
    ]
    rows = []
    for eps in eps_values:
        for L_S in ls_values:
            for L_F in lf_values:
                spec = NestedScalarSpec.from_lipschitz(L_S, L_F)
                S, F, _, _ = nested_scalar(spec)
                x_star = float(iterate_plain(lambda x: S(F(x)), 0.5, tol=tol).final[0])
                dS, dF = nested_local_derivatives(spec, x_star)
                t0 = time.perf_counter()
                schedule = PerturbationSchedule.constant(eps, direction=[1.0])
                trace = iterate_nested(S, F, schedule, schedule, 0.5, tol, max_iter)
                rows.append({
                    "eps": eps,
                    "L_S": L_S,
                    "L_F": L_F,
                    "global_estimate": bound_nested(eps, eps, L_S, L_F),
                    "local_estimate": bound_nested(eps, eps, dS, dF),
                    "error": float(abs(trace.final - x_star)[0]),
                    "outer_iterations": trace.steps,
                    "wall_time": time.perf_counter() - t0,
                })
    return TableReport("scalar-nested", columns, rows)


_PICARD_DEFAULT_TAUS = {
    "rel": [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7],
    "relb": [1e-1, 1e-2, 1e-3, 1e-4],
    "abs": [1e-2, 1e-3, 1e-4, 1e-5],
}


def _run_picard(cfg: ExperimentConfig) -> TableReport:
    spec = PicardProblemSpec(n=64, viscosity=1e-2)
    tol = _given(cfg.tol, 1e-12)
    criteria = ["rel", "abs"] if cfg.criterion is None else [cfg.criterion]
    columns = [
        "criterion", "tau", "outer_iterations", "gmres_iterations", "residual",
        "error", "exit", "wall_time",
    ]
    rows = []
    exact = spec.exact_solution()
    for label in criteria:
        taus = _given(cfg.taus, _PICARD_DEFAULT_TAUS[label])
        for tau in taus:
            t0 = time.perf_counter()
            trace = picard_iterate(
                spec, make_criterion(label, tau), tol=tol,
                max_iter=_given(cfg.max_outer, 500),
            )
            rows.append({
                "criterion": label,
                "tau": tau,
                "outer_iterations": trace.steps,
                "gmres_iterations": trace.total_inner_iterations,
                "residual": trace.residuals[-1],
                "error": norm2(trace.final - exact),
                "exit": trace.terminated_by.value,
                "wall_time": time.perf_counter() - t0,
            })
    report = TableReport("picard", columns, rows)
    report.provenance["qualitative"] = True
    report.provenance["note"] = (
        "substitute problem: 1D convection-diffusion with lagged upwind "
        "velocity, n=64, viscosity=1e-2"
    )
    return report


def _transmission_runs(cfg, criteria_taus, dxs, tol, systems=None):
    """Shared sweep driver: yields one row dict per (criterion, tau, dx)."""
    systems = systems if systems is not None else {}
    for dx in dxs:
        if dx not in systems:
            systems[dx] = transmission_assemble(dx)
        sys_ = systems[dx]
        for label, tau in criteria_taus:
            t0 = time.perf_counter()
            trace = dn_iterate(
                sys_, make_criterion(label, tau), tol=tol,
                max_iter=_given(cfg.max_outer, DEFAULT_MAX_ITER),
                inner_guess=cfg.inner_guess,
            )
            err_gamma, err_full = solution_errors(sys_, trace.state)
            yield {
                "criterion": label,
                "tau": tau,
                "dx": dx,
                "outer_iterations": trace.steps,
                "cg_iterations": trace.total_inner_iterations,
                "interface_error": err_gamma,
                "full_error": err_full,
                "status": trace.terminated_by.value,
                "wall_time": time.perf_counter() - t0,
            }


_TRANSMISSION_DEFAULT_CRITERION = {"transmission-error": "abs", "transmission-iters": "rel"}


def _run_transmission_sweep(cfg: ExperimentConfig) -> TableReport:
    """transmission-error and transmission-iters: the same (tau, dx) sweep,
    differing only in the default criterion."""
    label = _given(cfg.criterion, _TRANSMISSION_DEFAULT_CRITERION[cfg.experiment])
    taus = _given(cfg.taus, [1e-1, 1e-2, 1e-3, 1e-4])
    dxs = _given(cfg.dxs, [0.1, 0.05])
    tol = _given(cfg.tol, 1e-14)
    columns = [
        "criterion", "tau", "dx", "outer_iterations", "cg_iterations",
        "interface_error", "full_error", "status", "wall_time",
    ]
    rows = list(_transmission_runs(cfg, [(label, t) for t in taus], dxs, tol))
    return TableReport(cfg.experiment, columns, rows)


def _run_transmission_efficiency(cfg: ExperimentConfig) -> TableReport:
    """Tolerance-sweep protocol: the initial-residual-relative scheme keeps
    tau_r = 1e-1 whatever the outer tolerance; the rhs-relative and absolute
    schemes must tighten their inner tolerance to the outer one."""
    outer_tols = _given(cfg.outer_tols, [1e-1, 1e-2, 1e-3, 1e-4])
    dx = _given(cfg.dxs, [0.05])[0]
    columns = [
        "outer_tol", "criterion", "tau", "outer_iterations", "cg_iterations",
        "interface_error", "full_error", "status", "wall_time",
    ]
    rows = []
    systems: dict = {}
    for outer_tol in outer_tols:
        schemes = [("rel", 1e-1), ("relb", outer_tol), ("abs", outer_tol)]
        for row in _transmission_runs(cfg, schemes, [dx], outer_tol, systems):
            row = {"outer_tol": outer_tol, **row}
            del row["dx"]
            rows.append(row)
    return TableReport("transmission-efficiency", columns, rows)


_RUNNERS: dict[str, Callable[[ExperimentConfig], TableReport]] = {
    "scalar-direct": _run_scalar_direct,
    "scalar-adaptive": _run_scalar_adaptive,
    "linear-nested": _run_linear_nested,
    "scalar-nested": _run_scalar_nested,
    "picard": _run_picard,
    "transmission-error": _run_transmission_sweep,
    "transmission-iters": _run_transmission_sweep,
    "transmission-efficiency": _run_transmission_efficiency,
}


def run_experiment(cfg: ExperimentConfig) -> TableReport:
    """Dispatch a validated configuration to its experiment driver."""
    cfg.validate()
    report = _RUNNERS[cfg.experiment](cfg)
    report.provenance.setdefault("experiment", cfg.experiment)
    report.provenance.setdefault("version", __version__)
    report.provenance.setdefault("config", _echo_config(cfg))
    return report


def _echo_config(cfg: ExperimentConfig) -> str:
    parts = []
    for name, value in vars(cfg).items():
        if value is not None and name not in ("out_path", "export_fields"):
            parts.append(f"{name}={value}")
    return " ".join(parts)


def export_field_csvs(dx: float, prefix: str) -> list[str]:
    """Write (x, y, value) CSV grids of the exact and discrete fields."""
    sys_ = transmission_assemble(dx)
    paths = []
    for which in ("exact", "discrete"):
        path = f"{prefix}{which}.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("x,y,value\n")
            for x, y, v in field_rows(sys_, which):
                fh.write(f"{x:.6g},{y:.6g},{v:.6e}\n")
        paths.append(path)
    return paths
