"""Experiment harness: parameter sweeps over the test problems, emitted as
CSV or Markdown tables.

Every experiment is deterministic for a given configuration; divergent runs
show up as flagged rows instead of aborting a sweep. The rows name the
report's columns, none of them a wall time, so identical configurations
produce byte-identical files.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, field as dc_field, fields, replace

import numpy as np

from . import __version__
from .fixedpoint import (
    DEFAULT_MAX_ITER,
    PerturbationSchedule,
    bound_direct,
    bound_nested,
    iterate_nested,
    iterate_perturbed,
    iterate_plain,
)
from .krylov import CRITERION_LABELS, TerminationCriterion, norm2
from .problems import (
    dn_iterate,
    field_grids,
    linear_nested,
    monolithic_field,
    nested_local_derivatives,
    nested_scalar,
    picard_exact_solution,
    picard_iterate,
    scalar_map,
    solution_errors,
    transmission_assemble,
)
from .problems.picard import PICARD_MAX_ITER
from .problems.transmission import INNER_GUESSES, mesh_cells

class UsageError(ValueError):
    """Invalid experiment configuration."""


class UnreadFieldError(UsageError):
    """A field set that the experiment does not read (args: experiment, field, fields read)."""

    def __str__(self) -> str:
        experiment, name, reads = self.args
        return f"{experiment} does not read {name}; it reads {', '.join(reads)}"


_READ_BY_ALL = ("experiment", "out_format", "out_path")
_POSITIVE_LISTS = ("gammas", "taus", "dxs", "outer_tols")
_NONNEGATIVE_LISTS = ("eps_values", "alphas", "betas", "ls_values", "lf_values")
OUT_FORMATS = ("csv", "md")


@dataclass
class ExperimentConfig:
    """Grid and output settings for one experiment run.

    Each experiment reads the fields of its ``_EXPERIMENTS`` entry; a field
    left ``None`` takes the entry's reference-table default (see
    ``with_defaults``). A field the experiment does not read must keep its
    dataclass default (``None``, or ``adaptive_c=1e-2`` and
    ``inner_guess="previous"``), else ``validate`` raises UsageError.
    """

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
        reads = _EXPERIMENTS[self.experiment][1]
        for f in fields(self):
            if f.name not in reads and f.name not in _READ_BY_ALL and (
                getattr(self, f.name) != f.default
            ):
                raise UnreadFieldError(self.experiment, f.name, reads)
        for what, value, allowed in (("criterion", self.criterion, CRITERION_LABELS),
                                     ("inner guess", self.inner_guess, INNER_GUESSES),
                                     ("format", self.out_format, OUT_FORMATS)):
            if value is not None and value not in allowed:  # None: unset
                raise UsageError(f"unknown {what} {value!r}; expected one of {allowed}")
        for name in ("tol", "adaptive_c"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise UsageError(f"{name} must be finite, got {value}")
        if self.adaptive_c is not None and self.adaptive_c < 0:  # zero: no perturbation
            raise UsageError(f"adaptive_c must be nonnegative, got {self.adaptive_c}")
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
        if self.max_outer is not None and (type(self.max_outer) is not int or self.max_outer < 1):
            raise UsageError(f"max_outer must be an integer >= 1, got {self.max_outer!r}")
        for dx in self.dxs or ():
            try:
                mesh_cells(dx)
            except ValueError as exc:
                raise UsageError(str(exc)) from None

    def with_defaults(self) -> ExperimentConfig:
        """A validated copy with every unset field the experiment reads set to
        its reference-table default, each grid point a contraction: L < 1, and
        L > 0 for scalar-adaptive, whose schedule c L^k must decay."""
        self.validate()
        reads = _EXPERIMENTS[self.experiment][1]
        unset = {name: reads[name] for name in reads if getattr(self, name) is None}
        cfg = replace(self, **copy.deepcopy(unset))
        ls, lf = cfg.ls_values or [], cfg.lf_values or []
        adaptive = cfg.experiment == "scalar-adaptive"  # pairs ls with lf
        if adaptive and len(ls) != len(lf):
            raise UsageError(f"scalar-adaptive pairs ls with lf, got {ls} and {lf}")
        pairs = itertools.chain(zip(ls, lf) if adaptive else itertools.product(ls, lf),
                                itertools.product(cfg.alphas or [], cfg.betas or []))
        points = [(f"gamma={g}", scalar_map(g)[1]) for g in cfg.gammas or []]
        for point, L in points + [(f"{a}*{b}", a * b) for a, b in pairs]:
            if not L < 1.0 or (adaptive and L == 0.0):
                raise UsageError(f"{cfg.experiment}: {point} gives L={L:.6g}, not in (0, 1)")
        return cfg


@dataclass
class TableReport:
    experiment: str
    rows: list[dict]
    provenance: dict = dc_field(default_factory=dict)

    @property
    def columns(self) -> list[str]:
        """The rows' keys, in order; every row holds the same ones."""
        return list(self.rows[0]) if self.rows else []


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3e}"
    return str(value)


def emit(report: TableReport, out_format: str) -> bytes:
    """Render a report as CSV or Markdown bytes (UTF-8, LF line endings).

    CSV is plain data: a header naming every column, one row per grid
    point, floats in scientific notation with 4 significant digits.
    Markdown mirrors the reference layout where one is defined for the
    experiment and falls back to a flat pipe table otherwise.
    """
    columns = report.columns
    if out_format == "csv":
        lines = [",".join(columns)]
        for row in report.rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        return ("\n".join(lines) + "\n").encode("utf-8")
    if out_format == "md":
        return _emit_markdown(report).encode("utf-8")
    raise UsageError(f"unknown format {out_format!r}; expected one of {OUT_FORMATS}")


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
        columns = report.columns
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
                cells = [_fmt(index[ov, rv, cv][fld]) for cv in col_values]
                lines.append(_pipe_row([_fmt(rv), label, *cells]))
        lines.append("")
    return lines


# --------------------------------------------------------------------------
# individual experiments
# --------------------------------------------------------------------------

def _run_scalar_direct(cfg: ExperimentConfig) -> TableReport:
    rows = []
    for gamma in cfg.gammas:
        f, L = scalar_map(gamma)
        x_star = iterate_plain(f, 0.5, tol=cfg.tol).final
        for eps in cfg.eps_values:
            schedule = PerturbationSchedule(eps)
            trace = iterate_perturbed(f, schedule, 0.5, tol=cfg.tol, max_iter=cfg.max_outer)
            err = float(abs(trace.final - x_star)[0])
            rows.append({
                "gamma": gamma,
                "L": L,
                "eps": eps,
                "error": err,
                "bound": bound_direct(eps, L),
                "outer_iterations": trace.steps,
            })
    return TableReport("scalar-direct", rows)


def _run_scalar_adaptive(cfg: ExperimentConfig) -> TableReport:
    tol, max_iter, c = cfg.tol, cfg.max_outer, cfg.adaptive_c
    rows = []
    for gamma in cfg.gammas:
        f, L = scalar_map(gamma)
        x_star = iterate_plain(f, 0.5, tol=tol).final
        schedule = PerturbationSchedule.adaptive(c, L)
        trace = iterate_perturbed(f, schedule, 0.5, tol=tol, max_iter=max_iter)
        rows.append({
            "problem": f"scalar gamma={gamma}",
            "L": L,
            "c": c,
            "error": float(abs(trace.final - x_star)[0]),
            "outer_iterations": trace.steps,
        })
    for L_S, L_F in zip(cfg.ls_values, cfg.lf_values):
        S, F = nested_scalar(L_S, L_F)
        x_star = iterate_plain(lambda x: S(F(x)), 0.5, tol=tol).final
        schedule = PerturbationSchedule.adaptive(c, L_S * L_F)
        trace = iterate_nested(S, F, schedule, schedule, 0.5, tol=tol, max_iter=max_iter)
        rows.append({
            "problem": f"nested LS={L_S} LF={L_F}",
            "L": L_S * L_F,
            "c": c,
            "error": float(abs(trace.final - x_star)[0]),
            "outer_iterations": trace.steps,
        })
    return TableReport("scalar-adaptive", rows)


def _run_linear_nested(cfg: ExperimentConfig) -> TableReport:
    rows = []
    for eps in cfg.eps_values:
        for alpha in cfg.alphas:
            for beta in cfg.betas:
                S, F, x_star = linear_nested(alpha, beta)
                schedule = PerturbationSchedule(eps)
                trace = iterate_nested(S, F, schedule, schedule, np.zeros(2), cfg.tol,
                                       cfg.max_outer)
                err = norm2(trace.final - x_star)
                rows.append({
                    "eps": eps,
                    "alpha": alpha,
                    "beta": beta,
                    "bound": bound_nested(eps, eps, alpha, beta),
                    "error": err,
                    "outer_iterations": trace.steps,
                })
    return TableReport("linear-nested", rows)


def _run_scalar_nested(cfg: ExperimentConfig) -> TableReport:
    tol = cfg.tol
    rows = []
    for eps in cfg.eps_values:
        for L_S in cfg.ls_values:
            for L_F in cfg.lf_values:
                S, F = nested_scalar(L_S, L_F)
                x_star = float(iterate_plain(lambda x: S(F(x)), 0.5, tol=tol).final[0])
                dS, dF = nested_local_derivatives(L_S, L_F, x_star)
                schedule = PerturbationSchedule(eps)
                trace = iterate_nested(S, F, schedule, schedule, 0.5, tol, cfg.max_outer)
                rows.append({
                    "eps": eps,
                    "L_S": L_S,
                    "L_F": L_F,
                    "global_estimate": bound_nested(eps, eps, L_S, L_F),
                    "local_estimate": bound_nested(eps, eps, dS, dF),
                    "error": float(abs(trace.final - x_star)[0]),
                    "outer_iterations": trace.steps,
                })
    return TableReport("scalar-nested", rows)


_PICARD_DEFAULT_TAUS = {
    "rel": [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7],
    "relb": [1e-1, 1e-2, 1e-3, 1e-4],
    "abs": [1e-2, 1e-3, 1e-4, 1e-5],
}


def _run_picard(cfg: ExperimentConfig) -> TableReport:
    criteria = ["rel", "abs"] if cfg.criterion is None else [cfg.criterion]
    rows = []
    exact = picard_exact_solution()
    for label in criteria:
        taus = _PICARD_DEFAULT_TAUS[label] if cfg.taus is None else cfg.taus
        for tau in taus:
            criterion = TerminationCriterion(label, tau)
            trace = picard_iterate(criterion, tol=cfg.tol, max_iter=cfg.max_outer)
            rows.append({
                "criterion": label,
                "tau": tau,
                "outer_iterations": trace.steps,
                "gmres_iterations": trace.total_inner_iterations,
                "residual": trace.residuals[-1],
                "error": norm2(trace.final - exact),
                "exit": trace.terminated_by.value,
            })
    report = TableReport("picard", rows)
    report.provenance["qualitative"] = True
    report.provenance["note"] = (
        "substitute problem: 1D convection-diffusion with lagged upwind "
        "velocity, n=64, viscosity=1e-2"
    )
    return report


def _transmission_runs(cfg, dx, sys_, criteria_taus, tol):
    """Shared sweep driver: yields one row dict per (criterion, tau) on
    ``sys_``, the system assembled for mesh width ``dx``."""
    for label, tau in criteria_taus:
        trace = dn_iterate(
            sys_, TerminationCriterion(label, tau), tol=tol, max_iter=cfg.max_outer,
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
        }


def _run_transmission_sweep(cfg: ExperimentConfig) -> TableReport:
    """transmission-error and transmission-iters: the same (tau, dx) sweep,
    differing only in the default criterion."""
    schemes = [(cfg.criterion, tau) for tau in cfg.taus]
    rows = []
    for dx in cfg.dxs:
        rows += _transmission_runs(cfg, dx, transmission_assemble(dx), schemes, cfg.tol)
    return TableReport(cfg.experiment, rows)


def _run_transmission_efficiency(cfg: ExperimentConfig) -> TableReport:
    """Tolerance-sweep protocol: the initial-residual-relative scheme keeps
    tau_r = 1e-1 whatever the outer tolerance; the rhs-relative and absolute
    schemes must tighten their inner tolerance to the outer one."""
    if len(cfg.dxs) != 1:
        raise UsageError(f"transmission-efficiency runs one dx, got {cfg.dxs}")
    (dx,) = cfg.dxs
    sys_ = transmission_assemble(dx)
    rows = []
    for outer_tol in cfg.outer_tols:
        schemes = [("rel", 1e-1), ("relb", outer_tol), ("abs", outer_tol)]
        for row in _transmission_runs(cfg, dx, sys_, schemes, outer_tol):
            row = {"outer_tol": outer_tol, **row}
            del row["dx"]
            rows.append(row)
    return TableReport("transmission-efficiency", rows)


# Each experiment: its runner and the config fields it reads, with the
# defaults of its reference table. Picard's None defaults are resolved by its
# runner: it sweeps both criteria, each over its own taus. Any field outside
# an entry must keep its dataclass default.
_DN_SWEEP = dict(
    taus=[1e-1, 1e-2, 1e-3, 1e-4], dxs=[0.1, 0.05], tol=1e-14, max_outer=DEFAULT_MAX_ITER,
    inner_guess="previous", export_fields=None,
)
_EXPERIMENTS = {
    "scalar-direct": (_run_scalar_direct, dict(
        gammas=[0.3, 1.145, 1.2], eps_values=[1e-1, 1e-2, 1e-3], tol=1e-14,
        max_outer=DEFAULT_MAX_ITER,
    )),
    "scalar-adaptive": (_run_scalar_adaptive, dict(
        gammas=[0.3, 1.145, 1.2], ls_values=[0.9], lf_values=[0.99], adaptive_c=1e-2,
        tol=1e-15, max_outer=DEFAULT_MAX_ITER,
    )),
    "linear-nested": (_run_linear_nested, dict(
        alphas=[0.1, 0.9, 0.99], betas=[0.1, 0.9, 0.99], eps_values=[1e-1, 1e-2, 1e-3],
        tol=1e-14, max_outer=DEFAULT_MAX_ITER,
    )),
    "scalar-nested": (_run_scalar_nested, dict(
        ls_values=[0.1, 0.9, 0.99], lf_values=[0.01, 0.1, 0.9, 0.99],
        eps_values=[1e-1, 1e-2, 1e-3], tol=1e-14, max_outer=DEFAULT_MAX_ITER,
    )),
    "picard": (_run_picard, dict(criterion=None, taus=None, tol=1e-12, max_outer=PICARD_MAX_ITER)),
    "transmission-error": (_run_transmission_sweep, dict(criterion="abs", **_DN_SWEEP)),
    "transmission-iters": (_run_transmission_sweep, dict(criterion="rel", **_DN_SWEEP)),
    "transmission-efficiency": (_run_transmission_efficiency, dict(
        outer_tols=[1e-1, 1e-2, 1e-3, 1e-4], dxs=[0.05], max_outer=DEFAULT_MAX_ITER,
        inner_guess="previous", export_fields=None,
    )),
}
EXPERIMENT_IDS = tuple(_EXPERIMENTS)


def run_experiment(cfg: ExperimentConfig) -> TableReport:
    """Run the experiment on a validated copy of ``cfg`` with its defaults
    filled in; the provenance echoes ``cfg`` as given."""
    filled = cfg.with_defaults()
    report = _EXPERIMENTS[cfg.experiment][0](filled)
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
    """Write (x, y, value) CSV grids of the exact and discrete fields; the
    discrete field is the oracle, solved from the mesh alone."""
    x, y, exact, discrete = field_grids(dx, monolithic_field(dx))
    # x is fixed down each column, y along each row: one % formats a grid row
    xs = [f"{xv:.6g}," for xv in x[0].tolist()]
    cells = [xs[0], *["%.6e\n" + xp for xp in xs[1:]], "%.6e\n"]
    paths = []
    for which, values in (("exact", exact), ("discrete", discrete)):
        path = f"{prefix}{which}.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("x,y,value\n")
            for yv, row in zip(y[:, 0].tolist(), values.tolist()):
                fh.write(f"{yv:.6g},".join(cells) % tuple(row))
        paths.append(path)
    return paths
