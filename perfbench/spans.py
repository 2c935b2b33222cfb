"""Traced run: spans around the calls into each library module, recorded
from the benchmark's own files, and the per-layer metrics made from them.

Inside a ``with Tracer()`` block each traced function is replaced by a
wrapper, bound under the same name in every module that calls it (the
library looks its callees up as module globals). Each call records a span:
name, start, end, parent span and case id. Spans stay in memory until the
benchmark writes them out at the end.

The Krylov wrappers hand the solver a counting callable around the same
operator, ``v -> np.asarray(op @ v, dtype=float)``, which is what the solvers
build from a matrix themselves, so traced and untraced runs do identical
arithmetic.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from inexactfp import experiments, fixedpoint, problems
from inexactfp.problems import picard, transmission

# span name -> (function owner, attribute) for every binding a caller uses
_TARGETS = {
    "experiments.run_experiment": [(experiments, "run_experiment")],
    "experiments.emit": [(experiments, "emit")],
    "experiments.export_field_csvs": [(experiments, "export_field_csvs")],
    "problems.transmission_assemble": [
        (experiments, "transmission_assemble"),
        (problems, "transmission_assemble"),
    ],
    "problems.dn_iterate": [(experiments, "dn_iterate")],
    "problems.dn_step": [(transmission, "dn_step")],
    "problems.solution_errors": [(experiments, "solution_errors"), (problems, "solution_errors")],
    "problems.discretization_max_error": [
        (transmission.TransmissionSystem, "discretization_max_error")
    ],
    "problems.picard_iterate": [(experiments, "picard_iterate")],
    "problems.picard_assemble": [(picard, "picard_assemble")],
    "krylov.cg": [(transmission, "cg_solve")],
    "krylov.gmres": [(picard, "gmres_solve")],
    "linalg.solve_direct": [(transmission, "solve_direct")],
}
_KRYLOV = ("krylov.cg", "krylov.gmres")
_ITERATE = ("problems.dn_iterate", "problems.picard_iterate")

# (metric, unit) of the traced run, in the order BENCHMARK.json lists them
PER_LAYER = (
    [("linalg.solve_direct.calls", "count"), ("linalg.solve_direct.s", "s")]
    + [
        (f"{k}.{m}", unit)
        for k in _KRYLOV
        for m, unit in (
            ("solves", "count"),
            ("iters", "count"),
            ("matvecs", "count"),
            ("s", "s"),
            ("us_per_iter", "us"),
            ("unconverged", "count"),
            ("unconverged_iter_share", "ratio"),
            ("zero_iter_solves", "count"),
        )
    ]
    + [
        ("problems.transmission_assemble.calls", "count"),
        ("problems.transmission_assemble.s", "s"),
        ("problems.dn_step.calls", "count"),
        ("problems.dn_step.s", "s"),
        ("problems.dn_step.self_s", "s"),
        ("problems.picard_iterate.s", "s"),
        ("problems.picard_iterate.self_s", "s"),
        ("problems.picard_assemble.calls", "count"),
        ("problems.picard_assemble.s", "s"),
        ("problems.solution_errors.s", "s"),
        ("problems.discretization_max_error.s", "s"),
        ("fixedpoint.outer_steps", "count"),
    ]
    + [(f"fixedpoint.exit.{t.value}", "count") for t in fixedpoint.Termination]
    + [
        ("experiments.run_experiment.s", "s"),
        ("experiments.run_experiment.self_s", "s"),
        ("experiments.emit.s", "s"),
        ("experiments.emit.bytes", "bytes"),
        ("experiments.export_field_csvs.s", "s"),
        ("experiments.export_field_csvs.bytes", "bytes"),
        ("trace.spans", "count"),
        ("trace.overhead_s", "s"),
    ]
)


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    case: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


class Tracer:
    """Records spans while installed; ``case`` labels the spans of the
    current case (the benchmark sets it before each case starts)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.case: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for name, bindings in _TARGETS.items():
            original = getattr(*bindings[0])
            wrapper = self._wrap(name, original)
            for owner, attr in bindings:
                if getattr(owner, attr) is not original:
                    raise RuntimeError(f"{owner.__name__}.{attr} is not the function traced as {name}")
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {}
            if name in _KRYLOV:
                args = (_counting(args[0], attrs),) + args[1:]
            span = Span(len(self.spans), name, 0, 0, self._stack[-1] if self._stack else None,
                        self.case, attrs)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
            _record_result(name, result, attrs)
            return result

        return traced

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
                    "parent": s.parent, "case": s.case, **s.attrs,
                }) + "\n")


def _counting(op, attrs):
    attrs["matvecs"] = 0
    if callable(op) and not sp.issparse(op) and not isinstance(op, np.ndarray):
        apply = op
    else:
        def apply(v):
            return np.asarray(op @ v, dtype=float)

    def counted(v):
        attrs["matvecs"] += 1
        return apply(v)

    return counted


def _record_result(name, result, attrs):
    if name in _KRYLOV:
        attrs["iterations"] = result.iterations
        attrs["converged"] = result.converged
    elif name in _ITERATE:
        attrs["steps"] = result.steps
        attrs["exit"] = result.terminated_by.value
    elif name == "experiments.emit":
        attrs["bytes"] = len(result)
    elif name == "experiments.export_field_csvs":
        attrs["bytes"] = sum(os.path.getsize(p) for p in result)


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one traced pass (all spans of that pass)."""
    children_s: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            children_s[s.parent] = children_s.get(s.parent, 0.0) + s.seconds
    totals: dict[str, dict] = {}
    for s in spans:
        t = totals.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["s"] += s.seconds
        # calls are sequential, so direct children never overlap
        t["self_s"] += s.seconds - children_s.get(s.id, 0.0)

    metrics: dict[str, float] = {}
    for name, t in totals.items():
        for key, value in t.items():
            metrics[f"{name}.{key}"] = value
    for k in _KRYLOV:
        solves = [s for s in spans if s.name == k]
        iters = sum(s.attrs["iterations"] for s in solves)
        wasted = sum(s.attrs["iterations"] for s in solves if not s.attrs["converged"])
        seconds = sum(s.seconds for s in solves)
        metrics.update({
            f"{k}.solves": len(solves),
            f"{k}.iters": iters,
            f"{k}.matvecs": sum(s.attrs["matvecs"] for s in solves),
            f"{k}.s": seconds,
            f"{k}.us_per_iter": seconds / iters * 1e6 if iters else 0.0,
            f"{k}.unconverged": sum(not s.attrs["converged"] for s in solves),
            f"{k}.unconverged_iter_share": wasted / iters if iters else 0.0,
            f"{k}.zero_iter_solves": sum(s.attrs["iterations"] == 0 for s in solves),
        })
    runs = [s for s in spans if s.name in _ITERATE]
    metrics["fixedpoint.outer_steps"] = sum(s.attrs["steps"] for s in runs)
    for t in fixedpoint.Termination:
        metrics[f"fixedpoint.exit.{t.value}"] = sum(s.attrs["exit"] == t.value for s in runs)
    for name in ("experiments.emit", "experiments.export_field_csvs"):
        metrics[f"{name}.bytes"] = sum(s.attrs["bytes"] for s in spans if s.name == name)
    metrics["trace.spans"] = len(spans)
    return metrics
