"""Outer drivers for plain, perturbed and nested perturbed fixed point iterations.

The model: x = f(x) with Lipschitz constant L < 1 has a unique fixed point
x*. Running x^{k+1} = f(x^k) + eps_k instead lands, for constant eps, at a
perturbed fixed point x_eps with ||x_eps - x*|| <= eps / (1 - L); the
iteration recovers x* itself iff eps_k -> 0. The nested variant
x^{k+1} = S(F(x^k) + eps_k) + delta_k obeys
||x_eps - x*|| <= (eps L_S + delta) / (1 - L_S L_F).

Scalar problems ride along as length-1 vectors so one outer loop, ``_drive``,
serves every driver: the three here, Picard and Dirichlet-Neumann, each
supplying a step and, where it does not test the increment, an exit test.
Maps may optionally return (value, SolveReport) pairs; that is how
iterations whose function evaluation is itself an inner solve feed their
solve metadata into the trace.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .krylov import SolveReport
from .linalg import norm2

DEFAULT_MAX_ITER = 100_000
DIVERGENCE_LIMIT = 1e12
_UNIT_NORM_TOL = 1e-12


class Termination(enum.Enum):
    INCREMENT_BELOW_TOL = "increment_below_tol"
    RESIDUAL_BELOW_TOL = "residual_below_tol"
    INNER_STAGNATION = "inner_stagnation"
    MAX_ITER = "max_iter"
    DIVERGED = "diverged"


class NotAContractionError(ValueError):
    """An error bound was requested outside its contraction hypothesis."""


@dataclass
class FixedPointTrace:
    """Full history of one outer iteration run.

    ``increments[k] = ||iterates[k+1] - iterates[k]||_2``, so there is one
    increment fewer than iterates. ``inner_reports`` holds, per outer step,
    the solve reports of that step (empty for maps evaluated exactly).
    ``residuals`` holds the per-step nonlinear residual norms of a Picard
    run, whose outer exit tests them instead of the increment (``None`` for
    other drivers). ``state`` holds a driver's final state beyond the
    iterate, when it has one (the subdomain solutions of a Dirichlet-Neumann
    run).
    """

    iterates: list[np.ndarray]
    increments: list[float]
    inner_reports: list[list[SolveReport]]
    terminated_by: Termination
    outer_tol: float
    residuals: list[float] | None = None
    state: object | None = None

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]

    @property
    def steps(self) -> int:
        return len(self.increments)

    @property
    def total_inner_iterations(self) -> int:
        return sum(r.iterations for step in self.inner_reports for r in step)


class ScheduleKind(enum.Enum):
    NONE = "none"
    CONSTANT = "constant"
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class PerturbationSchedule:
    """Rule producing the perturbation vector added at outer step k.

    ``direction=None`` means "normalized all-ones", resolved against the
    iterate dimension at application time; an explicit direction is
    normalized once and must have unit norm.
    """

    kind: ScheduleKind
    magnitude0: float = 0.0
    decay: float = 1.0  # adaptive: eps_k = magnitude0 * decay**k
    direction: np.ndarray | None = None

    def __post_init__(self):
        if self.kind is ScheduleKind.ADAPTIVE and not 0.0 < self.decay < 1.0:
            raise ValueError(f"adaptive decay must lie in (0, 1), got {self.decay}")
        if self.direction is not None:
            d = np.atleast_1d(np.asarray(self.direction, dtype=float))
            nd = norm2(d)
            if abs(nd - 1.0) > _UNIT_NORM_TOL:
                d = d / nd
            object.__setattr__(self, "direction", d)

    @staticmethod
    def none() -> "PerturbationSchedule":
        return PerturbationSchedule(ScheduleKind.NONE)

    @staticmethod
    def constant(magnitude: float, direction=None) -> "PerturbationSchedule":
        return PerturbationSchedule(ScheduleKind.CONSTANT, magnitude, 1.0, direction)

    @staticmethod
    def adaptive(c: float, L: float, direction=None) -> "PerturbationSchedule":
        return PerturbationSchedule(ScheduleKind.ADAPTIVE, c, L, direction)

    def magnitude(self, k: int) -> float:
        if self.kind is ScheduleKind.NONE:
            return 0.0
        if self.kind is ScheduleKind.CONSTANT:
            return self.magnitude0
        return self.magnitude0 * self.decay**k

    def vector(self, k: int, size: int) -> np.ndarray:
        m = self.magnitude(k)
        if m == 0.0:
            return np.zeros(size)
        if self.direction is None:
            return np.full(size, m / math.sqrt(size))
        if self.direction.shape[0] != size:
            raise ValueError(
                f"direction has length {self.direction.shape[0]}, iterate has {size}"
            )
        return m * self.direction


def bound_direct(eps: float, L: float) -> float:
    """Error bound eps / (1 - L) for a constant perturbation of size eps."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if not 0.0 < L < 1.0:
        raise NotAContractionError(f"need 0 < L < 1, got L={L}")
    return eps / (1.0 - L)


def bound_nested(eps: float, delta: float, L_S: float, L_F: float) -> float:
    """Error bound (eps * L_S + delta) / (1 - L_S L_F) for the nested case."""
    if min(L_S, L_F) < 0 or L_S * L_F >= 1.0:
        raise NotAContractionError(
            f"need L_S, L_F >= 0 with L_S*L_F < 1, got {L_S}, {L_F}"
        )
    return (eps * L_S + delta) / (1.0 - L_S * L_F)


def _as_state(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=float))


def _call(f, x):
    """Evaluate a map that may return a bare vector or (vector, report(s))."""
    out = f(x)
    if isinstance(out, tuple):
        value, reports = out
        if isinstance(reports, SolveReport):
            reports = [reports]
        return _as_state(value), list(reports)
    return _as_state(out), []


def _drive(step, x0, tol: float, max_iter: int, exit_test=None) -> FixedPointTrace:
    """The outer loop of every driver: step(x, k) -> (next iterate, reports).

    Each step exits on divergence, then on inner stagnation, then when
    ``exit_test(y, inc)`` returns a Termination; the default tests inc <= tol.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if exit_test is None:
        def exit_test(y, inc):
            return Termination.INCREMENT_BELOW_TOL if inc <= tol else None
    x = _as_state(x0)
    iterates = [x]
    increments: list[float] = []
    inner_reports: list[list[SolveReport]] = []
    terminated = Termination.MAX_ITER
    for k in range(max_iter):
        y, reports = step(x, k)
        inc = norm2(y - x)
        iterates.append(y)
        increments.append(inc)
        inner_reports.append(reports)
        x = y
        if not np.all(np.isfinite(y)) or inc > DIVERGENCE_LIMIT:
            terminated = Termination.DIVERGED
            break
        if reports and inc == 0.0 and all(r.iterations == 0 for r in reports):
            terminated = Termination.INNER_STAGNATION
            break
        verdict = exit_test(y, inc)
        if verdict is not None:
            terminated = verdict
            break
    return FixedPointTrace(iterates, increments, inner_reports, terminated, tol)


def iterate_plain(
    f: Callable,
    x0,
    tol: float,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FixedPointTrace:
    """Run x^{k+1} = f(x^k) until the increment drops below ``tol``."""

    def step(x, k):
        return _call(f, x)

    return _drive(step, x0, tol, max_iter)


def iterate_perturbed(
    f: Callable,
    schedule: PerturbationSchedule,
    x0,
    tol: float,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FixedPointTrace:
    """Run x^{k+1} = f(x^k) + eps_k with eps_k drawn from ``schedule``."""

    def step(x, k):
        y, reports = _call(f, x)
        return y + schedule.vector(k, y.shape[0]), reports

    return _drive(step, x0, tol, max_iter)


def iterate_nested(
    S: Callable,
    F: Callable,
    eps_schedule: PerturbationSchedule,
    delta_schedule: PerturbationSchedule,
    x0,
    tol: float,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FixedPointTrace:
    """Run x^{k+1} = S(F(x^k) + eps_k) + delta_k.

    With both schedules None and report-returning S, F this is the implicit
    mode: the perturbations are whatever the inner solves left behind, and
    the trace collects their reports.
    """

    def step(x, k):
        inner, rep_f = _call(F, x)
        inner = inner + eps_schedule.vector(k, inner.shape[0])
        outer, rep_s = _call(S, inner)
        outer = outer + delta_schedule.vector(k, outer.shape[0])
        return outer, rep_f + rep_s

    return _drive(step, x0, tol, max_iter)
