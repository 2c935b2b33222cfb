"""Outer drivers for plain, perturbed and nested perturbed fixed point iterations.

The model: x = f(x) with Lipschitz constant L < 1 has a unique fixed point
x*. Running x^{k+1} = f(x^k) + eps_k instead lands, for constant eps, at a
perturbed fixed point x_eps with ||x_eps - x*|| <= eps / (1 - L); the
iteration recovers x* itself iff eps_k -> 0. The nested variant
x^{k+1} = S(F(x^k) + eps_k) + delta_k obeys
||x_eps - x*|| <= (eps L_S + delta) / (1 - L_S L_F).

Scalar problems ride along as length-1 vectors so one outer loop, ``_drive``,
serves every driver and decides every exit: the three here, Picard and
Dirichlet-Neumann, each supplying a step. Picard and Dirichlet-Neumann, whose
steps are inner solves, hand their solve reports to the trace through the
step, and Picard, whose exit tests a nonlinear residual, that residual.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .krylov import SolveReport, norm2

DEFAULT_MAX_ITER = 100_000
DIVERGENCE_LIMIT = 1e12


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
    """History of one outer iteration run and its last iterate ``final``.

    ``increments[k] = ||x^{k+1} - x^k||_2``, one per step. ``inner_reports``
    holds, per outer step, the solve reports of that step (empty for maps
    evaluated exactly), with ``None`` for their ``solution`` and
    ``residual_history``.
    ``residuals`` holds the per-step nonlinear residual norms of a Picard
    run, whose outer exit tests them instead of the increment (``None`` for
    other drivers and for a run of no steps). ``state`` holds a driver's
    final state beyond the iterate, when it has one (the subdomain solutions
    of a Dirichlet-Neumann run).
    """

    final: np.ndarray
    increments: list[float]
    inner_reports: list[list[SolveReport]]
    terminated_by: Termination
    residuals: list[float] | None = None
    state: object | None = None

    @property
    def steps(self) -> int:
        return len(self.increments)

    @property
    def total_inner_iterations(self) -> int:
        return sum(r.iterations for step in self.inner_reports for r in step)


@dataclass(frozen=True)
class PerturbationSchedule:
    """The perturbation of norm eps_k = magnitude0 * decay**k added at outer
    step k, spread evenly over the iterate: eps_k * ones(n) / sqrt(n)."""

    magnitude0: float
    decay: float = 1.0

    def __post_init__(self):
        for name in ("magnitude0", "decay"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:  # so that NaN fails too
                raise ValueError(f"{name} must be nonnegative and finite, got {value}")

    @staticmethod
    def adaptive(c: float, L: float) -> "PerturbationSchedule":
        """The decaying schedule c L^k, for a contraction constant 0 < L < 1."""
        if not 0.0 < L < 1.0:
            raise ValueError(f"adaptive decay must lie in (0, 1), got {L}")
        return PerturbationSchedule(c, L)

    def magnitude(self, k: int) -> float:
        return self.magnitude0 * self.decay**k

    def vector(self, k: int, size: int) -> np.ndarray:
        return np.full(size, self.magnitude(k) / math.sqrt(size))


def bound_direct(eps: float, L: float) -> float:
    """Error bound eps / (1 - L) for a constant perturbation of size eps."""
    if not eps >= 0:  # so that NaN fails too
        raise ValueError(f"eps must be nonnegative, got {eps}")
    if not 0.0 <= L < 1.0:
        raise NotAContractionError(f"need 0 <= L < 1, got L={L}")
    return eps / (1.0 - L)


def bound_nested(eps: float, delta: float, L_S: float, L_F: float) -> float:
    """Error bound (eps * L_S + delta) / (1 - L_S L_F) for the nested case."""
    if not (eps >= 0 and delta >= 0):
        raise ValueError(f"eps and delta must be nonnegative, got {eps}, {delta}")
    if not (L_S >= 0 and L_F >= 0 and L_S * L_F < 1.0):
        raise NotAContractionError(
            f"need L_S, L_F >= 0 with L_S*L_F < 1, got {L_S}, {L_F}"
        )
    return (eps * L_S + delta) / (1.0 - L_S * L_F)


def _as_state(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=float))


def _drive(step, x0, tol: float, max_iter: int) -> FixedPointTrace:
    """The outer loop of every driver: step(x, k) -> (next iterate, reports,
    residual), ``residual`` None for a driver that tests the increment.

    Each step exits on divergence (inc > DIVERGENCE_LIMIT * max(1, first inc)),
    then on inner stagnation, then when its residual, else its increment, is <= tol.
    Inner stagnation is judged by the solve that produced the iterate, which
    a step lists last: it did 0 iterations and the iterate did not move.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    x = _as_state(x0)
    increments: list[float] = []
    inner_reports: list[list[SolveReport]] = []
    residuals: list[float] = []
    terminated = Termination.MAX_ITER
    for k in range(max_iter):
        y, reports, residual = step(x, k)
        inc = norm2(y - x)
        increments.append(inc)
        inner_reports.append([replace(r, solution=None, residual_history=None) for r in reports])
        if residual is not None:
            residuals.append(residual)
        x = y
        if not np.all(np.isfinite(y)) or inc > DIVERGENCE_LIMIT * max(1.0, increments[0]):
            terminated = Termination.DIVERGED
            break
        if inc == 0.0 and reports and reports[-1].iterations == 0:
            terminated = Termination.INNER_STAGNATION
            break
        if (inc if residual is None else residual) <= tol:
            terminated = (Termination.INCREMENT_BELOW_TOL if residual is None
                          else Termination.RESIDUAL_BELOW_TOL)
            break
    return FixedPointTrace(x, increments, inner_reports, terminated, residuals or None)


def iterate_plain(
    f: Callable,
    x0,
    tol: float,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FixedPointTrace:
    """Run x^{k+1} = f(x^k) until the increment drops below ``tol``."""

    def step(x, k):
        return _as_state(f(x)), [], None

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
        y = _as_state(f(x))
        return y + schedule.vector(k, y.shape[0]), [], None

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
    """Run x^{k+1} = S(F(x^k) + eps_k) + delta_k."""

    def step(x, k):
        inner = _as_state(F(x))
        inner = inner + eps_schedule.vector(k, inner.shape[0])
        outer = _as_state(S(inner))
        return outer + delta_schedule.vector(k, outer.shape[0]), [], None

    return _drive(step, x0, tol, max_iter)
