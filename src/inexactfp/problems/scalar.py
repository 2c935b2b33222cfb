"""Scalar test problems: x = e^(g x)/4 and the nested x = 0.25 g1 e^(g2 x^2).

Both live on [0, 1], where the Lipschitz constants have closed forms:
g e^g / 4 for the direct map, and for the nested composition S(F(x)) with
S(x) = 0.25 g1 e^x, F(x) = g2 x^2 the factors are L_S = 0.25 g1 e and
L_F = 2 g2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScalarMapSpec:
    """Parameters of the direct scalar problem on [0, 1]."""

    gamma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")

    @property
    def lipschitz(self) -> float:
        return self.gamma * math.exp(self.gamma) / 4.0


def scalar_map(spec: ScalarMapSpec):
    """Return (f, L): the map x -> e^(gamma x)/4 and its analytic Lipschitz
    constant, as ``nested_scalar`` returns its constants."""
    gamma = spec.gamma

    def f(x):
        return np.exp(gamma * x) / 4.0

    return f, spec.lipschitz


@dataclass(frozen=True)
class NestedScalarSpec:
    """Parameters of the nested scalar problem on [0, 1]."""

    gamma1: float
    gamma2: float

    @property
    def L_S(self) -> float:
        return 0.25 * self.gamma1 * math.e

    @property
    def L_F(self) -> float:
        return 2.0 * self.gamma2

    @classmethod
    def from_lipschitz(cls, L_S: float, L_F: float) -> "NestedScalarSpec":
        """Invert the constants: gamma1 = 4 L_S / e, gamma2 = L_F / 2."""
        return cls(gamma1=4.0 * L_S / math.e, gamma2=L_F / 2.0)


def nested_scalar(spec: NestedScalarSpec):
    """Return (S, F, L_S, L_F) for x = S(F(x)) = 0.25 g1 e^(g2 x^2)."""
    g1, g2 = spec.gamma1, spec.gamma2

    def S(y):
        return 0.25 * g1 * np.exp(y)

    def F(x):
        return g2 * x**2

    return S, F, spec.L_S, spec.L_F


def nested_local_derivatives(spec: NestedScalarSpec, x_star: float):
    """(S'(x*), F'(x*)): local slopes at the solution, both evaluated at x*.

    Feeds the local variant of the nested error estimate; both functions are
    monotone so the derivative at the solution is a meaningful local
    Lipschitz constant.
    """
    dS = 0.25 * spec.gamma1 * math.exp(x_star)
    dF = 2.0 * spec.gamma2 * x_star
    return dS, dF
