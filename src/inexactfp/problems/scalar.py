"""Scalar test problems: x = e^(g x)/4 and the nested x = 0.25 g1 e^(g2 x^2).

Both live on [0, 1], where the Lipschitz constants have closed forms:
g e^g / 4 for the direct map, and for the nested composition S(F(x)) with
S(x) = 0.25 g1 e^x, F(x) = g2 x^2 the factors are L_S = 0.25 g1 e and
L_F = 2 g2.
"""

from __future__ import annotations

import math

import numpy as np


def scalar_map(gamma: float):
    """Return (f, L): the map x -> e^(gamma x)/4 and its Lipschitz constant
    gamma e^gamma / 4, or inf where e^gamma overflows float64 (gamma above
    about 709)."""
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    try:
        L = gamma * math.exp(gamma) / 4.0
    except OverflowError:
        L = math.inf

    def f(x):
        return np.exp(gamma * x) / 4.0

    return f, L


def nested_scalar(L_S: float, L_F: float):
    """Return (S, F) for x = S(F(x)) = 0.25 g1 e^(g2 x^2) with g1 = 4 L_S / e
    and g2 = L_F / 2, so that S and F have Lipschitz constants L_S and L_F."""
    g1, g2 = 4.0 * L_S / math.e, L_F / 2.0

    def S(y):
        return 0.25 * g1 * np.exp(y)

    def F(x):
        return g2 * x**2

    return S, F


def nested_local_derivatives(L_S: float, L_F: float, x_star: float):
    """(S'(x*), F'(x*)): local slopes at the solution, both evaluated at x*.

    Feeds the local variant of the nested error estimate; both functions are
    monotone so the derivative at the solution is a meaningful local
    Lipschitz constant.
    """
    g1, g2 = 4.0 * L_S / math.e, L_F / 2.0
    dS = 0.25 * g1 * math.exp(x_star)
    dF = 2.0 * g2 * x_star
    return dS, dF
