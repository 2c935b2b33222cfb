"""Minimal dense linear algebra substrate.

Vectors are 1-d float64 numpy arrays, matrices 2-d arrays. Reference
solutions of small dense systems come from ``numpy.linalg.solve``.
"""

from __future__ import annotations

import math

import numpy as np


class DimensionMismatchError(ValueError):
    """Operands with incompatible shapes were combined."""


def norm2(x: np.ndarray) -> float:
    """Euclidean norm; 0 exactly iff x is the zero vector.

    The same operations as ``np.linalg.norm`` on real input, bit for bit,
    without its dispatch or overflow warning (``np.vdot`` checks no float
    status), unless the squares of a finite nonzero x leave float64's range:
    then it is recomputed scaled by ``max|x|``. The ravel matters: a dot
    product over a strided view sums in another order than over a copy.
    """
    x = np.asarray(x, dtype=float).ravel(order="K")
    s = math.sqrt(float(np.vdot(x, x)))
    scale = float(np.abs(x).max(initial=0.0)) if not 0.0 < s < math.inf else 0.0
    return scale * norm2(x / scale) if 0.0 < scale < math.inf else s

