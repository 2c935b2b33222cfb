"""Inexact fixed point iterations with Krylov inner solvers.

Library plus experiment harness for studying how the termination criterion
of an inner iterative linear solver controls the error of an outer fixed
point iteration, with the Picard iteration and the Dirichlet-Neumann
coupling of a transmission problem as the worked applications.
"""

from .fixedpoint import (
    FixedPointTrace,
    NotAContractionError,
    PerturbationSchedule,
    Termination,
    bound_direct,
    bound_nested,
    iterate_nested,
    iterate_perturbed,
    iterate_plain,
)
from .krylov import (
    CRITERION_LABELS,
    DimensionMismatchError,
    SolveReport,
    TerminationCriterion,
    cg_solve,
    gmres_solve,
    norm2,
)

__version__ = "0.1.0"

__all__ = [
    "CRITERION_LABELS",
    "DimensionMismatchError",
    "FixedPointTrace",
    "NotAContractionError",
    "PerturbationSchedule",
    "SolveReport",
    "Termination",
    "TerminationCriterion",
    "bound_direct",
    "bound_nested",
    "cg_solve",
    "gmres_solve",
    "iterate_nested",
    "iterate_perturbed",
    "iterate_plain",
    "norm2",
    "__version__",
]
