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
    CriterionKind,
    SolveReport,
    TerminationCriterion,
    absolute,
    cg_solve,
    gmres_solve,
    relative_to_initial,
    relative_to_rhs,
)
from .linalg import (
    DimensionMismatchError,
    SingularMatrixError,
    norm2,
    solve_direct,
)

__version__ = "0.1.0"

__all__ = [
    "CriterionKind",
    "DimensionMismatchError",
    "FixedPointTrace",
    "NotAContractionError",
    "PerturbationSchedule",
    "SingularMatrixError",
    "SolveReport",
    "Termination",
    "TerminationCriterion",
    "absolute",
    "bound_direct",
    "bound_nested",
    "cg_solve",
    "gmres_solve",
    "iterate_nested",
    "iterate_perturbed",
    "iterate_plain",
    "norm2",
    "relative_to_initial",
    "relative_to_rhs",
    "solve_direct",
    "__version__",
]
