"""Concrete test problems: scalar maps, a 2x2 linear system, a desk-scale
Picard problem and the two-subdomain transmission problem."""

from .linear import LinearNestedProblem, linear_nested
from .picard import (
    PicardProblemSpec,
    picard_assemble,
    picard_forcing,
    picard_iterate,
)
from .scalar import (
    NestedScalarSpec,
    ScalarMapSpec,
    nested_local_derivatives,
    nested_scalar,
    scalar_map,
)
from .transmission import (
    DnState,
    TransmissionSystem,
    default_forcing,
    dn_iterate,
    dn_step,
    exact_solution,
    field_rows,
    solution_errors,
    transmission_assemble,
)

__all__ = [
    "DnState",
    "LinearNestedProblem",
    "NestedScalarSpec",
    "PicardProblemSpec",
    "ScalarMapSpec",
    "TransmissionSystem",
    "default_forcing",
    "dn_iterate",
    "dn_step",
    "exact_solution",
    "field_rows",
    "linear_nested",
    "nested_local_derivatives",
    "nested_scalar",
    "picard_assemble",
    "picard_forcing",
    "picard_iterate",
    "scalar_map",
    "solution_errors",
    "transmission_assemble",
]
