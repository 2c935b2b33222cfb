"""Concrete test problems: scalar maps, a 2x2 linear system, a desk-scale
Picard problem and the two-subdomain transmission problem."""

from .linear import linear_nested
from .picard import (
    picard_assemble,
    picard_exact_solution,
    picard_forcing,
    picard_iterate,
)
from .scalar import (
    nested_local_derivatives,
    nested_scalar,
    scalar_map,
)
from .transmission import (
    DnState,
    TransmissionSystem,
    dn_iterate,
    dn_step,
    exact_solution,
    field_grids,
    monolithic_field,
    solution_errors,
    transmission_assemble,
)

__all__ = [
    "DnState",
    "TransmissionSystem",
    "dn_iterate",
    "dn_step",
    "exact_solution",
    "field_grids",
    "linear_nested",
    "monolithic_field",
    "nested_local_derivatives",
    "nested_scalar",
    "picard_assemble",
    "picard_exact_solution",
    "picard_forcing",
    "picard_iterate",
    "scalar_map",
    "solution_errors",
    "transmission_assemble",
]
