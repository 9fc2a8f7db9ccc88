"""Exact solvers, estimators, and hard-instance generators for Graph Motif."""

from .core import (
    CapacityError,
    Graph,
    InputError,
    Instance,
    Motif,
    SolveOutcome,
    connected_components,
    format_instance,
    format_witness,
    parse_instance,
    parse_witness,
    prune_wrong_colors,
    restrict,
    verify_solution,
    witness_failure,
)

__all__ = [
    "CapacityError",
    "Graph",
    "InputError",
    "Instance",
    "Motif",
    "SolveOutcome",
    "connected_components",
    "format_instance",
    "format_witness",
    "parse_instance",
    "parse_witness",
    "prune_wrong_colors",
    "restrict",
    "verify_solution",
    "witness_failure",
]

__version__ = "0.1.0"
