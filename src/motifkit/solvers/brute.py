"""Exhaustive oracle: enumerate connected vertex sets of the motif's size."""

from __future__ import annotations

from ..core import CapacityError, Instance, SolveOutcome, verify_solution
from .common import iter_connected

BRUTE_CAP = 25


def solve_brute(inst: Instance) -> SolveOutcome:
    """Exact answer by trying out all connected vertex subsets.

    A partial set whose colors no longer fit in the motif is not extended.
    """
    if inst.graph.n > BRUTE_CAP:
        raise CapacityError(f"brute solver capped at n <= {BRUTE_CAP}")
    motif = inst.motif

    def fits(sub):
        return motif.contains(inst.coloring[v] for v in sub)

    for candidate in iter_connected(inst.graph.adjacency, motif.total, fits):
        if verify_solution(inst, candidate):
            return SolveOutcome.yes(candidate)
    return SolveOutcome.no()
