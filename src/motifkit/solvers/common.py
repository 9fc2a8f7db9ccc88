"""Shared plumbing: per-component dispatch and greedy completion helpers."""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

from ..core import (
    Instance,
    SolveOutcome,
    connected_components,
    prune_wrong_colors,
    verify_solution,
)


def dispatch_components(
    inst: Instance,
    solve_connected: Callable[[Instance], SolveOutcome],
) -> SolveOutcome:
    """dispatch_components_with_cover without a cover."""
    return dispatch_components_with_cover(inst, [], lambda sub, _: solve_connected(sub))


def dispatch_components_with_cover(
    inst: Instance,
    cover: Sequence[Sequence[int]],
    solve_connected: Callable[[Instance, List[List[int]]], SolveOutcome],
) -> SolveOutcome:
    """Prune off-color vertices, then try each connected component.

    A solution is connected, so it lives inside a single component; the motif
    is passed through unchanged and the clique cover is restricted to the
    component.  Witnesses are mapped back to original ids and verified.
    """
    pruned, remap = prune_wrong_colors(inst)
    back = {i: v for v, i in remap.items()}
    if pruned.graph.n == 0:
        return SolveOutcome.no()
    pruned_cover = [
        [remap[v] for v in clique if v in remap] for clique in cover
    ]
    for comp in connected_components(pruned.graph, range(pruned.graph.n)):
        if len(comp) < inst.motif.total:
            continue
        sub, sub_remap = pruned.graph.induced(comp)
        sub_back = {i: v for v, i in sub_remap.items()}
        coloring = tuple(pruned.coloring[v] for v in sorted(sub_remap))
        sub_cover = [
            [sub_remap[v] for v in clique if v in sub_remap]
            for clique in pruned_cover
        ]
        sub_cover = [c for c in sub_cover if c]
        outcome = solve_connected(Instance(sub, coloring, inst.motif), sub_cover)
        if outcome.is_yes:
            witness = [back[sub_back[v]] for v in outcome.witness]
            # An explicit check, not an assert, so it also runs under -O.
            if not verify_solution(inst, witness):
                raise AssertionError(f"solver returned an invalid witness {witness}")
            return SolveOutcome.yes(witness)
    return SolveOutcome.no()


def pick_by_colors(
    inst: Instance, needed: Counter, pool: Iterable[int], exclude: Set[int]
) -> Optional[List[int]]:
    """Smallest-id vertices from pool realizing the needed color counts."""
    remaining = Counter(needed)
    picks: List[int] = []
    for v in sorted(set(pool) - exclude):
        if remaining[inst.coloring[v]] > 0:
            remaining[inst.coloring[v]] -= 1
            picks.append(v)
    if any(cnt > 0 for cnt in remaining.values()):
        return None
    return picks


def try_witness(inst: Instance, vertices: Iterable[int]) -> Optional[SolveOutcome]:
    """Verified Yes outcome, or None if the candidate fails the checks."""
    vs = sorted(set(vertices))
    if verify_solution(inst, vs):
        return SolveOutcome.yes(vs)
    return None
