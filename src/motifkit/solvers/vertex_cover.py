"""Solver parameterized by vertex cover size.

Guess the solution's trace on the cover, then an ordered partition of its
components describing how a minimal connector set inside the independent
side glues them together; realize connectors via bipartite matching over
color copies.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..core import Instance, SolveOutcome, connected_components
from ..combinatorics import (
    BipartiteGraph,
    iter_ordered_partitions,
    max_matching_with_cover,
)
from ..estimators import min_vertex_cover
from .common import dispatch_deletion_set, guess_space, iter_guesses, pick_by_colors


def solve_vertex_cover(
    inst: Instance, cover: Optional[Set[int]] = None
) -> SolveOutcome:
    """Exact answer; a vertex cover is computed when not supplied."""
    return dispatch_deletion_set(inst, _solve_connected, cover, min_vertex_cover,
                                 ("vertex cover", lambda r: 0))


def _solve_connected(inst: Instance, cover: Set[int]) -> Optional[List[int]]:
    g = inst.graph
    independent = [v for v in range(g.n) if v not in cover]
    # A solution of two or more vertices spans an edge, so it meets the
    # cover in a nonempty S'.
    s_list, supply = guess_space(inst, cover)
    for s_prime, remaining in iter_guesses(inst, s_list, supply):
        found = _try_guess(inst, s_prime, remaining, independent)
        if found is not None:
            return found
    return None


def _try_guess(
    inst: Instance,
    s_prime: Tuple[int, ...],
    remaining: Counter,
    independent: List[int],
) -> Optional[List[int]]:
    g = inst.graph
    if not remaining:
        # S' would be the whole solution, which it is only if connected.
        return list(s_prime) if len(connected_components(g, s_prime)) == 1 else None

    s_prime_set = set(s_prime)
    # Independent-side vertices with a neighbor in S' are the only ones that
    # can join this solution (their whole neighborhood lies in the cover).
    avail = [
        v
        for v in independent
        if any(u in s_prime_set for u in g.adjacency[v])
    ]
    if remaining - Counter(inst.coloring[v] for v in avail):
        return None

    comps = [frozenset(c) for c in connected_components(g, s_prime)]
    if len(comps) == 1:
        completion = pick_by_colors(inst, remaining, avail, set())
        if completion is None:
            return None
        return list(s_prime) + completion

    # Candidate connectors per component subset are defined by adjacency.
    nbr_comps: Dict[int, FrozenSet[int]] = {}
    for v in avail:
        touched = frozenset(
            i
            for i, comp in enumerate(comps)
            if any(u in comp for u in g.adjacency[v])
        )
        nbr_comps[v] = touched

    # Every block needs a connector that touches all of it, in any order:
    # a set partition with a block no such vertex touches is skipped whole.
    touched = set(nbr_comps.values())

    def connectable(blocks: List[List[int]]) -> bool:
        return all(any(t.issuperset(block) for t in touched) for block in blocks)

    max_l = min(len(comps), sum(remaining.values()))
    for l in range(1, max_l + 1):
        for blocks in iter_ordered_partitions(range(len(comps)), l, connectable):
            found = _try_partition(inst, s_prime, blocks, avail, nbr_comps, remaining)
            if found is not None:
                return found
    return None


def _try_partition(
    inst: Instance,
    s_prime: Tuple[int, ...],
    blocks: List[List[int]],
    avail: List[int],
    nbr_comps: Dict[int, FrozenSet[int]],
    remaining: Counter,
) -> Optional[List[int]]:
    l = len(blocks)
    earlier: Set[int] = set()
    candidates: List[List[int]] = []
    for i, block in enumerate(blocks):
        block_set = set(block)
        cand = [
            v
            for v in avail
            if block_set <= nbr_comps[v]
            and (i == 0 or nbr_comps[v] & earlier)
        ]
        if not cand:
            return None
        candidates.append(cand)
        earlier |= block_set

    # Matching between partition blocks and color copies decides whether the
    # connectors can be colored within the leftover motif.
    color_copies = [c for c in sorted(remaining) for _ in range(remaining[c])]
    edges = []
    slot_colors: List[Set[int]] = []
    for i, cand in enumerate(candidates):
        colors = {inst.coloring[v] for v in cand}
        slot_colors.append(colors)
        for j, c in enumerate(color_copies):
            if c in colors:
                edges.append((i, j))
    result = max_matching_with_cover(
        BipartiteGraph(l, len(color_copies), tuple(edges))
    )
    if result.size < l:
        return None

    # Realize distinct connector vertices: enumerate color choices per slot
    # (bounded by the motif), then match slots to concrete vertices.
    return _realize(inst, s_prime, candidates, slot_colors, remaining, avail)


def _realize(
    inst: Instance,
    s_prime: Tuple[int, ...],
    candidates: List[List[int]],
    slot_colors: List[Set[int]],
    remaining: Counter,
    avail: List[int],
) -> Optional[List[int]]:
    l = len(candidates)
    assignment: List[int] = []

    def backtrack(i: int, used: Counter) -> Optional[List[int]]:
        if i == l:
            chosen = _match_vertices(inst, candidates, assignment)
            if chosen is None:
                return None
            still = Counter(remaining)
            still.subtract(Counter(inst.coloring[v] for v in chosen))
            completion = pick_by_colors(inst, +still, avail, set(chosen))
            if completion is None:
                return None
            return list(s_prime) + chosen + completion
        for c in sorted(slot_colors[i]):
            if used[c] < remaining[c]:
                used[c] += 1
                assignment.append(c)
                out = backtrack(i + 1, used)
                if out is not None:
                    return out
                assignment.pop()
                used[c] -= 1
        return None

    return backtrack(0, Counter())


def _match_vertices(
    inst: Instance, candidates: List[List[int]], colors: List[int]
) -> Optional[List[int]]:
    """Distinct vertices, one per slot, with the prescribed colors."""
    pool = sorted({v for cand in candidates for v in cand})
    index = {v: j for j, v in enumerate(pool)}
    edges = [
        (i, index[v])
        for i, cand in enumerate(candidates)
        for v in cand
        if inst.coloring[v] == colors[i]
    ]
    result = max_matching_with_cover(
        BipartiteGraph(len(candidates), len(pool), tuple(edges))
    )
    if result.size < len(candidates):
        return None
    return [pool[j] for _, j in sorted(result.matching)]
