"""Solver parameterized by vertex cover size.

Guess the solution's trace on the cover, then an ordered partition of its
components describing how a minimal connector set inside the independent
side glues them together.  The bipartite matching of blocks to color
copies that admits a partition also colors its connectors, and each
connector is its slot's lowest candidate of the matched color.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Set, Tuple

from ..core import Instance, SolveOutcome, connected_components
from ..combinatorics import (
    BipartiteGraph,
    iter_ordered_partitions,
    max_matching_with_cover,
)
from ..estimators import min_vertex_cover
from .common import dispatch_deletion_set, pick_by_colors, search_guesses


def solve_vertex_cover(
    inst: Instance, cover: Optional[Set[int]] = None
) -> SolveOutcome:
    """Exact answer; a vertex cover is computed when not supplied."""
    return dispatch_deletion_set(inst, _solve_connected, cover, min_vertex_cover,
                                 ("vertex cover", lambda r: 0))


def _solve_connected(inst: Instance, cover: Set[int]) -> Optional[List[int]]:
    # A solution of two or more vertices spans an edge, so it meets the
    # cover in a nonempty S'.
    return search_guesses(inst, cover, lambda s_prime, remaining: _try_guess(
        inst, s_prime, remaining, cover))


def _try_guess(
    inst: Instance,
    s_prime: Tuple[int, ...],
    remaining: Counter,
    cover: Set[int],
) -> Optional[List[int]]:
    g = inst.graph
    comps = connected_components(g, s_prime)
    if not remaining:
        # S' would be the whole solution, which it is only if connected.
        return list(s_prime) if len(comps) == 1 else None

    # Independent-side vertices that touch a component of S' are the only
    # ones that can join this solution (their neighborhood lies in the cover).
    nbr_comps: Dict[int, Set[int]] = {}
    for i, comp in enumerate(comps):
        for u in comp:
            for v in g.adjacency[u]:
                if v not in cover:
                    nbr_comps.setdefault(v, set()).add(i)
    avail = sorted(nbr_comps)
    if remaining - Counter(inst.coloring[v] for v in avail):
        return None

    # Every block needs a connector that touches all of it, in any order:
    # a set partition with a block no such vertex touches is skipped whole.
    touched = {frozenset(t) for t in nbr_comps.values()}

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
    nbr_comps: Dict[int, Set[int]],
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

    # One matching of the blocks to the leftover color copies decides whether
    # the connectors can be colored within the motif, and colors them.
    color_copies = [c for c in sorted(remaining) for _ in range(remaining[c])]
    edges = []
    for i, cand in enumerate(candidates):
        colors = {inst.coloring[v] for v in cand}
        for j, c in enumerate(color_copies):
            if c in colors:
                edges.append((i, j))
    result = max_matching_with_cover(
        BipartiteGraph(l, len(color_copies), tuple(edges))
    )
    if result.size < l:
        return None

    # Each slot takes its lowest candidate of its matched color.  Were two
    # slots i < j to take one vertex, merging block j into block i would give
    # a partition one block shorter that an earlier level realized.
    chosen = [
        next(v for v in cand if inst.coloring[v] == color_copies[j])
        for cand, (_, j) in zip(candidates, sorted(result.matching))
    ]
    # The connectors are `avail` vertices within `remaining`.
    still = remaining - Counter(inst.coloring[v] for v in chosen)
    return list(s_prime) + chosen + pick_by_colors(inst, still, avail, set(chosen))
