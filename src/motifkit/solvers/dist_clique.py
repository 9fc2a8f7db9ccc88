"""Solver parameterized by distance to clique.

Guess the part of the solution inside the deletion set, then cover its
components with clique vertices via the colored-set-cover dynamic program,
and complete with leftover clique vertices of the right colors.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Set, Tuple

from ..core import Instance, SolveOutcome, connected_components
from ..csct import CsctInstance, solve_csct
from ..estimators import dist_to_clique_set
from .common import dispatch_deletion_set, pick_by_colors, search_guesses


def solve_dist_clique(
    inst: Instance, deletion_set: Optional[Set[int]] = None
) -> SolveOutcome:
    """Exact answer; deletion_set (V minus a clique) is computed if absent."""
    return dispatch_deletion_set(inst, _solve_connected, deletion_set, dist_to_clique_set,
                                 ("distance-to-clique set", lambda r: r - 1))


def _solve_connected(inst: Instance, s: Set[int]) -> Optional[List[int]]:
    g = inst.graph
    motif = inst.motif
    clique = [v for v in range(g.n) if v not in s]

    # Solution entirely inside the clique: any color-feasible pick works.
    picks = pick_by_colors(inst, motif.as_counter(), clique, set())
    if picks is not None:
        return picks

    # Per-vertex adjacency into S as a bitmask, for fast set construction,
    # filled from S's side: only S's rows are walked.
    s_index = {v: i for i, v in enumerate(sorted(s))}
    nbr_mask = [0] * g.n
    for u, i in s_index.items():
        for v in g.adjacency[u]:
            nbr_mask[v] |= 1 << i

    # The clique part has exactly the colors a guess leaves over.
    return search_guesses(inst, s, lambda s_prime, remaining: _try_guess(
        inst, s_prime, remaining, clique, s_index, nbr_mask))


def _try_guess(
    inst: Instance,
    s_prime: Tuple[int, ...],
    remaining: Counter,
    clique: List[int],
    s_index: Dict[int, int],
    nbr_mask: List[int],
) -> Optional[List[int]]:
    comps = connected_components(inst.graph, s_prime)
    if not remaining:
        # S' would be the whole solution, which it is only if connected.
        return list(s_prime) if len(comps) == 1 else None
    comp_masks = [
        sum(1 << s_index[v] for v in comp) for comp in comps
    ]

    # One ground element per component of G[S']; one set per clique vertex
    # whose color still has positive multiplicity, containing the components
    # it neighbors.  Deduplicate identical (color, coverage) sets: a copy
    # adds nothing to coverage and only burns threshold budget.
    seen: Dict[Tuple[int, Tuple[int, ...]], int] = {}
    sets: List[Tuple[int, Tuple[int, ...]]] = []
    set_vertex: List[int] = []
    for v in clique:
        color = inst.coloring[v]
        if remaining[color] == 0:
            continue
        elems = tuple(
            j for j, mask in enumerate(comp_masks) if nbr_mask[v] & mask
        )
        key = (color, elems)
        if key in seen:
            continue
        seen[key] = v
        sets.append(key)
        set_vertex.append(v)

    sol = solve_csct(
        CsctInstance(len(comps), tuple(sets), dict(remaining))
    )
    if sol is None:
        return None
    chosen = [set_vertex[j] for j in sol.chosen]

    still_needed = Counter(remaining)
    still_needed.subtract(Counter(inst.coloring[v] for v in chosen))
    completion = pick_by_colors(
        inst, +still_needed, clique, set(chosen)
    )
    if completion is None:
        return None
    return list(s_prime) + chosen + completion
