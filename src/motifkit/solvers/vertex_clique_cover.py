"""Solver using a supplied partition of the vertices into cliques.

Guess which cliques the solution meets and a spanning tree over them, then
the endpoint-sharing pattern of the tree's transversal edges.  Colors of the
endpoints are found by a matching-based win/win: color pairs with a large
matching in the pair's color graph can be fixed late, otherwise a small
vertex cover bounds the branching.  A bottom-up/top-down pass over each tree
of shared endpoints extracts concrete vertices.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core import InputError, Instance, SolveOutcome
from ..combinatorics import (
    BipartiteGraph,
    iter_set_partitions,
    iter_spanning_trees,
    max_matching_with_cover,
)
from ..estimators import validate_clique_cover
from .common import dispatch_components, iter_connected, pick_by_colors, restrict_family

TreeEdge = Tuple[int, int]
Group = int
# Endpoint color pairs (lower clique's end first) of the edges joining two
# cliques, by the pair of cliques.
ColorGraphs = Dict[Tuple[int, int], Set[Tuple[int, int]]]


def solve_vertex_clique_cover(
    inst: Instance, partition: Sequence[Sequence[int]]
) -> SolveOutcome:
    """Exact answer given a partition of the vertices into cliques."""
    if not validate_clique_cover(inst.graph, partition, "vertex-partition"):
        raise InputError("supplied family is not a vertex clique partition")
    return dispatch_components(
        inst, lambda sub, ids: _solve_connected(sub, restrict_family(partition, ids))
    )


def _solve_connected(inst: Instance, cliques: List[List[int]]) -> Optional[List[int]]:
    motif = inst.motif

    # Solutions inside a single clique: a multiset check suffices.
    for clique in cliques:
        picks = pick_by_colors(inst, motif.as_counter(), clique, set())
        if picks is not None:
            return picks

    pairs = _color_pairs(inst, cliques)
    # Cliques are adjacent when a usable transversal edge joins them; the
    # cliques a solution meets form a connected family of at most |M|.
    adjacency: List[List[int]] = [[] for _ in cliques]
    for i, j in pairs:
        adjacency[i].append(j)
        adjacency[j].append(i)
    for size in range(2, min(len(cliques), motif.total) + 1):
        for family in iter_connected(adjacency, size):
            found = _try_family(inst, cliques, tuple(sorted(family)), pairs)
            if found is not None:
                return found
    return None


def _color_pairs(inst: Instance, cliques: List[List[int]]) -> ColorGraphs:
    """The color graph of each pair i < j of cliques joined by an edge: the
    endpoint colors (in i, in j) of the edges between them.

    A same-color pair is unusable when that color has multiplicity one in
    the motif, and a clique pair left with no color pair is omitted.
    """
    owner = {}
    for i, clique in enumerate(cliques):
        for v in clique:
            owner[v] = i
    out: ColorGraphs = {}
    for u, v in inst.graph.edges():
        i, j = owner[u], owner[v]
        if i > j:
            i, j, u, v = j, i, v, u
        cu, cv = inst.coloring[u], inst.coloring[v]
        if i == j or (cu == cv and inst.motif.count(cu) == 1):
            continue
        out.setdefault((i, j), set()).add((cu, cv))
    return out


def _end_colors(
    pairs: Set[Tuple[int, int]], side: int, other: Optional[int] = None
) -> Set[int]:
    """Colors end `side` (0 or 1) of a tree edge with color graph `pairs` can
    take when its other end has color `other`, or any color if None."""
    return {p[side] for p in pairs if other is None or p[1 - side] == other}


def _try_family(
    inst: Instance,
    cliques: List[List[int]],
    family: Tuple[int, ...],
    pairs: ColorGraphs,
) -> Optional[List[int]]:
    motif = inst.motif
    union = [v for i in family for v in cliques[i]]
    counts = Counter(inst.coloring[v] for v in union)
    if any(counts[c] < m for c, m in motif.multiplicities.items()):
        return None

    # Color graphs of the family's adjacent pairs, by position in `family`;
    # spanning trees must live inside them.
    color_graphs = {
        (a, b): pairs[(i, j)]
        for (a, i), (b, j) in combinations(enumerate(family), 2)
        if (i, j) in pairs
    }
    for edges in iter_spanning_trees(len(family), color_graphs):
        found = _try_tree(inst, cliques, family, edges, color_graphs)
        if found is not None:
            return found
    return None


def _try_tree(
    inst: Instance,
    cliques: List[List[int]],
    family: Tuple[int, ...],
    edges: List[TreeEdge],
    color_graphs: ColorGraphs,
) -> Optional[List[int]]:
    # Endpoint slots (edge, side) per clique; sharing patterns group slots
    # whose transversal edges meet in a common vertex.
    slots: List[List[Tuple[TreeEdge, int]]] = [[] for _ in family]
    for e in edges:
        for side in (0, 1):
            slots[e[side]].append((e, side))
    for choice in product(*map(iter_set_partitions, slots)):
        # The groups of each tree edge's two ends, and each group's clique.
        ends: Dict[TreeEdge, List[Group]] = {e: [0, 0] for e in edges}
        group_clique: List[int] = []
        for a, parts in enumerate(choice):
            for block in parts:
                for e, side in block:
                    ends[e][side] = len(group_clique)
                group_clique.append(a)
        found = _search_colors(inst, cliques, family, ends, color_graphs, group_clique)
        if found is not None:
            return found
    return None


def _search_colors(
    inst: Instance,
    cliques: List[List[int]],
    family: Tuple[int, ...],
    ends: Dict[TreeEdge, List[Group]],
    color_graphs: ColorGraphs,
    group_clique: List[int],
) -> Optional[List[int]]:
    motif = inst.motif
    abundance = max(1, 2 * len(family) - 3)

    def fix(fixed: Dict[Group, int], grp: Group, c: int) -> Optional[Dict[Group, int]]:
        """`fixed` with group `grp` given color c, or None if that is one c
        more than the motif has."""
        if sum(x == c for x in fixed.values()) >= motif.count(c):
            return None
        return {**fixed, grp: c}

    def search(
        fixed: Dict[Group, int], resolved: Set[TreeEdge], abundant: Set[TreeEdge]
    ) -> Optional[List[int]]:
        e = next((e for e in ends if e not in resolved and e not in abundant), None)
        if e is None:
            # Every edge resolved or abundant: assign the remaining groups.
            return finish(fixed)
        g0, g1 = ends[e]
        pairs = color_graphs[e]
        if g0 in fixed and g1 in fixed:
            if (fixed[g0], fixed[g1]) not in pairs:
                return None
            return search(fixed, resolved | {e}, abundant)
        if g0 in fixed or g1 in fixed:
            side = 1 if g0 in fixed else 0
            choices = sorted(_end_colors(pairs, side, fixed[ends[e][1 - side]]))
            if len(choices) >= abundance:
                return search(fixed, resolved, abundant | {e})
            options = [(ends[e][side], c) for c in choices]
        else:
            # Neither end fixed: win/win on the color graph.
            left = sorted(_end_colors(pairs, 0))
            right = sorted(_end_colors(pairs, 1))
            li = {c: x for x, c in enumerate(left)}
            ri = {c: x for x, c in enumerate(right)}
            b = BipartiteGraph(
                len(left), len(right), tuple((li[ci], ri[cj]) for ci, cj in pairs)
            )
            result = max_matching_with_cover(b)
            if result.size >= abundance:
                return search(fixed, resolved, abundant | {e})
            options = [(g0, left[x]) for x in result.cover_left]
            options += [(g1, right[x]) for x in result.cover_right]
        for grp, c in options:
            new_fixed = fix(fixed, grp, c)
            if new_fixed is not None:
                out = search(new_fixed, resolved, abundant)
                if out is not None:
                    return out
        return None

    def finish(fixed: Dict[Group, int]) -> Optional[List[int]]:
        # Per group: (color graph, its side of the edge, the other end's group).
        incident: List[List[Tuple[Set[Tuple[int, int]], int, Group]]] = [
            [] for _ in group_clique
        ]
        for e, (g0, g1) in ends.items():
            incident[g0].append((color_graphs[e], 0, g1))
            incident[g1].append((color_graphs[e], 1, g0))

        def assign(
            unfixed: List[Group], fixed: Dict[Group, int]
        ) -> Optional[List[int]]:
            if not unfixed:
                return _extract(inst, cliques, family, ends, group_clique, fixed)
            g = unfixed[0]
            clique = cliques[family[group_clique[g]]]
            for c in sorted({inst.coloring[v] for v in clique}):
                if any(
                    c not in _end_colors(pairs, side, fixed.get(other))
                    for pairs, side, other in incident[g]
                ):
                    continue
                new_fixed = fix(fixed, g, c)
                if new_fixed is not None:
                    out = assign(unfixed[1:], new_fixed)
                    if out is not None:
                        return out
            return None

        return assign(sorted(set(range(len(group_clique))) - set(fixed)), fixed)

    return search({}, set(), set())


def _extract(
    inst: Instance,
    cliques: List[List[int]],
    family: Tuple[int, ...],
    ends: Dict[TreeEdge, List[Group]],
    group_clique: List[int],
    fixed: Dict[Group, int],
) -> Optional[List[int]]:
    """Bottom-up feasibility sets, then top-down vertex selection per tree."""
    g = inst.graph
    n_groups = len(group_clique)
    neighbors: Dict[Group, List[Group]] = {x: [] for x in range(n_groups)}
    for a, b in ends.values():
        neighbors[a].append(b)
        neighbors[b].append(a)

    def candidates(grp: Group) -> List[int]:
        clique = cliques[family[group_clique[grp]]]
        return [v for v in clique if inst.coloring[v] == fixed[grp]]

    chosen: Dict[Group, int] = {}
    seen_roots: Set[Group] = set()
    for root in range(n_groups):
        if root in seen_roots:
            continue
        # Collect this tree of the group forest.
        order: List[Group] = []
        parent: Dict[Group, Optional[Group]] = {root: None}
        stack = [root]
        while stack:
            x = stack.pop()
            order.append(x)
            seen_roots.add(x)
            for y in neighbors[x]:
                if y not in parent:
                    parent[y] = x
                    stack.append(y)
        # Bottom-up feasible vertex sets.
        j_sets: Dict[Group, List[int]] = {}
        for x in reversed(order):
            children = [y for y in neighbors[x] if parent.get(y) == x]
            j_sets[x] = [
                v
                for v in candidates(x)
                if all(
                    any(g.has_edge(v, u) for u in j_sets[y]) for y in children
                )
            ]
            if not j_sets[x]:
                return None
        # Top-down: a parent's set kept only vertices adjacent into each child's.
        chosen[root] = min(j_sets[root])
        for x in order[1:]:
            chosen[x] = min(u for u in j_sets[x] if g.has_edge(chosen[parent[x]], u))

    # The connectors fit the motif (`fix`) and the pool holds it (`_try_family`).
    connectors = sorted(set(chosen.values()))
    needed = inst.motif.as_counter() - Counter(inst.coloring[v] for v in connectors)
    pool = [v for i in family for v in cliques[i]]
    return connectors + pick_by_colors(inst, needed, pool, set(connectors))
