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

from ..core import (
    Graph,
    InputError,
    Instance,
    SolveOutcome,
    connected_components,
)
from ..combinatorics import (
    BipartiteGraph,
    iter_labeled_trees,
    iter_set_partitions,
    max_matching_with_cover,
)
from ..estimators import validate_clique_cover
from .common import dispatch_components, pick_by_colors, restrict_family, try_witness

TreeEdge = Tuple[int, int]
Group = int


def solve_vertex_clique_cover(
    inst: Instance, partition: Sequence[Sequence[int]]
) -> SolveOutcome:
    """Exact answer given a partition of the vertices into cliques."""
    if not validate_clique_cover(inst.graph, partition, "vertex-partition"):
        raise InputError("supplied family is not a vertex clique partition")
    return dispatch_components(
        inst, lambda sub, ids: _solve_connected(sub, restrict_family(partition, ids))
    )


def _solve_connected(inst: Instance, cliques: List[List[int]]) -> SolveOutcome:
    motif = inst.motif

    # Solutions inside a single clique: a multiset check suffices.
    for clique in cliques:
        picks = pick_by_colors(inst, motif.as_counter(), clique, set())
        if picks is not None:
            outcome = try_witness(inst, picks)
            if outcome is not None:
                return outcome

    if len(cliques) < 2 or motif.total < 2:
        return SolveOutcome.no()

    pair_edges = _transversal_edges(inst.graph, cliques)
    max_size = min(len(cliques), motif.total)
    for size in range(2, max_size + 1):
        for family in combinations(range(len(cliques)), size):
            outcome = _try_family(inst, cliques, family, pair_edges)
            if outcome is not None:
                return outcome
    return SolveOutcome.no()


def _transversal_edges(
    g: Graph, cliques: List[List[int]]
) -> Dict[Tuple[int, int], List[Tuple[int, int]]]:
    """Edges between distinct cliques, keyed by ordered clique-index pair."""
    owner = {}
    for i, clique in enumerate(cliques):
        for v in clique:
            owner[v] = i
    out: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for u, v in g.edges():
        i, j = owner[u], owner[v]
        if i == j:
            continue
        if i > j:
            i, j, u, v = j, i, v, u
        out.setdefault((i, j), []).append((u, v))
    return out


def _try_family(
    inst: Instance,
    cliques: List[List[int]],
    family: Tuple[int, ...],
    pair_edges: Dict[Tuple[int, int], List[Tuple[int, int]]],
) -> Optional[SolveOutcome]:
    motif = inst.motif
    union = [v for i in family for v in cliques[i]]
    counts = Counter(inst.coloring[v] for v in union)
    if any(counts[c] < m for c, m in motif.multiplicities.items()):
        return None

    k = len(family)
    # Adjacency between family cliques; spanning trees must live inside it.
    adj = {
        (a, b)
        for a in range(k)
        for b in range(a + 1, k)
        if (min(family[a], family[b]), max(family[a], family[b])) in pair_edges
    }
    meta = Graph(k, sorted(adj))
    if len(connected_components(meta, range(k))) != 1:
        return None

    # Color graphs per adjacent pair: which endpoint colors admit a
    # transversal edge.  A same-color pair is unusable when that color has
    # multiplicity one in the motif.
    color_graphs: Dict[Tuple[int, int], Set[Tuple[int, int]]] = {}
    for a, b in adj:
        i, j = family[a], family[b]
        if i > j:
            raise AssertionError("family indices are sorted")
        pairs = set()
        for u, v in pair_edges[(i, j)]:
            cu, cv = inst.coloring[u], inst.coloring[v]
            if cu == cv and motif.count(cu) == 1:
                continue
            pairs.add((cu, cv))
        color_graphs[(a, b)] = pairs

    for tree in iter_labeled_trees(k):
        edges = sorted(tuple(sorted(e)) for e in tree)
        if any(e not in adj for e in edges):
            continue
        if any(not color_graphs[e] for e in edges):
            continue
        outcome = _try_tree(inst, cliques, family, edges, color_graphs)
        if outcome is not None:
            return outcome
    return None


def _try_tree(
    inst: Instance,
    cliques: List[List[int]],
    family: Tuple[int, ...],
    edges: List[TreeEdge],
    color_graphs: Dict[TreeEdge, Set[Tuple[int, int]]],
) -> Optional[SolveOutcome]:
    k = len(family)
    # Endpoint slots per clique side; sharing patterns identify slots whose
    # transversal edges meet in a common vertex.
    slots_by_clique: Dict[int, List[Tuple[TreeEdge, int]]] = {
        a: [] for a in range(k)
    }
    for e in edges:
        slots_by_clique[e[0]].append((e, e[0]))
        slots_by_clique[e[1]].append((e, e[1]))

    per_clique_partitions = [
        list(iter_set_partitions(slots_by_clique[a])) for a in range(k)
    ]
    for choice in product(*per_clique_partitions):
        group_of: Dict[Tuple[TreeEdge, int], Group] = {}
        group_clique: List[int] = []
        for a, parts in enumerate(choice):
            for block in parts:
                gid = len(group_clique)
                group_clique.append(a)
                for slot in block:
                    group_of[slot] = gid
        outcome = _search_colors(
            inst,
            cliques,
            family,
            edges,
            color_graphs,
            group_of,
            group_clique,
        )
        if outcome is not None:
            return outcome
    return None


def _search_colors(
    inst: Instance,
    cliques: List[List[int]],
    family: Tuple[int, ...],
    edges: List[TreeEdge],
    color_graphs: Dict[TreeEdge, Set[Tuple[int, int]]],
    group_of: Dict[Tuple[TreeEdge, int], Group],
    group_clique: List[int],
) -> Optional[SolveOutcome]:
    motif = inst.motif
    k = len(family)
    abundance = max(1, 2 * k - 3)

    def feasible(fixed: Dict[Group, int]) -> bool:
        return all(
            cnt <= motif.count(c)
            for c, cnt in Counter(fixed.values()).items()
        )

    def classify(e: TreeEdge, fixed: Dict[Group, int]):
        gi, gj = group_of[(e, e[0])], group_of[(e, e[1])]
        return gi, gj, gi in fixed, gj in fixed

    def search(
        fixed: Dict[Group, int], resolved: Set[TreeEdge], abundant: Set[TreeEdge]
    ) -> Optional[SolveOutcome]:
        if not feasible(fixed):
            return None
        pending = [e for e in edges if e not in resolved and e not in abundant]
        for e in pending:
            gi, gj, fi, fj = classify(e, fixed)
            pairs = color_graphs[e]
            if fi and fj:
                if (fixed[gi], fixed[gj]) not in pairs:
                    return None
                return search(fixed, resolved | {e}, abundant)
            if fi or fj:
                if fi:
                    choices = sorted({cj for ci, cj in pairs if ci == fixed[gi]})
                    target = gj
                else:
                    choices = sorted({ci for ci, cj in pairs if cj == fixed[gj]})
                    target = gi
                if len(choices) >= abundance:
                    return search(fixed, resolved, abundant | {e})
                for c in choices:
                    out = search({**fixed, target: c}, resolved, abundant)
                    if out is not None:
                        return out
                return None
            # Neither endpoint fixed: win/win on the color graph.
            left = sorted({ci for ci, _ in pairs})
            right = sorted({cj for _, cj in pairs})
            li = {c: x for x, c in enumerate(left)}
            ri = {c: x for x, c in enumerate(right)}
            b = BipartiteGraph(
                len(left), len(right), tuple((li[ci], ri[cj]) for ci, cj in pairs)
            )
            result = max_matching_with_cover(b)
            if result.size >= abundance:
                return search(fixed, resolved, abundant | {e})
            options: List[Tuple[Group, int]] = []
            options += [(gi, left[x]) for x in result.cover_left]
            options += [(gj, right[x]) for x in result.cover_right]
            for grp, c in options:
                out = search({**fixed, grp: c}, resolved, abundant)
                if out is not None:
                    return out
            return None
        # Every edge resolved or abundant: assign the remaining groups.
        return _finish(fixed)

    def _finish(fixed: Dict[Group, int]) -> Optional[SolveOutcome]:
        unfixed = [g for g in range(len(group_clique)) if g not in fixed]
        incident: Dict[Group, List[Tuple[TreeEdge, int]]] = {
            g: [] for g in range(len(group_clique))
        }
        for e in edges:
            incident[group_of[(e, e[0])]].append((e, 0))
            incident[group_of[(e, e[1])]].append((e, 1))

        def assign(idx: int, fixed: Dict[Group, int]) -> Optional[SolveOutcome]:
            if idx == len(unfixed):
                return _extract(inst, cliques, family, edges, group_of,
                                group_clique, fixed)
            g = unfixed[idx]
            a = group_clique[g]
            colors = sorted({inst.coloring[v] for v in cliques[family[a]]})
            for c in colors:
                ok = True
                for e, side in incident[g]:
                    pairs = color_graphs[e]
                    other = group_of[(e, e[1 - side])]
                    if other in fixed:
                        pair = (c, fixed[other]) if side == 0 else (fixed[other], c)
                        if pair not in pairs:
                            ok = False
                            break
                    else:
                        if side == 0 and not any(ci == c for ci, _ in pairs):
                            ok = False
                            break
                        if side == 1 and not any(cj == c for _, cj in pairs):
                            ok = False
                            break
                if not ok:
                    continue
                new_fixed = {**fixed, g: c}
                if not feasible(new_fixed):
                    continue
                out = assign(idx + 1, new_fixed)
                if out is not None:
                    return out
            return None

        return assign(0, fixed)

    return search({}, set(), set())


def _extract(
    inst: Instance,
    cliques: List[List[int]],
    family: Tuple[int, ...],
    edges: List[TreeEdge],
    group_of: Dict[Tuple[TreeEdge, int], Group],
    group_clique: List[int],
    fixed: Dict[Group, int],
) -> Optional[SolveOutcome]:
    """Bottom-up feasibility sets, then top-down vertex selection per tree."""
    g = inst.graph
    motif = inst.motif
    n_groups = len(group_clique)
    neighbors: Dict[Group, List[Group]] = {x: [] for x in range(n_groups)}
    for e in edges:
        a, b = group_of[(e, e[0])], group_of[(e, e[1])]
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
        # Top-down selection.
        chosen[root] = min(j_sets[root])
        for x in order[1:]:
            p = chosen[parent[x]]
            picks = [u for u in j_sets[x] if g.has_edge(p, u)]
            if not picks:
                return None
            chosen[x] = min(picks)

    connectors = sorted(set(chosen.values()))
    used = Counter(inst.coloring[v] for v in connectors)
    if any(cnt > motif.count(c) for c, cnt in used.items()):
        return None
    needed = motif.as_counter()
    needed.subtract(used)
    pool = [v for i in family for v in cliques[i]]
    completion = pick_by_colors(inst, +needed, pool, set(connectors))
    if completion is None:
        return None
    return try_witness(inst, connectors + completion)
