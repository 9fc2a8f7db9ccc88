"""Solver parameterized by distance to co-cluster.

Either the solution meets at most one independent class — then the deletion
set is a vertex cover of the relevant subgraph — or it meets two classes,
and adding all intra-class edges turns the rest of the graph into a clique.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import List, Optional, Set

from ..core import Graph, Instance, Motif, SolveOutcome, connected_components, restrict
from ..estimators import co_cluster_classes, dist_to_co_cluster_set
from .common import dispatch_deletion_set
from .dist_clique import _solve_connected as _solve_dc_connected
from .vertex_cover import _solve_connected as _solve_vc_connected


def solve_co_cluster(
    inst: Instance, deletion_set: Optional[Set[int]] = None
) -> SolveOutcome:
    """Exact answer; deletion_set (V minus a co-cluster) is computed if absent."""
    return dispatch_deletion_set(
        inst, _solve_connected, deletion_set, dist_to_co_cluster_set
    )


def _classes(g: Graph, x: Set[int]) -> List[List[int]]:
    """The independent classes of the co-cluster g minus x, in g's ids."""
    rest = [v for v in range(g.n) if v not in x]
    return [[rest[i] for i in cls] for cls in co_cluster_classes(g.induced(rest)[0])]


def kernel_calls(inst: Instance, x: Set[int]) -> int:
    """`_solve_connected`'s vc or dist-clique solves: per class and per pair
    of vertices of distinct classes (one in all with no class)."""
    sizes = [len(cls) for cls in _classes(inst.graph, x)]
    return len(sizes) + (sum(sizes) ** 2 - sum(k * k for k in sizes)) // 2 or 1


def _solve_connected(inst: Instance, x: Set[int]) -> Optional[List[int]]:
    g = inst.graph
    classes = _classes(g, x)

    # Case A: the solution meets at most one class, so it lives in a
    # component of G[X + class], on which the trace of X is a vertex cover.
    for cls in classes or [[]]:
        sub, ids = restrict(inst, sorted(x | set(cls)))
        for comp, comp_ids in sub.pruned_components:
            lift = [ids[v] for v in comp_ids]
            found = _solve_vc_connected(comp, {i for i, v in enumerate(lift) if v in x})
            if found is not None:
                return [lift[v] for v in found]

    # Case B: two vertices s, t from distinct classes are in the solution.
    # Intra-class edges are added (they cannot hurt: s and t glue the
    # classes together), making V minus X a clique.
    extra = [
        (u, v)
        for cls in classes
        for a, u in enumerate(cls)
        for v in cls[a + 1 :]
        if not g.has_edge(u, v)
    ]
    completed = Graph(g.n, g.edges() + extra)
    for cls_s, cls_t in combinations(classes, 2):
        for s, t in product(cls_s, cls_t):
            found = _try_pair(inst, completed, x, s, t)
            if found is not None:
                return found
    return None


def _try_pair(
    inst: Instance, completed: Graph, x: Set[int], s: int, t: int
) -> Optional[List[int]]:
    motif = inst.motif
    if not motif.contains([inst.coloring[s], inst.coloring[t]]):
        return None
    if motif.total == 2:
        # Vertices of distinct classes are adjacent.
        return [s, t]

    # Contract the (adjacent) pair s, t into one vertex carrying a fresh
    # color of multiplicity one, so the clique-distance solver is forced to
    # keep it.  Deleting the pair instead would be lossy: the rest of a
    # solution may only hang together through s or t.
    keep = [v for v in range(completed.n) if v not in (s, t)]
    remap = {v: i for i, v in enumerate(keep)}
    w = len(keep)
    fresh = 1 + max(max(inst.coloring), max(motif.multiplicities))
    edges = [
        (remap[u], remap[v])
        for u, v in completed.edges()
        if u in remap and v in remap
    ]
    merged_nbrs = {
        remap[u]
        for z in (s, t)
        for u in completed.adjacency[z]
        if u in remap
    }
    edges.extend((u, w) for u in sorted(merged_nbrs))
    sub = Graph(w + 1, edges)
    coloring = tuple(inst.coloring[v] for v in keep) + (fresh,)
    rest_motif = Motif(
        dict(motif.minus([inst.coloring[s], inst.coloring[t]]))
        | {fresh: 1}
    )
    sub_cover = {remap[v] for v in x if v in remap} | {w}
    # Only the component holding the contracted vertex can match.
    comp = next(
        c for c in connected_components(sub, range(sub.n)) if w in c
    )
    comp_inst, ids = restrict(Instance(sub, coloring, rest_motif), comp)
    found = _solve_dc_connected(
        comp_inst, {i for i, v in enumerate(ids) if v in sub_cover}
    )
    if found is None:
        return None
    return [keep[ids[v]] for v in found if ids[v] != w] + [s, t]
