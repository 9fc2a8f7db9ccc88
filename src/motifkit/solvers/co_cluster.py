"""Solver parameterized by distance to co-cluster.

Either the solution meets at most one independent class — then the deletion
set is a vertex cover of the relevant subgraph — or it meets two classes,
and adding all intra-class edges turns the rest of the graph into a clique.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..core import Graph, Instance, Motif, SolveOutcome, connected_components, restrict
from ..estimators import co_cluster_classes, dist_to_co_cluster_set
from .common import dispatch_deletion_set
from .dist_clique import _solve_connected as _solve_dc_connected
from .vertex_cover import solve_vertex_cover


def solve_co_cluster(
    inst: Instance, deletion_set: Optional[Set[int]] = None
) -> SolveOutcome:
    """Exact answer; deletion_set (V minus a co-cluster) is computed if absent."""
    return dispatch_deletion_set(
        inst, _solve_connected, deletion_set, dist_to_co_cluster_set
    )


def _solve_connected(inst: Instance, x: Set[int]) -> Optional[List[int]]:
    g = inst.graph
    rest = [v for v in range(g.n) if v not in x]
    classes = [
        [rest[i] for i in cls] for cls in co_cluster_classes(g.induced(rest)[0])
    ]

    # Case A: the solution meets at most one class, so it lives in
    # G[X + class] where X is a vertex cover.
    if not classes:
        return _solve_on_subset(inst, sorted(x), x)
    for cls in classes:
        found = _solve_on_subset(inst, sorted(x | set(cls)), x)
        if found is not None:
            return found

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
    for i, cls_s in enumerate(classes):
        for cls_t in classes[i + 1 :]:
            for s in cls_s:
                for t in cls_t:
                    found = _try_pair(inst, completed, x, s, t)
                    if found is not None:
                        return found
    return None


def _solve_on_subset(
    inst: Instance, vertices: List[int], cover: Set[int]
) -> Optional[List[int]]:
    sub, ids = restrict(inst, vertices)
    outcome = solve_vertex_cover(sub, {i for i, v in enumerate(ids) if v in cover})
    return [ids[v] for v in outcome.witness] if outcome.is_yes else None


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
