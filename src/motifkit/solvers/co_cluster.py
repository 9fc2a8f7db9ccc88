"""Solver parameterized by distance to co-cluster.

Either the solution meets at most one independent class — then the deletion
set is a vertex cover of the relevant subgraph — or it meets two classes,
and adding all intra-class edges turns the rest of the graph into a clique.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import List, Optional, Set

from ..core import Graph, InputError, Instance, Motif, SolveOutcome, restrict
from ..estimators import co_cluster_classes, dist_to_co_cluster_set, is_co_cluster
from .common import dispatch_deletion_set, first_lifted
from .dist_clique import _solve_connected as _solve_dc_connected
from .vertex_cover import _solve_connected as _solve_vc_connected


def solve_co_cluster(
    inst: Instance, deletion_set: Optional[Set[int]] = None
) -> SolveOutcome:
    """Exact answer; deletion_set (V minus a co-cluster) is computed if absent."""
    g = inst.graph
    if deletion_set is not None and not is_co_cluster(
        g.induced([v for v in range(g.n) if v not in deletion_set])[0]
    ):
        raise InputError("supplied set is not a distance-to-co-cluster set")
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
        found = first_lifted(sub, lambda comp, comp_ids: _solve_vc_connected(
            comp, {i for i, v in enumerate(comp_ids) if ids[v] in x}))
        if found is not None:
            return [ids[v] for v in found]

    # Case B: two vertices s, t from distinct classes are in the solution.
    # Intra-class edges are added (they cannot hurt: s and t glue the
    # classes together), making V minus X a clique.
    completed = Graph(g.n, g.edges() + [e for cls in classes for e in combinations(cls, 2)])
    for cls_s, cls_t in combinations(classes, 2):
        for s, t in product(cls_s, cls_t):
            found = _try_pair(inst, completed, x, s, t)
            if found is not None:
                return found
    return None


def _try_pair(
    inst: Instance, completed: Graph, x: Set[int], s: int, t: int
) -> Optional[List[int]]:
    pair = [inst.coloring[s], inst.coloring[t]]
    if not inst.motif.contains(pair):
        return None
    # s and t each take a fresh color of multiplicity one, so every witness
    # holds both.  Deleting the pair instead would be lossy: the rest of a
    # solution may only hang together through s or t.  Pruning then also
    # drops the colors the pair used up.
    coloring = list(inst.coloring)
    fresh = 1 + max(max(coloring), max(inst.motif.multiplicities))
    coloring[s], coloring[t] = fresh, fresh + 1
    motif = Motif(dict(inst.motif.minus(pair)) | {fresh: 1, fresh + 1: 1})
    # Only the component holding s can match; X's trace leaves a clique.
    return first_lifted(
        Instance(completed, tuple(coloring), motif),
        lambda sub, ids: _solve_dc_connected(sub, {i for i, v in enumerate(ids) if v in x})
        if s in ids else None,
    )
