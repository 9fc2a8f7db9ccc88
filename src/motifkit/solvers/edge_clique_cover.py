"""Solver using a supplied edge clique cover.

Guess which cover cliques meet the solution, replace them by a bipartite
incidence graph with a fresh color on the clique side, and dispatch to the
vertex-cover solver.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Sequence

from ..core import Graph, InputError, Instance, Motif, SolveOutcome
from ..estimators import validate_clique_cover
from .common import dispatch_components, iter_connected, restrict_family
from .vertex_cover import _solve_connected as _solve_vc_connected


def solve_edge_clique_cover(
    inst: Instance, cover: Sequence[Sequence[int]]
) -> SolveOutcome:
    """Exact answer given a family of cliques containing every edge."""
    if not validate_clique_cover(inst.graph, cover, "edge-cover"):
        raise InputError("supplied family is not an edge clique cover")
    return dispatch_components(
        inst, lambda sub, ids: _solve_connected(sub, restrict_family(cover, ids))
    )


def _solve_connected(inst: Instance, cover: List[List[int]]) -> Optional[List[int]]:
    g = inst.graph
    motif = inst.motif
    cliques = [sorted(set(c)) for c in cover]
    # Two cliques are adjacent when they share a vertex.  Cliques covering a
    # spanning tree of the solution form a connected family of at most |M|-1
    # cliques, so only those are enumerated.
    containing: List[List[int]] = [[] for _ in range(g.n)]
    for i, clique in enumerate(cliques):
        for v in clique:
            containing[v].append(i)
    meets = [
        {j for v in clique for j in containing[v]} - {i}
        for i, clique in enumerate(cliques)
    ]
    for size in range(1, min(len(cliques), motif.total - 1) + 1):
        for family in iter_connected(meets, size):
            found = _try_family(inst, [cliques[i] for i in sorted(family)])
            if found is not None:
                return found
    return None


def _try_family(inst: Instance, family: List[List[int]]) -> Optional[List[int]]:
    motif = inst.motif
    union = sorted({v for c in family for v in c})
    counts = Counter(inst.coloring[v] for v in union)
    if any(counts[c] < m for c, m in motif.multiplicities.items()):
        return None

    # Bipartite incidence graph: clique nodes 0..k-1 (fresh color), then the
    # union vertices with their original colors.
    k = len(family)
    fresh = max(max(inst.coloring, default=0), max(motif.colors())) + 1
    index = {v: k + j for j, v in enumerate(union)}
    edges = [
        (i, index[v]) for i, clique in enumerate(family) for v in clique
    ]
    b = Graph(k + len(union), edges)
    coloring = tuple([fresh] * k + [inst.coloring[v] for v in union])
    new_motif = Motif({**motif.multiplicities, fresh: k})
    sub = Instance(b, coloring, new_motif)

    found = _solve_vc_connected(sub, set(range(k)))
    if found is None:
        return None
    return [union[w - k] for w in found if w >= k]
