"""Structural-parameter computation: deletion sets, co-cluster classes, path
decompositions and clique-cover validation."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .core import Graph, InputError, connected_components


def _neighbour_masks(g: Graph) -> List[int]:
    """Bitmask of each vertex's neighbours."""
    bits = [1 << w for w in range(g.n)]
    return [sum(map(bits.__getitem__, adj)) for adj in g.adjacency]


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _deepen(
    n: int, limit: Optional[int], attempt: Callable[[int], Optional[int]], lower: int
) -> Optional[Set[int]]:
    """Members of the mask `attempt(k)` finds for the least k that has one.

    Tries k = lower, lower + 1, ... up to n or the limit, where `lower` is a
    lower bound on the minimum, so smaller k would fail anyway.  With a
    limit, returns None once the minimum provably exceeds it.
    """
    cap = n if limit is None else min(limit, n)
    for k in range(lower, cap + 1):
        found = attempt(k)
        if found is not None:
            return {v for v in range(n) if found >> v & 1}
    if limit is not None:
        return None
    raise AssertionError("unreachable")


def _min_cover(nbr: List[int], limit: Optional[int]) -> Optional[Set[int]]:
    """Minimum vertex cover of the graph with neighbour masks `nbr`.

    Bits of nbr[u] at or below u are ignored.  Each branch node covers, in
    turn, u and v of the first uncovered edge (u, v), u < v, taken u
    ascending then v ascending.  Covered vertices only accumulate down a
    branch, so a child resumes the scan at its parent's u.
    """
    up = [(u, mask >> (u + 1) << (u + 1)) for u, mask in enumerate(nbr)]
    up = [pair for pair in up if pair[1]]
    if not up:
        return set()
    # Disjoint edges need a cover vertex each: a greedy matching is a bound.
    matched = lower = 0
    for u, mask in up:
        rest = mask & ~matched
        if rest and not matched >> u & 1:
            matched |= 1 << u | rest & -rest
            lower += 1

    def branch(covered: int, start: int, budget: int) -> Optional[int]:
        for i in range(start, len(up)):
            u, mask = up[i]
            rest = mask & ~covered
            if rest and not covered >> u & 1:
                if budget == 0:
                    return None
                for w in (u, _lowest(rest)):
                    found = branch(covered | 1 << w, i, budget - 1)
                    if found is not None:
                        return found
                return None
        return covered

    return _deepen(len(nbr), limit, lambda k: branch(0, 0, k), lower)


def min_vertex_cover(g: Graph, limit: Optional[int] = None) -> Optional[Set[int]]:
    """A minimum vertex cover by iterative-deepening 2-way edge branching.

    With a limit, gives up and returns None once the minimum provably
    exceeds it (used for cheap parameter probing).
    """
    return _min_cover(_neighbour_masks(g), limit)


def dist_to_clique_set(g: Graph, limit: Optional[int] = None) -> Optional[Set[int]]:
    """Minimum set whose removal leaves a clique: vertex cover of the complement."""
    full = (1 << g.n) - 1
    return _min_cover([full ^ mask for mask in _neighbour_masks(g)], limit)


def _next_co_p3(
    nbr: List[int], alive: int, start: int = 0
) -> Optional[Tuple[int, int, int]]:
    """The first co-P3 (u, v, w) inside the vertex set `alive`.

    Edges (u, v), u < v, are taken u ascending then v ascending, from
    u = start on; w is the lowest vertex adjacent to neither end.
    """
    for u in range(start, len(nbr)):
        lonely = alive & ~nbr[u] & ~(1 << u)
        if not (lonely and alive >> u & 1):
            continue
        vs = nbr[u] & alive >> (u + 1) << (u + 1)
        while vs:
            v = _lowest(vs)
            ws = lonely & ~nbr[v]
            if ws:
                return u, v, _lowest(ws)
            vs ^= 1 << v
    return None


def _find_co_p3(g: Graph) -> Optional[Tuple[int, int, int]]:
    """An induced edge-plus-isolated-vertex triple, if one exists."""
    return _next_co_p3(_neighbour_masks(g), (1 << g.n) - 1)


def dist_to_co_cluster_set(
    g: Graph, limit: Optional[int] = None
) -> Optional[Set[int]]:
    """Minimum deletion set leaving a co-cluster, by 3-way branching.

    Each branch node removes, in turn, u, v and w of the first co-P3 left.
    Removing vertices creates no co-P3, so a child resumes the scan at its
    parent's u.  With a limit, returns None once the minimum provably
    exceeds it.
    """
    nbr = _neighbour_masks(g)
    full = (1 << g.n) - 1
    # Disjoint co-P3s need a deleted vertex each: a greedy packing is a bound.
    alive, lower, bad = full, 0, _next_co_p3(nbr, full)
    while bad is not None:
        alive &= ~(1 << bad[0] | 1 << bad[1] | 1 << bad[2])
        lower += 1
        bad = _next_co_p3(nbr, alive, bad[0])

    def branch(alive: int, start: int, budget: int) -> Optional[int]:
        bad = _next_co_p3(nbr, alive, start)
        if bad is None:
            return full ^ alive
        if budget == 0:
            return None
        for x in bad:
            found = branch(alive & ~(1 << x), bad[0], budget - 1)
            if found is not None:
                return found
        return None

    return _deepen(g.n, limit, lambda k: branch(full, 0, k), lower)


def is_co_cluster(g: Graph) -> bool:
    return _find_co_p3(g) is None


def co_cluster_classes(g: Graph) -> List[List[int]]:
    """Maximal independent classes of a co-cluster, by smallest vertex.

    Non-adjacency is an equivalence in a co-cluster, so a vertex's class is
    itself plus its non-neighbours, and its smallest member is the lowest
    vertex outside its neighbourhood.
    """
    if not is_co_cluster(g):
        raise InputError("graph is not a co-cluster")
    classes: Dict[int, List[int]] = {}
    for v, mask in enumerate(_neighbour_masks(g)):
        classes.setdefault(_lowest(~mask), []).append(v)
    return list(classes.values())


@dataclass
class PathComponent:
    """A maximal path of G-S in path order, with its end attachments into S."""

    vertices: Tuple[int, ...]
    first_attach: Tuple[int, ...]  # S-neighbors of the first vertex
    last_attach: Tuple[int, ...]  # S-neighbors of the last vertex


def degree3_decomposition(g: Graph) -> Tuple[Set[int], List[PathComponent]]:
    """Vertices of degree >= 3 plus the maximal paths of the rest.

    Requires a connected graph that is not a cycle; every component of G-S is
    then an induced path.
    """
    if g.n == 0:
        raise InputError("empty graph")
    if len(connected_components(g, range(g.n))) != 1:
        raise InputError("graph must be connected")
    s = {v for v in range(g.n) if g.degree(v) >= 3}
    if not s and all(g.degree(v) == 2 for v in range(g.n)):
        raise InputError("cycle graph: use the direct cycle solver")

    rest = [v for v in range(g.n) if v not in s]
    paths: List[PathComponent] = []
    for comp in connected_components(g, rest):
        inside = set(comp)
        ends = [v for v in comp if sum(1 for w in g.adjacency[v] if w in inside) <= 1]
        if not ends:
            raise InputError("cycle component in G-S; input is not as expected")
        start = min(ends)
        ordered = [start]
        prev = None
        cur = start
        while True:
            nxt = [w for w in g.adjacency[cur] if w in inside and w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            ordered.append(cur)
        assert len(ordered) == len(comp)
        first_attach = tuple(w for w in g.adjacency[ordered[0]] if w in s)
        last_attach = tuple(w for w in g.adjacency[ordered[-1]] if w in s)
        paths.append(PathComponent(tuple(ordered), first_attach, last_attach))
    return s, paths


def validate_clique_cover(g: Graph, cliques: Sequence[Sequence[int]], mode: str) -> bool:
    """Check a clique family: vertex partition or edge coverage."""
    if mode not in ("vertex-partition", "edge-cover"):
        raise InputError(f"unknown mode {mode!r}")
    for c in cliques:
        if len(set(c)) != len(c):
            return False
        if any(not (0 <= v < g.n) for v in c):
            return False
        if not g.is_clique(c):
            return False
    if mode == "vertex-partition":
        seen: Set[int] = set()
        for c in cliques:
            if seen & set(c):
                return False
            seen.update(c)
        return seen == set(range(g.n))
    covered = set()
    for c in cliques:
        covered.update((min(u, v), max(u, v)) for u, v in combinations(c, 2))
    return set(g.edges()) <= covered


@dataclass
class ParamReport:
    """Structural parameters of a graph, each with a witness set.

    Deletion-set fields are None when a probe limit was given and the
    parameter exceeds it.
    """

    vertex_cover: Optional[Set[int]]
    dist_to_clique: Optional[Set[int]]
    dist_to_co_cluster: Optional[Set[int]]
    degree3_set: Set[int]
    path_decomposition: Optional[List[PathComponent]]
    supplied_cover_valid: Dict[str, bool] = field(default_factory=dict)


def param_report(
    g: Graph,
    vertex_clique_cover: Optional[Sequence[Sequence[int]]] = None,
    edge_clique_cover: Optional[Sequence[Sequence[int]]] = None,
    limit: Optional[int] = None,
) -> ParamReport:
    degree3 = {v for v in range(g.n) if g.degree(v) >= 3}
    paths: Optional[List[PathComponent]] = None
    try:
        _, paths = degree3_decomposition(g)
    except InputError:
        paths = None
    report = ParamReport(
        vertex_cover=min_vertex_cover(g, limit),
        dist_to_clique=dist_to_clique_set(g, limit),
        dist_to_co_cluster=dist_to_co_cluster_set(g, limit),
        degree3_set=degree3,
        path_decomposition=paths,
    )
    if vertex_clique_cover is not None:
        report.supplied_cover_valid["vertex-partition"] = validate_clique_cover(
            g, vertex_clique_cover, "vertex-partition"
        )
    if edge_clique_cover is not None:
        report.supplied_cover_valid["edge-cover"] = validate_clique_cover(
            g, edge_clique_cover, "edge-cover"
        )
    return report


def greedy_vertex_clique_cover(g: Graph) -> List[List[int]]:
    """A (not necessarily minimum) partition of the vertices into cliques."""
    remaining = set(range(g.n))
    cover: List[List[int]] = []
    while remaining:
        v = min(remaining)
        clique = [v]
        for u in sorted(remaining):
            if u != v and all(g.has_edge(u, w) for w in clique):
                clique.append(u)
        remaining -= set(clique)
        cover.append(sorted(clique))
    return cover
