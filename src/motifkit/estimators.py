"""Structural-parameter computation: deletion sets, co-cluster classes, path
decompositions and clique-cover validation."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .core import Graph, InputError, connected_components


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


Obstacle = Tuple[int, ...]
Search = Callable[[int], Optional[Set[int]]]


def _deepen(
    n: int, limit: Optional[int], attempt: Search, lower: int = 0
) -> Optional[Set[int]]:
    """What `attempt(k)` finds for the least k from `lower` on that finds
    one; smaller k are known to fail.  With a limit, returns None once the
    minimum provably exceeds it; k = n always finds one."""
    for k in range(lower, (n if limit is None else min(limit, n)) + 1):
        found = attempt(k)
        if found is not None:
            return found
    return None


def _hitting_set(
    n: int,
    first: Callable[[int, int], Optional[Obstacle]],
    packing: Callable[[int, Obstacle, int], int],
) -> Search:
    """Bounded search tree for a set of the vertices 0..n-1 that hits every
    obstacle of a family, which two functions of the mask `left` of the
    vertices not yet removed describe: `first(left, start)`, the first
    obstacle inside left (a tuple of vertices, of one size for the whole
    family; none lies before start), and `packing(left, obstacle, cap)`, a
    lower bound on how many vertices of left any hitting set needs, got by
    a greedy packing of disjoint subgraphs of left from `obstacle`, the
    first one, on, and counted up to cap + 1.

    Returns attempt(budget): the first set of at most budget vertices found,
    or None.  Each branch node removes, in turn, each vertex of the first
    obstacle left; removing vertices creates no obstacle, so its children
    resume the scan there.  A node gives up when its packing needs more
    vertices than its budget: no set below it fits, so the first set found
    is the same as without the check.
    """
    full = (1 << n) - 1
    root = first(full, 0)
    lower = 0 if root is None else packing(full, root, n)

    def branch(left: int, start: int, budget: int) -> Optional[int]:
        hit = first(left, start)
        if hit is None:
            return left
        # A packing counts at most |left| - 1: all of left but one vertex is
        # a hitting set, since every obstacle has two vertices or more.
        if budget == 0 or (
            budget < left.bit_count() - 1 and packing(left, hit, budget) > budget
        ):
            return None
        for x in hit:
            found = branch(left & ~(1 << x), hit[0], budget - 1)
            if found is not None:
                return found
        return None

    def attempt(budget: int) -> Optional[Set[int]]:
        left = None if budget < lower else branch(full, 0, budget)
        return None if left is None else {v for v in range(n) if not left >> v & 1}

    return attempt


# The vertex-cover family: the edges (u, v), u < v, of the graph with
# neighbour masks `nbr`, u ascending then v ascending.  No edge inside
# `left` has an end below `start`, so a vertex's neighbours in left lie
# above it wherever the scans look.


def _next_edge(nbr: Sequence[int], left: int, start: int) -> Optional[Obstacle]:
    for u in range(start, len(nbr)):
        rest = nbr[u] & left
        if rest and left >> u & 1:
            return u, _lowest(rest)
    return None


def _clique_packing(
    nbr: Sequence[int], left: int, edge: Obstacle, cap: int
) -> int:
    """The vertex-cover family's bound: disjoint cliques of left, each grown
    from the next u that still has a neighbour in left by adding, again and
    again, the lowest vertex of left adjacent to every member.  A cover
    leaves out at most one vertex of a clique, so a clique of s vertices
    needs s - 1 of its vertices, and an edge 1."""
    size = 0
    for u in range(edge[0], len(nbr)):
        common = nbr[u] & left
        if common and left >> u & 1:
            clique = 1 << u
            while common:
                low = common & -common
                clique |= low
                common &= nbr[low.bit_length() - 1]
            left &= ~clique
            size += clique.bit_count() - 1
            if size > cap:
                break
    return size


def _buss_cover(
    g: Graph, complement: bool, limit: Optional[int]
) -> Optional[Set[int]]:
    """Minimum vertex cover of g, or of its complement, kernel first.

    For each k, a vertex of degree > k is in every cover of at most k
    vertices (Buss's rule): the f such vertices are forced, so k starts at
    the least k with f <= k.  The rest has degrees of at most k, so k - f
    vertices cover at most (k - f) * k of its edges.  Otherwise
    `_hitting_set` branches on the kernel, the vertices that still touch an
    edge, with budget exactly k - f: smaller k failed.  Its bound is
    `_clique_packing`: a cover holds all but at most one vertex of each
    clique, so disjoint cliques of s_i vertices need sum(s_i - 1) of its
    vertices.  Only the kernel gets bitmasks, built again only when the
    forced set changes.  Degrees come from row lengths, and the edges the
    forced vertices cover from their rows alone.  The cover found is the
    one the same branching finds over the whole graph.
    """
    n, rows = g.n, g.adjacency
    degree = [n - 1 - len(row) if complement else len(row) for row in rows]
    edges = sum(degree) // 2
    ascending = sorted(degree)
    by_degree = sorted(range(n), key=degree.__getitem__, reverse=True)
    known = -1  # the f whose forced set the names below describe
    forced: List[int]
    hits: Counter  # per vertex, how many forced vertices are its g-neighbours
    uncovered: int  # how many edges the forced vertices leave uncovered
    kernel: List[int]
    search: Optional[Search]

    def attempt(k: int) -> Optional[Set[int]]:
        nonlocal known, forced, hits, uncovered, kernel, search
        f = n - bisect_right(ascending, k)
        if f != known:
            known, forced, search = f, by_degree[:f], None
            hits = Counter(w for u in forced for w in rows[u])
            inside = sum(hits[u] for u in forced)  # twice the g-edges among them
            if complement:
                inside = f * (f - 1) - inside
            uncovered = edges - sum(degree[u] for u in forced) + inside // 2
        if uncovered > (k - f) * k:
            return None
        if search is None:
            fset = set(forced)
            kernel = [
                v
                for v in range(n)
                if v not in fset
                and degree[v] > (f - hits[v] if complement else hits[v])
            ]
            bits = {v: 1 << i for i, v in enumerate(kernel)}
            masks = [sum(map(bits.__getitem__, bits.keys() & rows[v])) for v in kernel]
            if complement:
                everyone = (1 << len(kernel)) - 1
                masks = [everyone ^ mask ^ bits[v] for v, mask in zip(kernel, masks)]
            search = _hitting_set(
                len(masks),
                partial(_next_edge, masks),
                partial(_clique_packing, masks),
            )
        found = search(k - f)
        return None if found is None else {*forced, *map(kernel.__getitem__, found)}

    # f <= k holds where the (k + 1)-th largest degree is at most k.
    lower = bisect_left(range(n), True, key=lambda k: ascending[n - 1 - k] <= k)
    return _deepen(n, limit, attempt, lower)


def min_vertex_cover(g: Graph, limit: Optional[int] = None) -> Optional[Set[int]]:
    """A minimum vertex cover: Buss's kernel, then `_hitting_set` removing
    either end of the first uncovered edge, and giving up at a node whose
    greedy packing of disjoint cliques needs more vertices than its budget.
    With a limit, gives up and returns None once the minimum provably
    exceeds it (used for cheap parameter probing)."""
    return _buss_cover(g, False, limit)


def dist_to_clique_set(g: Graph, limit: Optional[int] = None) -> Optional[Set[int]]:
    """Minimum set whose removal leaves a clique: the vertex cover of the
    complement, by `min_vertex_cover`'s search."""
    return _buss_cover(g, True, limit)


def _next_co_p3(
    nbr: Sequence[int], alive: int, start: int = 0
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
    return _next_co_p3(g.neighbour_masks(), (1 << g.n) - 1)


def _co_p3_packing(
    nbr: Sequence[int], left: int, bad: Optional[Obstacle], cap: int
) -> int:
    """The co-cluster family's bound: disjoint co-P3s in `_next_co_p3`'s
    order, each needing one vertex of the set; where they do not exceed
    cap, `_cluster_packing` instead if it counts more."""
    size, rest, first = 0, left, bad
    while bad is not None and size <= cap:
        rest &= ~(1 << bad[0] | 1 << bad[1] | 1 << bad[2])
        size += 1
        bad = _next_co_p3(nbr, rest, bad[0])
    return size if size > cap else max(size, _cluster_packing(nbr, left, first, cap))


def _cluster_packing(
    nbr: Sequence[int], left: int, bad: Optional[Obstacle], cap: int
) -> int:
    """Disjoint induced cluster subgraphs H of left.  Each H starts from the
    first co-P3 (u, v, w) left as the cliques {u, v} and {w}; then each
    vertex of left, ascending, joins the clique that is exactly its
    neighbourhood in H, or becomes a clique of its own if it has none there,
    and otherwise stays out.  A co-cluster keeps either one clique of H or
    at most one vertex of each clique, so an H with t cliques of sizes s_i
    needs sum(s_i) - max(max(s_i), t) vertices of the set."""
    size = 0
    while bad is not None and size <= cap:
        cliques = {1 << bad[0] | 1 << bad[1], 1 << bad[2]}
        inside = 1 << bad[0] | 1 << bad[1] | 1 << bad[2]
        rest = left & ~inside
        while rest:
            low = rest & -rest
            rest ^= low
            seen = nbr[low.bit_length() - 1] & inside
            if not seen:
                cliques.add(low)
            elif seen in cliques:
                cliques.remove(seen)
                cliques.add(seen | low)
            else:
                continue
            inside |= low
        largest = max(clique.bit_count() for clique in cliques)
        size += inside.bit_count() - max(largest, len(cliques))
        left &= ~inside
        bad = _next_co_p3(nbr, left, bad[0])
    return size


def dist_to_co_cluster_set(
    g: Graph, limit: Optional[int] = None
) -> Optional[Set[int]]:
    """Minimum deletion set leaving a co-cluster: `_hitting_set` removing u,
    v or w of the first co-P3 (u, v, w) left, an edge plus a vertex adjacent
    to neither end.  A node gives up when disjoint co-P3s, one vertex each,
    or disjoint induced cluster subgraphs, all but the largest clique or all
    but one vertex per clique each, need more vertices than its budget: a
    co-cluster holds no co-P3, so what it keeps of a cluster subgraph is a
    clique or an independent set (`_cluster_packing`).  With a limit,
    returns None once the minimum provably exceeds it."""
    nbr = g.neighbour_masks()
    search = _hitting_set(g.n, partial(_next_co_p3, nbr), partial(_co_p3_packing, nbr))
    return _deepen(g.n, limit, search)


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
    for v, mask in enumerate(g.neighbour_masks()):
        classes.setdefault(_lowest(~mask), []).append(v)
    return list(classes.values())


@dataclass
class PathComponent:
    """A maximal path of G-S in path order, with its end attachments into S."""

    vertices: Tuple[int, ...]
    first_attach: Tuple[int, ...]  # S-neighbors of the first vertex
    last_attach: Tuple[int, ...]  # S-neighbors of the last vertex


def degree3_vertices(g: Graph) -> Set[int]:
    """The vertices of degree at least 3."""
    return {v for v, row in enumerate(g.adjacency) if len(row) >= 3}


def degree3_decomposition(g: Graph) -> Tuple[Set[int], List[PathComponent]]:
    """Vertices of degree >= 3 plus the maximal paths of the rest.

    Requires a connected graph that is not a cycle; every component of G-S is
    then an induced path (a cycle component would be all of G).
    """
    if g.n == 0:
        raise InputError("empty graph")
    if len(connected_components(g, range(g.n))) != 1:
        raise InputError("graph must be connected")
    s = degree3_vertices(g)
    if not s and all(g.degree(v) == 2 for v in range(g.n)):
        raise InputError("cycle graph: use the direct cycle solver")

    rest = [v for v in range(g.n) if v not in s]
    paths: List[PathComponent] = []
    for comp in connected_components(g, rest):
        inside = set(comp)
        ends = [v for v in comp if sum(1 for w in g.adjacency[v] if w in inside) <= 1]
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
        # `is_clique` is False for a family member that repeats a vertex.
        if any(not (0 <= v < g.n) for v in c) or not g.is_clique(c):
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


def greedy_vertex_clique_cover(g: Graph) -> List[List[int]]:
    """A (not necessarily minimum) partition of the vertices into cliques."""
    remaining = set(range(g.n))
    cover: List[List[int]] = []
    while remaining:
        v = min(remaining)
        clique = [v]
        # The vertices adjacent to every member so far.
        common = remaining.intersection(g.adjacency[v])
        for u in sorted(common):
            if u in common:
                clique.append(u)
                common.intersection_update(g.adjacency[u])
        remaining -= set(clique)
        cover.append(sorted(clique))
    return cover
