"""Enumeration and matching primitives shared by the solvers."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .core import InputError


def iter_set_partitions(items: Sequence, parts: int | None = None) -> Iterator[List[List]]:
    """Set partitions of items via restricted-growth strings.

    If parts is given, only partitions into exactly that many blocks are
    yielded.  Blocks are ordered by their smallest element.
    """
    items = list(items)
    n = len(items)

    # rgs[i] = block index of items[i]; rgs[i] <= max(rgs[:i]) + 1
    def rec(i: int, rgs: List[int], nblocks: int):
        # Too many blocks already, or too few items left to open the rest.
        if parts is not None and not nblocks <= parts <= nblocks + n - i:
            return
        if i == n:
            blocks: List[List] = [[] for _ in range(nblocks)]
            for j, b in enumerate(rgs):
                blocks[b].append(items[j])
            yield blocks
            return
        for b in range(nblocks):
            rgs.append(b)
            yield from rec(i + 1, rgs, nblocks)
            rgs.pop()
        rgs.append(nblocks)
        yield from rec(i + 1, rgs, nblocks + 1)
        rgs.pop()

    yield from rec(0, [], 0)


def iter_ordered_partitions(
    items: Sequence, parts: int, keep: Optional[Callable[[List[List]], bool]] = None
) -> Iterator[List[List]]:
    """All ordered partitions of items into exactly `parts` nonempty blocks.

    Every surjective assignment appears exactly once: l! * S(n, l) results.
    With `keep`, a set partition it rejects yields none of its orders; the
    rest come in the same order as without it.
    """
    n = len(items)
    if not (1 <= parts <= n):
        raise InputError(f"parts={parts} out of range for {n} items")
    for blocks in iter_set_partitions(items, parts):
        if keep is not None and not keep(blocks):
            continue
        for order in permutations(range(parts)):
            yield [blocks[i] for i in order]


def iter_spanning_trees(
    k: int, edges: Iterable[Tuple[int, int]]
) -> Iterator[List[Tuple[int, int]]]:
    """Every spanning tree of the graph on nodes 0..k-1 with the given edges
    (pairs u < v), once each, as a sorted edge list.

    Grows forests by edges in sorted order, each joining two of the forest's
    trees, while enough edges are left to reach k - 1 of them.
    """
    if k < 1:
        raise InputError("need at least one node")
    edges = sorted(edges)

    def grow(start: int, comp: List[int], tree: List[Tuple[int, int]]):
        if len(tree) == k - 1:
            yield tree
            return
        for i in range(start, len(edges) + len(tree) + 2 - k):
            u, v = edges[i]
            if comp[u] != comp[v]:
                joined = [comp[u] if c == comp[v] else c for c in comp]
                yield from grow(i + 1, joined, tree + [(u, v)])

    yield from grow(0, list(range(k)), [])


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph given by side sizes and an explicit edge list."""

    left: int
    right: int
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < self.left and 0 <= v < self.right):
                raise InputError(f"edge ({u},{v}) out of range")
            if (u, v) in seen:
                raise InputError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
        object.__setattr__(self, "edges", tuple(self.edges))


@dataclass(frozen=True)
class MatchingResult:
    """A maximum matching plus a minimum vertex cover of the same size."""

    matching: Tuple[Tuple[int, int], ...]
    cover_left: Tuple[int, ...]
    cover_right: Tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.matching)


def max_matching_with_cover(b: BipartiteGraph) -> MatchingResult:
    """Maximum matching by augmenting paths; cover via Koenig's theorem.

    The cover is (unreached left) union (reached right), computed from the
    alternating-reachability sets of the final matching.
    """
    adj: List[List[int]] = [[] for _ in range(b.left)]
    for u, v in b.edges:
        adj[u].append(v)
    for lst in adj:
        lst.sort()

    match_l: List[int | None] = [None] * b.left
    match_r: List[int | None] = [None] * b.right

    def augment(root: int) -> None:
        """Depth-first search for an augmenting path from root, flipped if found.

        Iterative, so that long paths do not hit the recursion limit; the
        search order is that of the plain recursive version.
        """
        seen = [False] * b.right
        stack = [(root, iter(adj[root]))]
        path: List[int] = []  # path[i]: the right vertex taken from stack[i]
        while stack:
            for v in stack[-1][1]:
                if seen[v]:
                    continue
                seen[v] = True
                path.append(v)
                if match_r[v] is None:
                    for (u, _), w in zip(stack, path):
                        match_l[u] = w
                        match_r[w] = u
                    return
                stack.append((match_r[v], iter(adj[match_r[v]])))
                break
            else:
                stack.pop()
                if path:
                    path.pop()

    for u in range(b.left):
        augment(u)

    # Alternating reachability from unmatched left vertices.
    reach_l = [match_l[u] is None for u in range(b.left)]
    reach_r = [False] * b.right
    frontier = [u for u in range(b.left) if reach_l[u]]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if not reach_r[v]:
                    reach_r[v] = True
                    w = match_r[v]
                    if w is not None and not reach_l[w]:
                        reach_l[w] = True
                        nxt.append(w)
        frontier = nxt

    matching = tuple(
        (u, match_l[u]) for u in range(b.left) if match_l[u] is not None
    )
    cover_left = tuple(u for u in range(b.left) if not reach_l[u])
    cover_right = tuple(v for v in range(b.right) if reach_r[v])
    return MatchingResult(matching, cover_left, cover_right)
