"""Exhaustive reference checks that only the tests use.

Each is exponential and meant for small inputs: the solvers are checked
against them, so they stay out of the package.
"""

from collections import deque
from itertools import combinations
from typing import Dict, Iterable, Iterator, List, Sequence

from motifkit.core import CapacityError, Graph, InputError, connected_components
from motifkit.csct import CsctInstance, CsctSolution


def iter_subsets(items: Sequence) -> Iterator[List]:
    """All 2^n subsets of items, empty set first, in binary-counter order."""
    items = list(items)
    n = len(items)
    for mask in range(1 << n):
        yield [items[i] for i in range(n) if mask >> i & 1]


def check_csct_solution(inst: CsctInstance, sol: CsctSolution) -> bool:
    """Chosen sets cover the ground set within every color threshold."""
    covered = set()
    used: Dict[int, int] = {}
    for j in sol.chosen:
        color, elems = inst.sets[j]
        covered.update(elems)
        used[color] = used.get(color, 0) + 1
    if covered != set(range(inst.n)):
        return False
    return all(cnt <= inst.thresholds[c] for c, cnt in used.items())


def components_oracle(g: Graph, s: Iterable[int]) -> List[List[int]]:
    """Components of G[s] by a breadth-first search from each unseen vertex,
    in increasing order, testing every row entry for membership."""
    inside = set(s)
    seen = set()
    comps = []
    for start in sorted(inside):
        if start in seen:
            continue
        seen.add(start)
        comp, queue = [], deque([start])
        while queue:
            u = queue.popleft()
            comp.append(u)
            for w in g.adjacency[u]:
                if w in inside and w not in seen:
                    seen.add(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def max_leaf_oracle(g: Graph) -> int:
    """Exact max leaf number for small connected graphs.

    Uses the classical correspondence between spanning trees with many leaves
    and small connected dominating sets: for n >= 3, ml(G) = n - min |D| over
    connected dominating sets D.
    """
    if g.n > 10:
        raise CapacityError("max_leaf_oracle is limited to n <= 10")
    if len(connected_components(g, range(g.n))) != 1:
        raise InputError("graph must be connected")
    if g.n == 1:
        return 1
    if g.n == 2:
        return 2
    all_v = set(range(g.n))
    for size in range(1, g.n + 1):
        for d in combinations(range(g.n), size):
            dominated = set(d)
            for v in d:
                dominated.update(g.adjacency[v])
            if dominated != all_v:
                continue
            if len(connected_components(g, d)) == 1:
                return g.n - size
    raise AssertionError("unreachable for connected graphs")
