"""XP solver for graphs that are few paths plus few high-degree vertices.

Vertices of degree at least 3 form a small set S; the rest decomposes into
paths whose interiors have no neighbors outside the path.  A solution
intersects each path in a prefix, a suffix, both, or (only when it avoids S
entirely) one inner window, so a count-and-connectivity dynamic program over
the paths decides the instance.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from operator import or_
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core import Instance, SolveOutcome, connected_components
from ..estimators import PathComponent, degree3_decomposition
from .common import dispatch_components, guess_space, iter_guesses
from .paths import solve_on_path


def solve_max_leaf_xp(inst: Instance) -> SolveOutcome:
    """Exact answer; exponential only in the number of degree-3 vertices."""
    return dispatch_components(inst, lambda sub, _: _solve_connected(sub))


def _solve_connected(inst: Instance) -> Optional[List[int]]:
    g = inst.graph
    if g.n >= 3 and all(g.degree(v) == 2 for v in range(g.n)):
        return _solve_cycle(inst)
    s, paths = degree3_decomposition(g)

    # T = solution's trace on S; T empty means the solution sits inside one
    # path, which is plain window matching.
    for path in paths:
        word = [inst.coloring[v] for v in path.vertices]
        window = solve_on_path(word, inst.motif)
        if window is not None:
            i, j = window
            return path.vertices[i : j + 1]

    # The paths, which hold every vertex outside S, supply a leftover.
    s_order, supply = guess_space(inst, s)
    fits = _attached_fit(inst, s, paths)
    links = _link_masks(inst, s_order, paths)
    for t, remaining in iter_guesses(inst, s_order, supply, links):
        if fits(t, remaining):
            found = _try_trace(inst, set(t), remaining, paths)
            if found is not None:
                return found
    return None


def _link_masks(inst: Instance, s: List[int], paths: List[PathComponent]) -> List[int]:
    """Per vertex of the sorted S, the bitmask of the indices of the vertices
    linked to it: adjacent ones and those attached to the ends of one path.

    The trace of a connected solution is connected in this link graph: every
    other vertex lies on a path and only its ends have neighbors in S, so a
    segment of the solution joins only vertices attached to one path.  A
    trace that is not linked fails the DP.
    """
    index = {v: i for i, v in enumerate(s)}
    links = [sum(1 << index[u] for u in inst.graph.adjacency[v] if u in index) for v in s]
    for path in paths:
        ends = {index[u] for u in path.first_attach + path.last_attach}
        mask = sum(1 << i for i in ends)
        for i in ends:
            links[i] |= mask
    return links


def _attached_fit(
    inst: Instance, s: Set[int], paths: List[PathComponent]
) -> Callable[[Tuple[int, ...], Counter], bool]:
    """Whether a trace's leftover fits in the colors of the paths with an end
    attached to it, the only paths that can add a segment (inner path
    vertices have no neighbors outside their path).  Counts each path once."""
    path_colors = [Counter(inst.coloring[v] for v in p.vertices) for p in paths]
    attached: Dict[int, Set[int]] = {v: set() for v in s}
    for i, path in enumerate(paths):
        for u in path.first_attach + path.last_attach:
            attached[u].add(i)

    def fits(t: Tuple[int, ...], remaining: Counter) -> bool:
        # A list: unpacking a generator here fragments the heap (peak RSS grew).
        near = set().union(*[attached[v] for v in t])
        return all(sum(path_colors[i][c] for i in near) >= m for c, m in remaining.items())

    return fits


def _solve_cycle(inst: Instance) -> Optional[List[int]]:
    g = inst.graph
    order = [0, g.adjacency[0][0]]
    while len(order) < g.n:
        cur, prev = order[-1], order[-2]
        order.append(next(u for u in g.adjacency[cur] if u != prev))
    total = inst.motif.total
    if total > g.n:
        return None
    # The doubled order cut to n + total - 1 vertices has one window per start.
    doubled = (order + order)[: g.n + total - 1]
    window = solve_on_path([inst.coloring[v] for v in doubled], inst.motif)
    if window is None:
        return None
    i, j = window
    return doubled[i : j + 1]


def _path_options(
    inst: Instance,
    path: PathComponent,
    t_set: Set[int],
    comp_of: Dict[int, int],
    remaining: Counter,
) -> List[Tuple[List[int], Tuple[Set[int], ...], Counter]]:
    """Admissible intersections of a solution with one path, each with the
    groups of components its segments join and its color counts.

    Every taken segment must touch the trace through a path end, since inner
    vertices have no neighbors outside the path.  A prefix plus a suffix is
    two segments: each joins its own end's components, and the gap between
    them keeps the two groups apart.
    """
    verts = path.vertices
    colors = [inst.coloring[v] for v in verts]
    n = len(verts)
    first_t = {comp_of[u] for u in path.first_attach if u in t_set}
    last_t = {comp_of[u] for u in path.last_attach if u in t_set}
    options: List[Tuple[List[int], Tuple[Set[int], ...], Counter]] = [
        ([], (), Counter())
    ]

    def add(counts: Counter, i: int) -> bool:
        """Count vertex i in; False once its color exceeds the remaining."""
        c = colors[i]
        counts[c] += 1
        return counts[c] <= remaining[c]

    if first_t:
        counts = Counter()
        for a in range(1, n + 1):
            if not add(counts, a - 1):
                break
            touched = first_t | last_t if a == n else first_t
            options.append((list(verts[:a]), (touched,), Counter(counts)))
    if last_t:
        counts = Counter()
        for b in range(1, n + 1):
            if not add(counts, n - b):
                break
            touched = last_t | first_t if b == n else last_t
            options.append((list(verts[n - b :]), (touched,), Counter(counts)))
    if first_t and last_t:
        # Disjoint prefix + suffix with a gap of at least one vertex.
        prefix_counts = Counter()
        for a in range(1, n - 1):
            if not add(prefix_counts, a - 1):
                break
            prefix, counts = list(verts[:a]), Counter(prefix_counts)
            for b in range(1, n - a):
                if not add(counts, n - b):
                    break
                both = prefix + list(verts[n - b :])
                options.append((both, (first_t, last_t), Counter(counts)))
    return options


def _try_trace(
    inst: Instance, t_set: Set[int], remaining: Counter, paths: List[PathComponent]
) -> Optional[List[int]]:
    comps = connected_components(inst.graph, t_set)
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    n_comps = len(comps)

    # Remaining counts live in one int: per colour a field holding the count
    # and a guard bit above it.  Subtracting packed counts clears the guard
    # of every colour they overdraw and borrows nothing from the next field.
    shift: Dict[int, int] = {}
    guards = 0
    for c in sorted(remaining):
        shift[c] = guards.bit_length()
        guards |= 1 << (shift[c] + remaining[c].bit_length())

    def pack(counts: Counter) -> int:
        return sum(m << shift[c] for c, m in counts.items())

    def merge(
        partition: Tuple[int, ...], groups: Tuple[Set[int], ...]
    ) -> Tuple[int, ...]:
        """Join the components of each group, one group at a time."""
        for touched in groups:
            blocks = {partition[i] for i in touched}
            if len(blocks) > 1:
                joined = reduce(or_, blocks)
                partition = tuple(joined if p & joined else p for p in partition)
        return partition

    options = [_path_options(inst, p, t_set, comp_of, remaining) for p in paths]
    counts = [[c for _, _, c in o] for o in options]
    # supply[i]: per colour, the most that paths i, i+1, ... can still add.
    supply = [Counter()]
    for path_counts in reversed(counts):
        supply.insert(0, supply[0] + reduce(or_, path_counts))

    # Each layer maps a state (packed remaining counts, partition of the
    # trace's components, as the bitmask of each component's block) to its
    # first producer: (parent state, option).
    # `bound - new` keeps every guard iff no colour still needs more than the
    # later paths supply; a state failing that cannot reach the goal, while
    # every parent of one that can reaches it too, so dropping it keeps the
    # goal's first producer and with it the witness.
    State = Tuple[int, Tuple[int, ...]]
    start = (guards + pack(remaining), tuple(1 << i for i in range(n_comps)))
    states: Dict[State, object] = {start: None}
    layers: List[Dict[State, Tuple[State, int]]] = []
    for opts, path_counts, later in zip(options, counts, supply[1:]):
        # Only a group of two or more components can join anything.
        layer_steps = [
            (pack(c), tuple(g for g in groups if len(g) > 1)) for _, groups, c in opts
        ]
        bound = 2 * guards + pack(later & remaining)
        nxt: Dict[State, Tuple[State, int]] = {}
        for state in states:
            rem, partition = state
            for idx, (delta, groups) in enumerate(layer_steps):
                new = rem - delta
                if new & guards == guards and (bound - new) & guards == guards:
                    key = (new, merge(partition, groups))
                    if key not in nxt:
                        nxt[key] = (state, idx)
        if not nxt:
            return None
        layers.append(nxt)
        states = nxt

    state = (guards, ((1 << n_comps) - 1,) * n_comps)
    if state not in states:
        return None
    chosen: List[int] = []
    for opts, layer in zip(reversed(options), reversed(layers)):
        state, idx = layer[state]
        chosen += opts[idx][0]
    return sorted(t_set) + chosen
