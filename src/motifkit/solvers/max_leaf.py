"""XP solver for graphs that are few paths plus few high-degree vertices.

Vertices of degree at least 3 form a small set S; the rest decomposes into
paths whose interiors have no neighbors outside the path.  A solution
intersects each path in a prefix, a suffix, both, or (only when it avoids S
entirely) one inner window, so a count-and-connectivity dynamic program over
the paths decides the instance.  Its color counts are packed into one int per
state, and only the back-trace builds the vertex lists of the options it takes.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from operator import or_
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from ..core import Instance, SolveOutcome, connected_components
from ..estimators import PathComponent, degree3_decomposition
from .common import dispatch_components, search_guesses
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
    fits = _attached_fit(inst, s, paths)
    links = _link_masks(inst, sorted(s), paths)
    return search_guesses(inst, s, lambda t, remaining: (
        _try_trace(inst, set(t), remaining, paths) if fits(t, remaining) else None), links)


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
    unit: Dict[int, int],
) -> Tuple[List[Tuple[int, Tuple[Set[int], ...], Tuple[int, int]]], Dict[int, int]]:
    """Admissible intersections of a solution with one path, as (color counts
    packed with `unit`, groups of two or more components joined, (a, b)): the
    first a and the last b vertices, so nothing, a prefix, a suffix or both;
    and the most of each color any one of them takes.

    Every taken segment must touch the trace through a path end, since inner
    vertices have no neighbors outside the path.  A prefix plus a suffix is
    two segments: each joins its own end's components, and the gap between
    them keeps the two groups apart.
    """
    colors = [inst.coloring[v] for v in path.vertices]
    n = len(colors)
    first_t = {comp_of[u] for u in path.first_attach if u in t_set}
    last_t = {comp_of[u] for u in path.last_attach if u in t_set}
    # Only a group of two or more components can join anything.
    head, tail, whole = ((g,) if len(g) > 1 else () for g in (first_t, last_t, first_t | last_t))
    options = [(0, (), (0, 0))]
    most: Dict[int, int] = {}

    def run(counts: Dict[int, int], packed: int, order: range) -> Iterator[Tuple[int, int]]:
        """Yield (length, packed counts) for each leading part of `order`
        that stays within `remaining`; `counts` ends as the last one's, the
        run's most of each color, which `most` takes in."""
        for length, i in enumerate(order, 1):
            c = colors[i]
            k = counts.get(c, 0) + 1
            if k > remaining.get(c, 0):
                break
            counts[c] = k
            packed += unit[c]
            yield length, packed
        for c, k in counts.items():
            if k > most.get(c, 0):
                most[c] = k

    if first_t:
        for a, packed in run({}, 0, range(n)):
            options.append((packed, whole if a == n else head, (a, 0)))
    if last_t:
        for b, packed in run({}, 0, range(n - 1, -1, -1)):
            options.append((packed, whole if b == n else tail, (0, b)))
    if first_t and last_t:
        # Disjoint prefix + suffix with a gap of at least one vertex.
        both, prefix_counts = head + tail, {}
        for a, prefix in run(prefix_counts, 0, range(n - 2)):
            for b, packed in run(dict(prefix_counts), prefix, range(n - 1, a, -1)):
                options.append((packed, both, (a, b)))
    return options, most


def _try_trace(
    inst: Instance, t_set: Set[int], remaining: Counter, paths: List[PathComponent]
) -> Optional[List[int]]:
    comps = connected_components(inst.graph, t_set)
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    n_comps = len(comps)

    # Remaining counts live in one int: per colour a field holding the count
    # and a guard bit above it.  Subtracting packed counts clears the guard
    # of every colour they overdraw and borrows nothing from the next field.
    unit: Dict[int, int] = {}
    guards = 0
    for c in sorted(remaining):
        unit[c] = 1 << guards.bit_length()
        guards |= unit[c] << remaining[c].bit_length()

    def pack(counts: Dict[int, int]) -> int:
        """Packed counts, each capped at the remaining."""
        return sum(min(m, remaining[c]) * unit[c] for c, m in counts.items())

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

    built = [_path_options(inst, p, t_set, comp_of, remaining, unit) for p in paths]
    # bounds[i]: per colour, the most that paths i+1, i+2, ... can still add.
    bounds: List[int] = []
    later: Dict[int, int] = {}
    for _, most in reversed(built):
        bounds.insert(0, 2 * guards + pack(later))
        for c, k in most.items():
            later[c] = later.get(c, 0) + k

    # Each layer maps a state (packed remaining counts, partition of the
    # trace's components, as the bitmask of each component's block) to its
    # first producer: (parent state, option's (a, b)).
    # `bound - new` keeps every guard iff no colour still needs more than the
    # later paths supply; a state failing that cannot reach the goal, while
    # every parent of one that can reaches it too, so dropping it keeps the
    # goal's first producer and with it the witness.
    State = Tuple[int, Tuple[int, ...]]
    start = (guards + pack(remaining), tuple(1 << i for i in range(n_comps)))
    states: Dict[State, object] = {start: None}
    layers: List[Dict[State, Tuple[State, Tuple[int, int]]]] = []
    for (options, _), bound in zip(built, bounds):
        nxt: Dict[State, Tuple[State, Tuple[int, int]]] = {}
        for state in states:
            rem, partition = state
            for delta, groups, taken in options:
                new = rem - delta
                if new & guards == guards and (bound - new) & guards == guards:
                    key = (new, merge(partition, groups) if groups else partition)
                    if key not in nxt:
                        nxt[key] = (state, taken)
        if not nxt:
            return None
        layers.append(nxt)
        states = nxt

    state = (guards, ((1 << n_comps) - 1,) * n_comps)
    if state not in states:
        return None
    chosen: List[int] = []
    for path, layer in zip(reversed(paths), reversed(layers)):
        state, (a, b) = layer[state]
        verts = path.vertices
        chosen += verts[:a] + verts[len(verts) - b :]
    return sorted(t_set) + chosen
