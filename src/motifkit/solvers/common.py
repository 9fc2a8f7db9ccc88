"""Shared plumbing: per-component dispatch, guess and connected-set
enumeration, greedy completion."""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..core import Graph, InputError, Instance, SolveOutcome, verify_solution

# A kernel takes one part of an instance and the part's original vertex ids
# (to restrict any structure it was given), and returns the vertices of a
# witness, in the part's ids and in any order, or None.
Kernel = Callable[[Instance, List[int]], Optional[Sequence[int]]]


def first_lifted(inst: Instance, solve_connected: Kernel) -> Optional[List[int]]:
    """The first witness `solve_connected` gives over `inst.pruned_components`,
    lifted back to `inst`'s ids, or None.  A motif of one vertex is answered
    here, by the lowest vertex pruning keeps."""
    for sub, ids in inst.pruned_components:
        # Pruning keeps only vertices of a one-vertex motif's color.
        found = [0] if inst.motif.total == 1 else solve_connected(sub, ids)
        if found is not None:
            return [ids[v] for v in found]
    return None


def dispatch_components(inst: Instance, solve_connected: Kernel) -> SolveOutcome:
    """`first_lifted`'s witness, verified and wrapped: this is the one check."""
    witness = first_lifted(inst, solve_connected)
    # An explicit check, not an assert, so it also runs under -O.
    if witness is not None and not verify_solution(inst, witness):
        raise AssertionError(f"solver returned an invalid witness {witness}")
    return SolveOutcome.no() if witness is None else SolveOutcome.yes(witness)


def dispatch_deletion_set(
    inst: Instance,
    solve_connected: Callable[[Instance, Set[int]], Optional[Sequence[int]]],
    given: Optional[Set[int]],
    estimate: Callable[[Graph], Set[int]],
    rest: Optional[Tuple[str, Callable[[int], int]]] = None,
) -> SolveOutcome:
    """`dispatch_components` for a solver that works from a deletion set.

    Each component gets the trace of `given` (a deletion set of `inst`'s
    graph) on it, or, with none given, the set `estimate` finds for it.  The
    trace is a deletion set of the component: an induced subgraph of a
    clique, an edgeless graph or a co-cluster is one again.

    With `rest`, (name, degree), a given set is checked once first: each of
    the r vertices outside it has degree(r) neighbours outside it, by row
    lengths and the set's own rows.
    """
    if given is not None and rest is not None:
        g, (name, degree) = inst.graph, rest
        inside = Counter(w for x in given if 0 <= x < g.n for w in g.adjacency[x])
        outside = [v for v in range(g.n) if v not in given]
        want = degree(len(outside))
        if any(len(g.adjacency[v]) - inside[v] != want for v in outside):
            raise InputError(f"supplied set is not a {name}")

    def run(sub: Instance, ids: List[int]) -> Optional[Sequence[int]]:
        if given is None:
            return solve_connected(sub, estimate(sub.graph))
        return solve_connected(sub, {i for i, v in enumerate(ids) if v in given})

    return dispatch_components(inst, run)


def restrict_family(
    family: Sequence[Sequence[int]], ids: List[int]
) -> List[List[int]]:
    """Each member of `family` renumbered by `ids`, in order; empty traces dropped."""
    index = {v: i for i, v in enumerate(ids)}
    traces = ([index[v] for v in part if v in index] for part in family)
    return [trace for trace in traces if trace]


def iter_guesses(
    inst: Instance,
    candidates: Sequence[int],
    supply: Counter,
    links: Optional[Sequence[int]] = None,
) -> Iterator[Tuple[Tuple[int, ...], Counter]]:
    """Nonempty subsets of `candidates` whose colors fit in the motif and
    leave over no more of a color than `supply`, the most of it that the
    vertices outside the candidates can add.

    Each comes with a fresh `Counter` of the colors it leaves over (positive
    counts only).  Smallest first, each size in `combinations` order.  A
    prefix is never extended once it overflows the motif, must still take
    more vertices than it has slots left, or owes a color more vertices than
    the candidates ahead have, so no rejected subset is built.

    With `links` (per candidate, a bitmask of the candidate indices linked
    to it), a prefix is cut once one of its vertices cannot be reached from
    its first through itself and the later candidates, or through itself
    alone when full: only linked subsets come, in the same order.
    """
    colors = [inst.coloring[v] for v in candidates]
    left = dict(inst.motif.multiplicities)
    # Vertices a guess must still take because `supply` falls short.
    short = sum(max(0, m - supply[c]) for c, m in left.items())
    n = len(candidates)
    # ahead[i]: the candidates from i on that have candidate i's color.
    ahead = [colors[i:].count(c) for i, c in enumerate(colors)]
    if any(m - supply[c] > colors.count(c) for c, m in left.items()):
        return
    prefix: List[int] = []
    cut = links is not None
    taken = 0  # bitmask of the prefix's candidate indices, kept only with `links`

    def linked(last: int, size: int) -> bool:
        # Whether a walk from the prefix's first vertex reaches all of it,
        # through later candidates too while `size` more are to be taken.
        allowed = taken | (-1 << last + 1 if size else 0)
        reach = frontier = taken & -taken
        while frontier and taken & ~reach:
            low = frontier & -frontier
            frontier ^= low
            fresh = links[low.bit_length() - 1] & allowed & ~reach
            reach |= fresh
            frontier |= fresh
        return not taken & ~reach

    def extend(start: int, size: int) -> Iterator[Tuple[Tuple[int, ...], Counter]]:
        nonlocal short, taken
        if short > size:
            return
        if size == 0:
            yield tuple(prefix), Counter({c: m for c, m in left.items() if m})
            return
        for i in range(start, n - size + 1):
            c = colors[i]
            m = left.get(c, 0)
            if m > 0:
                left[c] = m - 1
                owed = m > supply[c]
                short -= owed
                prefix.append(candidates[i])
                if cut:
                    taken |= 1 << i
                    if start == 0 or linked(i, size - 1):
                        yield from extend(i + 1, size - 1)
                    taken ^= 1 << i
                else:
                    yield from extend(i + 1, size - 1)
                prefix.pop()
                short += owed
                left[c] = m
                # Passing candidate i leaves one fewer of its color ahead.
                if m - supply[c] >= ahead[i]:
                    return

    for size in range(1, min(n, inst.motif.total) + 1):
        yield from extend(0, size)


def guess_space(inst: Instance, s: Set[int]) -> Tuple[List[int], Counter]:
    """The candidates, `s` ascending, and the supply, the colors outside `s`,
    of `search_guesses`, which `auto` counts."""
    return sorted(s), Counter(c for v, c in enumerate(inst.coloring) if v not in s)


def search_guesses(inst: Instance, s: Set[int], try_guess: Callable[..., Optional[List[int]]],
                   links: Optional[Sequence[int]] = None) -> Optional[List[int]]:
    """The first witness `try_guess(guess, leftover)` gives over `iter_guesses`
    on `guess_space(inst, s)` with `links` (per vertex of `s` ascending), or
    None: the one guess loop of the maxleaf, dist-clique and vc solvers."""
    for guess, leftover in iter_guesses(inst, *guess_space(inst, s), links):
        found = try_guess(guess, leftover)
        if found is not None:
            return found
    return None


def count_guesses(inst: Instance, candidates: Sequence[int], supply: Counter) -> int:
    """How many guesses `iter_guesses` yields without links, unenumerated: a
    guess takes j of the n_c candidates of each motif color c, for j from
    m_c - supply[c] (at least 0) to m_c, and is not empty."""
    have = Counter(inst.coloring[v] for v in candidates)
    total, empty = 1, True
    for c, m in inst.motif.multiplicities.items():
        low = max(0, m - supply[c])
        total *= sum(comb(have[c], j) for j in range(low, min(m, have[c]) + 1))
        empty = empty and low == 0
    return total - 1 if empty else total


def iter_connected(
    adjacency: Sequence[Iterable[int]],
    size: int,
    keep: Callable[[List[int]], bool] = lambda sub: True,
) -> Iterator[List[int]]:
    """Every connected vertex set of exactly `size` vertices, once each.

    ESU (Wernicke, IEEE/ACM TCBB 2006): a set is grown from its smallest
    vertex, only through neighbors with larger ids that no earlier member is
    adjacent to.  `keep(sub)` is asked of every prefix, in the order it was
    grown; a prefix it rejects is not extended.

    It stays beside `iter_guesses`: `brute`, the tests' oracle, must not share
    the enumerator it checks, and the ecc and vcc candidates are uncolored
    cliques, to which the color cuts of `iter_guesses` do not apply.
    """
    sub: List[int] = []

    def extend(ext: Set[int], closed: Set[int], anchor: int) -> Iterator[List[int]]:
        # closed = sub plus every neighbor of sub seen so far; extending only
        # through neighbors outside it makes each set appear exactly once.
        if len(sub) == size:
            yield list(sub)
            return
        # `ext` is this call's own set: every caller passes a fresh one.
        while ext:
            w = min(ext)
            ext.remove(w)
            sub.append(w)
            if keep(sub):
                fresh = {u for u in adjacency[w] if u > anchor and u not in closed}
                yield from extend(ext | fresh, closed | fresh, anchor)
            sub.pop()

    for v in range(len(adjacency)):
        sub.append(v)
        if keep(sub):
            ext = {u for u in adjacency[v] if u > v}
            yield from extend(ext, {v} | ext, v)
        sub.pop()


def pick_by_colors(
    inst: Instance, needed: Counter, pool: Iterable[int], exclude: Set[int]
) -> Optional[List[int]]:
    """Smallest-id vertices from pool realizing the needed color counts."""
    remaining = Counter(needed)
    picks: List[int] = []
    for v in sorted(set(pool) - exclude):
        if remaining[inst.coloring[v]] > 0:
            remaining[inst.coloring[v]] -= 1
            picks.append(v)
    if any(cnt > 0 for cnt in remaining.values()):
        return None
    return picks

