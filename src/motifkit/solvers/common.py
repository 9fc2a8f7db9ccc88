"""Shared plumbing: per-component dispatch, guess enumeration, greedy completion."""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..core import (
    Graph,
    Instance,
    SolveOutcome,
    connected_components,
    prune_wrong_colors,
    restrict,
    verify_solution,
)


def dispatch_components(
    inst: Instance,
    solve_connected: Callable[[Instance, List[int]], SolveOutcome],
) -> SolveOutcome:
    """Prune off-color vertices, then try each connected component.

    A solution is connected, so it lives inside a single component.  Each
    component is restricted to a sub-instance with the same motif and passed
    to `solve_connected` together with its `ids` (original vertex ids), so
    the solver can restrict any structure it was given.  Witnesses are lifted
    back to original ids and verified.
    """
    pruned, pruned_ids = prune_wrong_colors(inst)
    for comp in connected_components(pruned.graph, range(pruned.graph.n)):
        if len(comp) < inst.motif.total:
            continue
        sub, ids = restrict(inst, [pruned_ids[v] for v in comp])
        outcome = solve_connected(sub, ids)
        if outcome.is_yes:
            witness = [ids[v] for v in outcome.witness]
            # An explicit check, not an assert, so it also runs under -O.
            if not verify_solution(inst, witness):
                raise AssertionError(f"solver returned an invalid witness {witness}")
            return SolveOutcome.yes(witness)
    return SolveOutcome.no()


def dispatch_deletion_set(
    inst: Instance,
    solve_connected: Callable[[Instance, Set[int]], SolveOutcome],
    given: Optional[Set[int]],
    estimate: Callable[[Graph], Set[int]],
) -> SolveOutcome:
    """`dispatch_components` for a solver that works from a deletion set.

    Each component gets the trace of `given` (a deletion set of `inst`'s
    graph) on it, or, with none given, the set `estimate` finds for it.  The
    trace is a deletion set of the component: an induced subgraph of a
    clique, an edgeless graph or a co-cluster is one again.
    """

    def run(sub: Instance, ids: List[int]) -> SolveOutcome:
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
    inst: Instance, candidates: Sequence[int], supply: Counter
) -> Iterator[Tuple[Tuple[int, ...], Counter]]:
    """Nonempty subsets of `candidates` whose colors fit in the motif and
    leave over no more of a color than `supply`, the most of it that the
    vertices outside the candidates can add.

    Each comes with a fresh `Counter` of the colors it leaves over (positive
    counts only).  Smallest first, each size in `combinations` order.  A
    prefix is never extended once it overflows the motif or must still take
    more vertices than it has slots left, so no rejected subset is built.
    """
    colors = [inst.coloring[v] for v in candidates]
    left = dict(inst.motif.multiplicities)
    # Vertices a guess must still take because `supply` falls short.
    short = sum(max(0, m - supply[c]) for c, m in left.items())
    n = len(candidates)
    prefix: List[int] = []

    def extend(start: int, size: int) -> Iterator[Tuple[Tuple[int, ...], Counter]]:
        nonlocal short
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
                yield from extend(i + 1, size - 1)
                prefix.pop()
                short += owed
                left[c] = m

    for size in range(1, min(n, inst.motif.total) + 1):
        yield from extend(0, size)


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


def try_witness(inst: Instance, vertices: Iterable[int]) -> Optional[SolveOutcome]:
    """Verified Yes outcome, or None if the candidate fails the checks."""
    vs = sorted(set(vertices))
    if verify_solution(inst, vs):
        return SolveOutcome.yes(vs)
    return None
