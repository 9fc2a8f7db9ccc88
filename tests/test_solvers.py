import contextlib
import os
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import motifkit
from motifkit.core import (
    CapacityError,
    Graph,
    Instance,
    Motif,
    SolveOutcome,
    connected_components,
    verify_solution,
)
from motifkit.estimators import degree3_decomposition, greedy_vertex_clique_cover
from motifkit.solvers import (
    solve_brute,
    solve_co_cluster,
    solve_dist_clique,
    solve_edge_clique_cover,
    solve_max_leaf_xp,
    solve_on_path,
    solve_vertex_clique_cover,
    solve_vertex_cover,
)
from motifkit.csct import CsctInstance, solve_csct
from motifkit.generators import SetSystem, gen_domset_reduction, gen_hitting_set_split
from motifkit.solvers import dist_clique, max_leaf, vertex_cover
from motifkit.solvers.common import iter_guesses, pick_by_colors, try_witness


def path_instance(colors, motif):
    n = len(colors)
    return Instance(
        Graph(n, [(i, i + 1) for i in range(n - 1)]), tuple(colors), Motif(motif)
    )


@st.composite
def instances(draw, max_n=10, max_colors=4, max_motif=6):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    coloring = tuple(draw(st.integers(0, max_colors - 1)) for _ in range(n))
    size = draw(st.integers(1, max_motif))
    motif = Counter(draw(st.integers(0, max_colors - 1)) for _ in range(size))
    return Instance(Graph(n, edges), coloring, Motif(dict(motif)))


def run_all(inst):
    """Outcomes of every solver on the same instance."""
    ecc = [[u, v] for u, v in inst.graph.edges()] or [[v] for v in range(inst.graph.n)]
    vcc = greedy_vertex_clique_cover(inst.graph)
    return {
        "brute": solve_brute(inst),
        "dist-clique": solve_dist_clique(inst),
        "vertex-cover": solve_vertex_cover(inst),
        "edge-clique-cover": solve_edge_clique_cover(inst, ecc),
        "vertex-clique-cover": solve_vertex_clique_cover(inst, vcc),
        "co-cluster": solve_co_cluster(inst),
        "max-leaf": solve_max_leaf_xp(inst),
    }


class TestSmallInstances:
    def test_single_matching_vertex(self):
        inst = Instance(Graph(1), (7,), Motif({7: 1}))
        for name, out in run_all(inst).items():
            assert out.is_yes, name
            assert out.witness == (0,)

    def test_triangle_needs_two_of_one_color(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        inst = Instance(g, (0, 0, 1), Motif({0: 2}))
        for name, out in run_all(inst).items():
            assert out.witness == (0, 1), name

    def test_disconnected_colors_give_no(self):
        # Both colors exist but never in one connected piece.
        g = Graph(4, [(0, 1), (2, 3)])
        inst = Instance(g, (0, 0, 1, 1), Motif({0: 1, 1: 1}))
        for name, out in run_all(inst).items():
            assert not out.is_yes, name

    def test_motif_bigger_than_graph(self):
        inst = Instance(Graph(2, [(0, 1)]), (0, 0), Motif({0: 3}))
        for name, out in run_all(inst).items():
            assert not out.is_yes, name

    def test_star_center_forced(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        inst = Instance(g, (0, 1, 1, 1), Motif({0: 1, 1: 2}))
        for name, out in run_all(inst).items():
            assert out.is_yes, name
            assert 0 in out.witness and len(out.witness) == 3

    def test_brute_capacity_cap(self):
        g = Graph(26, [(i, i + 1) for i in range(25)])
        inst = Instance(g, (0,) * 26, Motif({0: 2}))
        with pytest.raises(CapacityError):
            solve_brute(inst)


class TestAgreement:
    @given(instances())
    @settings(max_examples=120, deadline=None)
    def test_all_solvers_match_brute(self, inst):
        outcomes = run_all(inst)
        expected = outcomes["brute"].is_yes
        for name, out in outcomes.items():
            assert out.is_yes == expected, name
            if out.is_yes:
                assert verify_solution(inst, out.witness), name

    @given(instances(max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_deterministic(self, inst):
        for solve in (solve_brute, solve_dist_clique, solve_vertex_cover):
            assert solve(inst) == solve(inst)

    @given(instances(max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_universal_vertex_monotone(self, inst):
        """Adding a universal vertex of a fresh color never flips YES to NO."""
        before = solve_brute(inst).is_yes
        n = inst.graph.n
        g2 = Graph(n + 1, list(inst.graph.edges()) + [(v, n) for v in range(n)])
        fresh = max(inst.coloring) + 1
        inst2 = Instance(g2, inst.coloring + (fresh,), inst.motif)
        if before:
            assert solve_brute(inst2).is_yes


def quadratic_path_oracle(word, motif):
    k = motif.total
    target = motif.as_counter()
    for i in range(len(word) - k + 1):
        if Counter(word[i : i + k]) == target:
            return (i, i + k - 1)
    return None


class TestSolveOnPath:
    def test_basic_window(self):
        assert solve_on_path([0, 1, 1, 2], Motif({1: 2})) == (1, 2)

    def test_no_match(self):
        assert solve_on_path([0, 0, 0], Motif({1: 1})) is None

    def test_motif_longer_than_word(self):
        assert solve_on_path([0], Motif({0: 2})) is None

    @given(
        st.lists(st.integers(0, 3), min_size=0, max_size=20),
        st.lists(st.integers(0, 3), min_size=1, max_size=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_quadratic_oracle(self, word, motif_colors):
        motif = Motif(dict(Counter(motif_colors)))
        assert solve_on_path(word, motif) == quadratic_path_oracle(word, motif)


class TestSuppliedStructures:
    def test_dist_clique_with_explicit_set(self):
        # K4 plus a pendant: {4} is a valid deletion set.
        edges = list(combinations(range(4), 2)) + [(0, 4)]
        inst = Instance(Graph(5, edges), (0, 0, 0, 0, 1), Motif({0: 2, 1: 1}))
        out = solve_dist_clique(inst, deletion_set={4})
        assert out.is_yes and verify_solution(inst, out.witness)

    def test_vertex_cover_with_explicit_cover(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        inst = Instance(g, (0, 1, 1, 1), Motif({0: 1, 1: 1}))
        out = solve_vertex_cover(inst, cover={0})
        assert out.is_yes

    def test_co_cluster_with_explicit_set(self):
        # K2,2 on {0, 1} x {2, 3} plus 4 pendant at 0.  {3, 4} is a valid,
        # not minimum, deletion set; the solution {0, 2, 4} meets it and
        # both classes left.
        g = Graph(5, [(0, 2), (0, 3), (1, 2), (1, 3), (0, 4)])
        inst = Instance(g, (0, 3, 1, 3, 2), Motif({0: 1, 1: 1, 2: 1}))
        out = solve_co_cluster(inst, deletion_set={3, 4})
        assert out.witness == (0, 2, 4)
        assert verify_solution(inst, out.witness)

    def test_edge_cover_must_cover_all_edges(self):
        from motifkit.core import InputError

        g = Graph(3, [(0, 1), (1, 2)])
        inst = Instance(g, (0, 0, 0), Motif({0: 2}))
        with pytest.raises(InputError):
            solve_edge_clique_cover(inst, [[0, 1]])

    def test_vertex_partition_must_be_partition(self):
        from motifkit.core import InputError

        g = Graph(3, [(0, 1), (1, 2)])
        inst = Instance(g, (0, 0, 0), Motif({0: 2}))
        with pytest.raises(InputError):
            solve_vertex_clique_cover(inst, [[0, 1], [1, 2]])


BAD_WITNESS_SCRIPT = """
import sys
from motifkit.core import Graph, Instance, Motif, SolveOutcome
from motifkit.solvers.common import dispatch_components

# Colours fit the motif, but 0 and 2 are not adjacent.
inst = Instance(Graph(3, [(0, 1), (1, 2)]), (0, 0, 1), Motif({0: 1, 1: 1}))
try:
    dispatch_components(inst, lambda sub, ids: SolveOutcome.yes([0, 2]))
except AssertionError:
    print("rejected", sys.flags.optimize)
else:
    print("accepted", sys.flags.optimize)
"""


def test_dispatch_rejects_bad_witness_under_optimize():
    src = str(Path(motifkit.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", BAD_WITNESS_SCRIPT],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "rejected 1\n"


def ref_iter_guesses(inst, candidates):
    """`iter_guesses` as every `combinations` subset filtered by `contains`,
    each with its leftover from `minus`."""
    motif = inst.motif
    for size in range(1, min(len(candidates), motif.total) + 1):
        for guess in combinations(candidates, size):
            colors = [inst.coloring[v] for v in guess]
            if motif.contains(colors):
                yield guess, motif.minus(colors)


@st.composite
def guess_cases(draw):
    """An edgeless instance and a sequence of distinct candidate vertices."""
    n = draw(st.integers(1, 10))
    coloring = tuple(draw(st.integers(0, 3)) for _ in range(n))
    motif_colors = draw(st.lists(st.integers(0, 4), min_size=1, max_size=7))
    candidates = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    return Instance(Graph(n), coloring, Motif(dict(Counter(motif_colors)))), candidates


class TestIterGuesses:
    @given(guess_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_filtered_combinations(self, case):
        inst, candidates = case
        # The motif itself as supply sets no floor: every fitting subset.
        got = list(iter_guesses(inst, candidates, inst.motif.as_counter()))
        assert got == list(ref_iter_guesses(inst, candidates))
        # Each leftover is a Counter of its own, safe for the caller to keep.
        assert len({id(left) for _, left in got}) == len(got)

    @given(guess_cases(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_leftover_within_supply(self, case, data):
        inst, candidates = case
        supply = data.draw(
            st.one_of(
                st.just(Counter()),
                st.just(inst.motif.as_counter()),
                st.dictionaries(st.integers(0, 4), st.integers(0, 3)).map(Counter),
            )
        )
        before = dict(supply)
        got = list(iter_guesses(inst, candidates, supply))
        assert got == [
            (guess, left)
            for guess, left in ref_iter_guesses(inst, candidates)
            if all(supply[c] >= m for c, m in left.items())
        ]
        assert dict(supply) == before


def ref_solve_cycle(inst):
    """`max_leaf._solve_cycle` with one `Counter` per start vertex."""
    g = inst.graph
    order = [0, g.adjacency[0][0]]
    while len(order) < g.n:
        cur, prev = order[-1], order[-2]
        order.append(next(u for u in g.adjacency[cur] if u != prev))
    total = inst.motif.total
    if total > g.n:
        return SolveOutcome.no()
    if total == g.n:
        return (
            SolveOutcome.yes(order)
            if inst.motif.matches(inst.coloring)
            else SolveOutcome.no()
        )
    doubled = order + order
    target = inst.motif.as_counter()
    for start in range(g.n):
        segment = doubled[start : start + total]
        if Counter(inst.coloring[v] for v in segment) == target:
            return SolveOutcome.yes(segment)
    return SolveOutcome.no()


class TestSolveCycle:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_start_counters(self, data):
        n = data.draw(st.integers(3, 12))
        labels = data.draw(st.permutations(range(n)))
        edges = [(labels[i], labels[(i + 1) % n]) for i in range(n)]
        coloring = tuple(data.draw(st.integers(0, 2)) for _ in range(n))
        motif_colors = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=n + 2))
        inst = Instance(Graph(n, edges), coloring, Motif(dict(Counter(motif_colors))))
        assert max_leaf._solve_cycle(inst) == ref_solve_cycle(inst)


def ref_try_trace(inst, t_set, _remaining, paths):
    """`max_leaf._try_trace` with a list of chosen vertices per state and no
    supply bound: the DP the back-pointer version must reproduce.  It counts
    its own leftover; `_remaining` is ignored."""
    g = inst.graph
    remaining = inst.motif.minus(inst.coloring[v] for v in t_set)
    comps = connected_components(g, t_set)
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    n_comps = len(comps)

    color_order = sorted(remaining)
    color_index = {c: i for i, c in enumerate(color_order)}
    target = tuple(remaining[c] for c in color_order)

    def canon(partition):
        seen = {}
        out = []
        for p in partition:
            if p not in seen:
                seen[p] = len(seen)
            out.append(seen[p])
        return tuple(out)

    def merge(partition, touched):
        if len(touched) <= 1:
            return partition
        roots = {partition[i] for i in touched}
        new_root = min(roots)
        return canon(tuple(new_root if p in roots else p for p in partition))

    start = (tuple([0] * len(color_order)), tuple(range(n_comps)))
    states = {start: []}
    for path in paths:
        options = max_leaf._path_options(inst, path, t_set, comp_of, remaining)
        nxt = {}
        for (counts, partition), chosen in states.items():
            for seg, touched, _ in options:
                if seg:
                    new_counts = list(counts)
                    ok = True
                    for v in seg:
                        idx = color_index[inst.coloring[v]]
                        new_counts[idx] += 1
                        if new_counts[idx] > target[idx]:
                            ok = False
                            break
                    if not ok:
                        continue
                    key = (tuple(new_counts), merge(partition, touched))
                else:
                    key = (counts, partition)
                if key not in nxt:
                    nxt[key] = chosen + seg
        states = nxt

    final = states.get((target, tuple([0] * n_comps)))
    if final is None:
        return None
    return try_witness(inst, sorted(t_set) + final)


@st.composite
def branching_instances(draw, max_n=12):
    """Connected instances with at least two vertices of degree >= 3."""
    n = draw(st.integers(5, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = list(combinations(range(n), 2))
    edges.update(draw(st.lists(st.sampled_from(pairs), max_size=n, unique=True)))
    g = Graph(n, sorted(edges))
    assume(sum(1 for v in range(n) if g.degree(v) >= 3) >= 2)
    coloring = tuple(draw(st.integers(0, 3)) for _ in range(n))
    motif = Counter(draw(st.lists(st.integers(0, 3), min_size=1, max_size=8)))
    return Instance(g, coloring, Motif(dict(motif)))


def unbounded_guesses(inst, candidates, _supply):
    """`iter_guesses` with no supply floor: every subset that fits the motif."""
    return iter_guesses(inst, candidates, inst.motif.as_counter())


def fits_every_trace(inst, s, paths):
    """`max_leaf._attached_fit` that lets every trace through."""
    return lambda t, remaining: True


@contextlib.contextmanager
def no_supply_bounds(module):
    """`module`'s solver tries every guess that fits the motif."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(module, "iter_guesses", unbounded_guesses))
        if module is max_leaf:
            stack.enter_context(
                mock.patch.object(max_leaf, "_attached_fit", fits_every_trace)
            )
        yield


class TestMaxLeafDP:
    def check_against_reference(self, inst):
        s, paths = degree3_decomposition(inst.graph)
        comp_counts = set()
        for t, remaining in iter_guesses(inst, sorted(s), inst.motif.as_counter()):
            comp_counts.add(len(connected_components(inst.graph, t)))
            t_set = set(t)
            assert max_leaf._try_trace(
                inst, t_set, remaining, paths
            ) == ref_try_trace(inst, t_set, remaining, paths), t
        # The reference DP on every guess, none dropped by a supply bound.
        with no_supply_bounds(max_leaf), mock.patch.object(
            max_leaf, "_try_trace", ref_try_trace
        ):
            expected = solve_max_leaf_xp(inst)
        got = solve_max_leaf_xp(inst)
        assert got == expected
        assert got.is_yes == solve_brute(inst).is_yes
        return comp_counts

    @given(branching_instances())
    @settings(max_examples=200, deadline=None)
    def test_same_witness_as_list_dp(self, inst):
        self.check_against_reference(inst)

    @given(branching_instances())
    @settings(max_examples=200, deadline=None)
    def test_attached_check_skips_only_failing_traces(self, inst):
        s, paths = degree3_decomposition(inst.graph)
        fits = max_leaf._attached_fit(inst, s, paths)
        for t, remaining in iter_guesses(inst, sorted(s), inst.motif.as_counter()):
            if not fits(t, remaining):
                t_set = set(t)
                assert max_leaf._try_trace(inst, t_set, remaining, paths) is None, t
                assert ref_try_trace(inst, t_set, remaining, paths) is None, t

    def test_trace_components_merge_along_a_path(self):
        # Two stars (centres 0 and 1) joined through vertex 2: the trace
        # {0, 1} has two components, which only the path 0-2-1 connects.
        g = Graph(8, [(0, 2), (2, 1), (0, 3), (0, 4), (1, 5), (1, 6), (6, 7)])
        inst = Instance(g, (0, 0, 1, 2, 2, 2, 2, 2), Motif({0: 2, 1: 1, 2: 1}))
        assert max(self.check_against_reference(inst)) == 2
        assert {0, 1, 2} < set(solve_max_leaf_xp(inst).witness)


def ref_dist_clique_try_guess(inst, s_prime, _remaining, clique, s_index, nbr_mask):
    """`dist_clique._try_guess` as a reference: the cover and the completion,
    with its own leftover count; `_remaining` is ignored.  Run on unbounded
    guesses, it tries every guess with no clique supply check."""
    remaining = inst.motif.minus(inst.coloring[v] for v in s_prime)
    if not remaining:
        return try_witness(inst, s_prime)
    comps = connected_components(inst.graph, s_prime)
    comp_masks = [sum(1 << s_index[v] for v in comp) for comp in comps]
    seen = {}
    sets = []
    set_vertex = []
    for v in clique:
        color = inst.coloring[v]
        if remaining[color] == 0:
            continue
        elems = tuple(j for j, mask in enumerate(comp_masks) if nbr_mask[v] & mask)
        key = (color, elems)
        if key in seen:
            continue
        seen[key] = v
        sets.append(key)
        set_vertex.append(v)
    sol = solve_csct(CsctInstance(len(comps), tuple(sets), dict(remaining)))
    if sol is None:
        return None
    chosen = [set_vertex[j] for j in sol.chosen]
    still_needed = Counter(remaining)
    still_needed.subtract(Counter(inst.coloring[v] for v in chosen))
    completion = pick_by_colors(inst, +still_needed, clique, set(chosen))
    if completion is None:
        return None
    return try_witness(inst, list(s_prime) + chosen + completion)


@st.composite
def split_instances(draw, max_n=14):
    """A connected split graph, a clique plus at most 5 vertices S, and S."""
    k = draw(st.integers(0, 5))
    n = draw(st.integers(k + 1, max_n))
    order = draw(st.permutations(range(n)))
    s, clique = order[:k], order[k:]
    edges = set(combinations(sorted(clique), 2))
    for i, v in enumerate(s):
        # One forced edge into the clique or an earlier S vertex keeps G connected.
        u = draw(st.sampled_from(clique + s[:i]))
        edges.add((min(u, v), max(u, v)))
    pairs = [(min(u, v), max(u, v)) for u in s for v in range(n) if u != v]
    edges.update(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else [])
    coloring = tuple(draw(st.integers(0, 3)) for _ in range(n))
    motif = Counter(draw(st.lists(st.integers(0, 3), min_size=1, max_size=6)))
    return Instance(Graph(n, sorted(edges)), coloring, Motif(dict(motif))), set(s)


class TestDistCliqueSupply:
    @given(split_instances())
    @settings(max_examples=200, deadline=None)
    def test_same_outcome_as_unchecked_guesses(self, case):
        inst, s = case
        with no_supply_bounds(dist_clique), mock.patch.object(
            dist_clique, "_try_guess", ref_dist_clique_try_guess
        ):
            expected = dist_clique._solve_connected(inst, s)
        got = dist_clique._solve_connected(inst, s)
        assert got == expected
        assert got.is_yes == solve_brute(inst).is_yes

    def test_missing_clique_color_runs_no_cover(self):
        # Clique 0-1-2 of colour 0; vertices 3 and 4 of colour 1 hang off it.
        # Every guess leaves some colour 1 to the clique, which has none.
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])
        inst = Instance(g, (0, 0, 0, 1, 1), Motif({0: 1, 1: 3}))
        with mock.patch.object(dist_clique, "solve_csct", wraps=solve_csct) as csct:
            assert not solve_dist_clique(inst, deletion_set={3, 4})
        assert csct.call_count == 0


def count_guesses(module, kernel, solve):
    """Whether `solve()` says YES, how many guesses `module` enumerates on the
    way, and how many calls it makes to its inner `kernel`."""
    enumerate_guesses = module.iter_guesses
    guesses = 0

    def counting(*args):
        nonlocal guesses
        for guess in enumerate_guesses(*args):
            guesses += 1
            yield guess

    with mock.patch.object(module, "iter_guesses", counting), mock.patch.object(
        module, kernel, wraps=getattr(module, kernel)
    ) as calls:
        is_yes = solve().is_yes
    return is_yes, guesses, calls.call_count


# A NO instance per solver from the generators, so that every guess is
# tried: (module, kernel, solve, counts, counts without the supply bounds).
DOMSET_CLUSTER_P4 = gen_domset_reduction(Graph(4, [(0, 1), (1, 2), (2, 3)]), 1, "cluster")
DOMSET_CLUSTER_TREE = gen_domset_reduction(
    Graph(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)]), 1, "cluster"
)
HITTING_SET = gen_hitting_set_split(
    SetSystem(6, ((0, 1, 2, 5), (0, 5), (0, 2), (0, 1, 3), (0, 1, 3, 5), (1, 3, 5)), 1)
)
PINNED_COUNTS = {
    "dist-clique": (
        dist_clique, "solve_csct", lambda: solve_dist_clique(HITTING_SET.instance),
        (False, 1, 1), (False, 63, 63),
    ),
    "vc": (
        vertex_cover, "max_matching_with_cover",
        lambda: solve_vertex_cover(DOMSET_CLUSTER_P4.instance),
        (False, 180, 19), (False, 296, 19),
    ),
    "maxleaf": (
        max_leaf, "_try_trace", lambda: solve_max_leaf_xp(DOMSET_CLUSTER_TREE.instance),
        (False, 3024, 348), (False, 4175, 4175),
    ),
}


class TestGuessCounts:
    @pytest.mark.parametrize("solver", sorted(PINNED_COUNTS))
    def test_pinned_counts(self, solver):
        module, kernel, solve, bounded, unbounded = PINNED_COUNTS[solver]
        assert count_guesses(module, kernel, solve) == bounded
        with no_supply_bounds(module):
            assert count_guesses(module, kernel, solve) == unbounded


X3C_Q5_SCRIPT = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from motifkit.generators import X3cInstance, gen_x3c_paths
from motifkit.solvers import solve_max_leaf_xp

sources = [
    ((1, 7, 10), (2, 7, 8), (2, 6, 7), (3, 8, 13), (9, 11, 14), (4, 6, 9),
     (0, 1, 5), (5, 7, 11), (5, 10, 11), (0, 1, 10), (2, 12, 14)),
    ((3, 6, 7), (9, 10, 14), (1, 6, 10), (2, 4, 11), (4, 10, 12), (1, 5, 6),
     (5, 8, 13), (3, 4, 12), (6, 10, 14), (1, 13, 14), (0, 4, 12)),
]
for triples in sources:
    gen = gen_x3c_paths(X3cInstance(5, triples))
    out = solve_max_leaf_xp(gen.instance)
    print(gen.instance.graph.n, out.is_yes, X3cInstance(5, triples).has_exact_cover())
"""


def test_maxleaf_decides_x3c_paths_q5_in_1gib():
    # The list-per-state DP needed 1.36 GB at q = 4 and was killed at q = 5.
    src = str(Path(motifkit.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", X3C_Q5_SCRIPT],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1"),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "78 True True\n78 False False\n"
