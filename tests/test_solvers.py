import contextlib
import linecache
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
    InputError,
    Instance,
    Motif,
    connected_components,
    verify_solution,
)
from motifkit.estimators import (
    degree3_decomposition,
    dist_to_clique_set,
    greedy_vertex_clique_cover,
    min_vertex_cover,
)
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
from motifkit.generators import (
    SetSystem,
    X3cInstance,
    gen_domset_reduction,
    gen_hitting_set_split,
    gen_x3c_paths,
    gen_x3c_superstar_cliques,
)
from motifkit.solvers import (
    co_cluster,
    dist_clique,
    edge_clique_cover,
    max_leaf,
    vertex_clique_cover,
    vertex_cover,
)
from motifkit.solvers import common
from motifkit.solvers.common import (
    guess_space,
    iter_connected,
    iter_guesses,
    pick_by_colors,
)


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

    def test_one_vertex_motif_gives_the_lowest_vertex(self):
        # A star whose centre 0 is its vertex cover, every vertex of the
        # motif's one colour: the dispatcher answers with vertex 0.
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        inst = Instance(g, (5, 5, 5, 5), Motif({5: 1}))
        for name, out in run_all(inst).items():
            assert out.witness == (0,), name

    def test_brute_capacity_cap(self):
        g = Graph(26, [(i, i + 1) for i in range(25)])
        inst = Instance(g, (0,) * 26, Motif({0: 2}))
        with pytest.raises(CapacityError):
            solve_brute(inst)


@st.composite
def near_co_clusters(draw):
    """A complete multipartite graph (1-4 classes of 1-3 vertices) plus 0-3
    extra vertices joined at random, and the set of the extra vertices: a
    distance-to-co-cluster set, whose classes `instances()` seldom draws."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    label = [i for i, k in enumerate(sizes) for _ in range(k)]
    core = len(label)
    n = core + draw(st.integers(0, 3))
    edges = [(u, v) for u, v in combinations(range(core), 2) if label[u] != label[v]]
    edges += [(u, v) for u, v in combinations(range(n), 2) if v >= core and draw(st.booleans())]
    coloring = tuple(draw(st.integers(0, 2)) for _ in range(n))
    motif = Counter(draw(st.lists(st.integers(0, 2), min_size=1, max_size=5)))
    return Instance(Graph(n, edges), coloring, Motif(dict(motif))), set(range(core, n))


class TestAgreement:
    @given(near_co_clusters())
    @settings(max_examples=150, deadline=None)
    def test_co_cluster_matches_brute_near_a_co_cluster(self, case):
        inst, extra = case
        expected = solve_brute(inst).is_yes
        for out in (solve_co_cluster(inst), solve_co_cluster(inst, extra)):
            assert out.is_yes == expected
            if out.is_yes:
                assert verify_solution(inst, out.witness)

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
        g = Graph(3, [(0, 1), (1, 2)])
        inst = Instance(g, (0, 0, 0), Motif({0: 2}))
        with pytest.raises(InputError):
            solve_edge_clique_cover(inst, [[0, 1]])

    @pytest.mark.parametrize(
        "solve, inst, given",
        [
            (solve_vertex_cover, path_instance([0] * 4, {0: 3}), {0}),
            (
                solve_vertex_cover,
                Instance(Graph(3, [(0, 2), (2, 1)]), (0, 0, 0), Motif({0: 3})),
                set(),
            ),
            (
                solve_dist_clique,
                Instance(Graph(3, [(0, 2), (2, 1)]), (0, 0, 0), Motif({0: 2})),
                set(),
            ),
            # A P4 is no co-cluster; trusted, the set gave a YES from one vertex.
            (solve_co_cluster, path_instance([0] * 4, {0: 1}), set()),
        ],
    )
    def test_deletion_set_that_leaves_the_wrong_graph_is_refused(
        self, solve, inst, given
    ):
        # Trusted, the two vertex covers gave a wrong NO, and the distance-to-
        # clique set an invalid witness.
        with pytest.raises(InputError, match="supplied set is not a"):
            solve(inst, given)

    def test_valid_deletion_sets_pass_the_check(self):
        inst = path_instance([0] * 4, {0: 3})
        assert solve_vertex_cover(inst, {1, 2}).is_yes
        assert solve_dist_clique(inst, {0, 3}).is_yes

    def test_vertex_partition_must_be_partition(self):
        g = Graph(3, [(0, 1), (1, 2)])
        inst = Instance(g, (0, 0, 0), Motif({0: 2}))
        with pytest.raises(InputError):
            solve_vertex_clique_cover(inst, [[0, 1], [1, 2]])


BAD_WITNESS_SCRIPT = """
import sys
from motifkit.core import Graph, Instance, Motif
from motifkit.solvers.common import dispatch_components

# Colours fit the motif, but 0 and 2 are not adjacent.
inst = Instance(Graph(3, [(0, 1), (1, 2)]), (0, 0, 1), Motif({0: 1, 1: 1}))
try:
    dispatch_components(inst, lambda sub, ids: [0, 2])
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


def disconnected_pair(inst, *args):
    """Two non-adjacent vertices of `inst`: a witness the check must refuse."""
    g = inst.graph
    return next([u, v] for u, v in combinations(range(g.n), 2) if not g.has_edge(u, v))


# Triangle 0-1-2 of colour 0 with pendants 3 at 0 and 4 at 1 of colour 1: no
# clique, cover clique or path holds both colours, so each solver gets to
# its inner kernel.  The path 0-1-2 is the co-cluster K1,2 and a solution
# meets both its classes.
PENDANT_TRIANGLE = Instance(
    Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)]), (0, 0, 0, 1, 1), Motif({0: 1, 1: 1})
)
P3 = Instance(Graph(3, [(0, 1), (1, 2)]), (0, 1, 0), Motif({0: 1, 1: 1}))
# (module, innermost kernel, solve, a YES instance on which it is called).
KERNELS = {
    "dist-clique": (dist_clique, "_try_guess", solve_dist_clique, PENDANT_TRIANGLE),
    "vc": (vertex_cover, "_try_guess", solve_vertex_cover, PENDANT_TRIANGLE),
    "cocluster": (co_cluster, "_try_pair", solve_co_cluster, P3),
    "maxleaf": (max_leaf, "_try_trace", solve_max_leaf_xp, PENDANT_TRIANGLE),
    "ecc": (
        edge_clique_cover, "_try_family",
        lambda inst: solve_edge_clique_cover(inst, inst.graph.edges()), PENDANT_TRIANGLE,
    ),
    "vcc": (
        vertex_clique_cover, "_try_family",
        lambda inst: solve_vertex_clique_cover(inst, greedy_vertex_clique_cover(inst.graph)),
        PENDANT_TRIANGLE,
    ),
}


@pytest.mark.parametrize("solver", sorted(KERNELS))
def test_kernel_witness_cannot_bypass_the_check(solver):
    module, kernel, solve, inst = KERNELS[solver]
    assert solve(inst).is_yes
    with mock.patch.object(module, kernel, side_effect=disconnected_pair) as bad:
        with pytest.raises(AssertionError, match="invalid witness"):
            solve(inst)
    assert bad.called


def test_cocluster_checks_its_witness_once_and_skips_the_public_vc_solver():
    # Case A hands each component of G[X + class] to the vc kernel: the
    # public vc solver would prune, split and verify a second time.  Every
    # call of the public vc solver goes through its module's dispatcher.
    inst = gen_x3c_superstar_cliques(FIG_SOURCE).instance
    with mock.patch.object(
        common, "verify_solution", wraps=verify_solution
    ) as verified, mock.patch.object(
        vertex_cover, "dispatch_deletion_set", wraps=common.dispatch_deletion_set
    ) as vc_solves:
        assert solve_co_cluster(inst).is_yes
    assert verified.call_count == 1
    assert vc_solves.call_count == 0


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


    def test_a_color_the_candidates_cannot_pay_ends_the_walk_at_once(self):
        class Reads(list):
            """Counts `candidates[i]` reads: one per prefix extension."""

            count = 0

            def __getitem__(self, i):
                self.count += 1
                return super().__getitem__(i)

        # The motif needs color 0 twice, only candidate 0 has it, and the
        # supply adds none: every prefix is cut before it is built.
        n = 16
        inst = Instance(Graph(n), (0,) + (1,) * (n - 1), Motif({0: 2, 1: 4}))
        candidates = Reads(range(n))
        assert list(iter_guesses(inst, candidates, Counter({1: 4}))) == []
        assert candidates.count == 0


class TestIterConnected:
    @given(instances(max_n=8), st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_matches_filtered_combinations(self, inst, size):
        g = inst.graph
        got = [tuple(sorted(s)) for s in iter_connected(g.adjacency, size)]
        assert len(set(got)) == len(got)
        assert sorted(got) == [
            s
            for s in combinations(range(g.n), size)
            if len(connected_components(g, s)) == 1
        ]

    @given(instances(max_n=8))
    @settings(max_examples=300, deadline=None)
    def test_color_fit_keep(self, inst):
        g, motif = inst.graph, inst.motif

        def fits(s):
            return motif.contains(inst.coloring[v] for v in s)

        got = iter_connected(g.adjacency, motif.total, fits)
        assert sorted(tuple(sorted(s)) for s in got) == [
            s
            for s in combinations(range(g.n), motif.total)
            if len(connected_components(g, s)) == 1 and fits(s)
        ]


def ref_solve_cycle(inst):
    """`max_leaf._solve_cycle` with one `Counter` per start vertex."""
    g = inst.graph
    order = [0, g.adjacency[0][0]]
    while len(order) < g.n:
        cur, prev = order[-1], order[-2]
        order.append(next(u for u in g.adjacency[cur] if u != prev))
    total = inst.motif.total
    if total > g.n:
        return None
    if total == g.n:
        return order if inst.motif.matches(inst.coloring) else None
    doubled = order + order
    target = inst.motif.as_counter()
    for start in range(g.n):
        segment = doubled[start : start + total]
        if Counter(inst.coloring[v] for v in segment) == target:
            return segment
    return None


def sorted_witness(found):
    """A kernel's vertex list, sorted, or None."""
    return None if found is None else sorted(found)


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
        assert sorted_witness(max_leaf._solve_cycle(inst)) == sorted_witness(
            ref_solve_cycle(inst)
        )


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

    def merge(partition, groups):
        for touched in groups:
            roots = {partition[i] for i in touched}
            if len(roots) > 1:
                new_root = min(roots)
                partition = canon(tuple(new_root if p in roots else p for p in partition))
        return partition

    start = (tuple([0] * len(color_order)), tuple(range(n_comps)))
    states = {start: []}
    for path in paths:
        options = max_leaf._path_options(inst, path, t_set, comp_of, remaining)
        nxt = {}
        for (counts, partition), chosen in states.items():
            for seg, groups, _ in options:
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
                    key = (tuple(new_counts), merge(partition, groups))
                else:
                    key = (counts, partition)
                if key not in nxt:
                    nxt[key] = chosen + seg
        states = nxt

    final = states.get((target, tuple([0] * n_comps)))
    if final is None:
        return None
    return sorted(t_set) + final


@st.composite
def branching_instances(draw, max_n=12):
    """Connected instances with at least two vertices of degree >= 3.

    Up to three edges are subdivided into paths of one to three new
    vertices, so that paths long enough for a prefix plus a suffix occur.
    Half the motifs are the colours of a connected vertex set, so that the
    path DP often reaches its goal."""
    n = draw(st.integers(5, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = list(combinations(range(n), 2))
    edges.update(draw(st.lists(st.sampled_from(pairs), max_size=n, unique=True)))
    for u, v in draw(st.lists(st.sampled_from(sorted(edges)), max_size=3, unique=True)):
        chain = [u, *range(n, n + draw(st.integers(1, 3))), v]
        n = chain[-2] + 1
        edges.remove((u, v))
        edges.update(zip(chain, chain[1:]))
    g = Graph(n, sorted(edges))
    assume(sum(1 for v in range(n) if g.degree(v) >= 3) >= 2)
    coloring = tuple(draw(st.integers(0, 3)) for _ in range(n))
    if draw(st.booleans()):
        grown = [draw(st.integers(0, n - 1))]
        for _ in range(draw(st.integers(0, 7))):
            frontier = sorted({u for v in grown for u in g.adjacency[v]} - set(grown))
            if frontier:
                grown.append(draw(st.sampled_from(frontier)))
        motif = Counter(coloring[v] for v in grown)
    else:
        motif = Counter(draw(st.lists(st.integers(0, 3), min_size=1, max_size=8)))
    return Instance(g, coloring, Motif(dict(motif)))


def unbounded_guesses(inst, candidates, _supply, links=None):
    """`iter_guesses` with no supply floor: every subset that fits the motif
    (and is linked, if `links` is given)."""
    return iter_guesses(inst, candidates, inst.motif.as_counter(), links)


def fits_every_trace(inst, s, paths):
    """`max_leaf._attached_fit` that lets every trace through."""
    return lambda t, remaining: True


def links_every_trace(inst, s, paths):
    """`max_leaf._link_masks` that lets every trace through: no masks."""
    return None


@contextlib.contextmanager
def no_supply_bounds(module):
    """`module`'s solver tries every guess that fits the motif."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(common, "iter_guesses", unbounded_guesses))
        if module is max_leaf:
            stack.enter_context(
                mock.patch.object(max_leaf, "_link_masks", links_every_trace)
            )
            stack.enter_context(
                mock.patch.object(max_leaf, "_attached_fit", fits_every_trace)
            )
        yield


def is_linked(g, paths, t):
    """Whether trace t is connected once every two of its vertices that are
    adjacent, or attached to the ends of one path, are joined."""
    edges = {(u, v) for u, v in g.edges() if u in t and v in t}
    for path in paths:
        ends = sorted(set(path.first_attach + path.last_attach) & set(t))
        edges.update(combinations(ends, 2))
    return len(connected_components(Graph(g.n, sorted(edges)), t)) == 1


class TestMaxLeafDP:
    def check_against_reference(self, inst):
        s, paths = degree3_decomposition(inst.graph)
        comp_counts = set()
        for t, remaining in iter_guesses(inst, sorted(s), inst.motif.as_counter()):
            comp_counts.add(len(connected_components(inst.graph, t)))
            t_set = set(t)
            assert sorted_witness(
                max_leaf._try_trace(inst, t_set, remaining, paths)
            ) == sorted_witness(ref_try_trace(inst, t_set, remaining, paths)), t
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

    @pytest.mark.parametrize(
        "inst",
        [
            # S = {0, 4}: the path 1 joins them, the path 2-6-9 only whole.
            # Its prefix 2 plus suffix 9 once counted as joining them too;
            # that state reached the goal first, its witness failed the
            # check, and the trace, the only one that can succeed, gave NO.
            Instance(
                Graph(10, [(0, 1), (0, 2), (0, 3), (0, 5), (0, 8), (1, 4), (2, 6),
                           (4, 7), (4, 9), (6, 9)]),
                (0, 0, 0, 0, 0, 0, 0, 1, 1, 1),
                Motif({0: 3, 1: 3}),
            ),
            # Vertex 9 is pruned (colour 3), so S = {1, 2}; the same happens
            # with the prefix 3 plus suffix 6 of the path 3-7-6.
            Instance(
                Graph(11, [(0, 1), (0, 2), (0, 9), (1, 3), (1, 4), (1, 5), (1, 8),
                           (2, 6), (2, 10), (3, 7), (6, 7)]),
                (0, 0, 1, 0, 0, 0, 1, 0, 2, 3, 0),
                Motif({0: 2, 1: 2, 2: 1}),
            ),
        ],
    )
    def test_prefix_and_suffix_keep_their_ends_apart(self, inst):
        assert solve_brute(inst).is_yes
        assert solve_max_leaf_xp(inst).is_yes
        self.check_against_reference(inst)

    def test_first_linked_trace_is_tried_first(self):
        # K30 (colour 0) with a pendant leaf (colour 1) per clique vertex:
        # millions of traces are linked and fit, and the first one succeeds.
        edges = list(combinations(range(30), 2)) + [(v, 30 + v) for v in range(30)]
        inst = Instance(Graph(60, edges), (0,) * 30 + (1,) * 30, Motif({0: 8, 1: 1}))
        assert count_guesses(max_leaf, "_try_trace", lambda: solve_max_leaf_xp(inst)) == (
            True, 1, 1,
        )

    @given(branching_instances())
    @settings(max_examples=200, deadline=None)
    def test_link_test_matches_reference(self, inst):
        # A mask bit is set exactly when the two vertices form a linked trace.
        s, paths = degree3_decomposition(inst.graph)
        s = sorted(s)
        links = max_leaf._link_masks(inst, s, paths)
        for i, j in combinations(range(len(s)), 2):
            expected = is_linked(inst.graph, paths, (s[i], s[j]))
            assert bool(links[i] >> j & 1) == bool(links[j] >> i & 1) == expected

    @given(branching_instances())
    @settings(max_examples=200, deadline=None)
    def test_unlinked_traces_fail(self, inst):
        s, paths = degree3_decomposition(inst.graph)
        s = sorted(s)
        motif = inst.motif.as_counter()
        links = max_leaf._link_masks(inst, s, paths)
        kept = {t for t, _ in iter_guesses(inst, s, motif, links)}
        for t, remaining in iter_guesses(inst, s, motif):
            if t not in kept:
                assert ref_try_trace(inst, set(t), remaining, paths) is None, t

    @given(branching_instances(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_linked_guesses_are_the_filtered_sequence(self, inst, real_supply):
        # The cut prefixes lose only unlinked guesses: same order, same leftovers.
        s, paths = degree3_decomposition(inst.graph)
        supply = (
            Counter(inst.coloring[v] for v in range(inst.graph.n) if v not in s)
            if real_supply
            else inst.motif.as_counter()
        )
        s = sorted(s)
        links = max_leaf._link_masks(inst, s, paths)
        assert list(iter_guesses(inst, s, supply, links)) == [
            (t, left)
            for t, left in iter_guesses(inst, s, supply)
            if is_linked(inst.graph, paths, t)
        ]

    @given(branching_instances())
    @settings(max_examples=200, deadline=None)
    def test_goal_state_gives_a_witness(self, inst):
        # `_try_trace` returns a witness exactly when the DP reaches its goal.
        s, paths = degree3_decomposition(inst.graph)
        for t, remaining in iter_guesses(inst, sorted(s), inst.motif.as_counter()):
            found = max_leaf._try_trace(inst, set(t), remaining, paths)
            if found is not None:
                assert verify_solution(inst, found), t


def ref_dist_clique_try_guess(inst, s_prime, _remaining, clique, s_index, nbr_mask):
    """`dist_clique._try_guess` as a reference: the cover and the completion,
    with its own leftover count; `_remaining` is ignored.  Run on unbounded
    guesses, it tries every guess with no clique supply check."""
    remaining = inst.motif.minus(inst.coloring[v] for v in s_prime)
    if not remaining:
        return list(s_prime) if verify_solution(inst, s_prime) else None
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
    return list(s_prime) + chosen + completion


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
        assert sorted_witness(got) == sorted_witness(expected)
        assert (got is not None) == solve_brute(inst).is_yes

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
    enumerate_guesses = common.iter_guesses
    guesses = 0

    def counting(*args):
        nonlocal guesses
        for guess in enumerate_guesses(*args):
            guesses += 1
            yield guess

    with mock.patch.object(common, "iter_guesses", counting), mock.patch.object(
        module, kernel, wraps=getattr(module, kernel)
    ) as calls:
        is_yes = solve().is_yes
    return is_yes, guesses, calls.call_count


# A NO instance per solver from the generators, so that every guess is
# tried: (module, kernel, solve, counts, counts without the supply bounds;
# for maxleaf also without the link filter and the attached-path check).
DOMSET_CLUSTER_P4 = gen_domset_reduction(Graph(4, [(0, 1), (1, 2), (2, 3)]), 1, "cluster")
DOMSET_CLUSTER_TREE = gen_domset_reduction(
    Graph(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)]), 1, "cluster"
)
FIG_SOURCE = X3cInstance(2, ((0, 2, 4), (0, 1, 3), (1, 3, 5), (1, 4, 5)))
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
        (False, 36, 0), (False, 4175, 4175),
    ),
}


class TestGuessCounts:
    @pytest.mark.parametrize("solver", sorted(PINNED_COUNTS))
    def test_pinned_counts(self, solver):
        module, kernel, solve, bounded, unbounded = PINNED_COUNTS[solver]
        assert count_guesses(module, kernel, solve) == bounded
        with no_supply_bounds(module):
            assert count_guesses(module, kernel, solve) == unbounded


# A NO hitting-set split: the element clique is a co-cluster of nine
# singleton classes once the three set vertices go, so case B tries every
# element pair.  A pair uses up both element slots of the motif, and pruning
# then leaves fewer than |M| vertices around it: no kernel call.
THREE_TRIPLES = gen_hitting_set_split(
    SetSystem(9, ((0, 1, 2), (3, 4, 5), (6, 7, 8)), 2)
)


class TestCoClusterPairs:
    def test_pairs_are_recoloured_on_one_graph(self):
        with mock.patch.object(
            co_cluster, "_try_pair", wraps=co_cluster._try_pair
        ) as pairs, mock.patch.object(
            co_cluster, "_solve_dc_connected", wraps=co_cluster._solve_dc_connected
        ) as kernels, mock.patch.object(
            Graph, "__init__", autospec=True, side_effect=Graph.__init__
        ) as built:
            assert not solve_co_cluster(THREE_TRIPLES.instance)
        # Contracting each pair into a new graph made 37 graphs and 36 calls.
        assert (pairs.call_count, built.call_count, kernels.call_count) == (36, 1, 0)


class TestCountGuesses:
    @given(guess_cases(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_count_equals_enumeration(self, case, data):
        inst, candidates = case
        supply = data.draw(
            st.dictionaries(st.integers(0, 4), st.integers(0, 3)).map(Counter)
        )
        got = common.count_guesses(inst, candidates, supply)
        assert got == len(list(iter_guesses(inst, candidates, supply)))

    @pytest.mark.parametrize(
        "solver, inst, estimate",
        [
            ("dist-clique", HITTING_SET.instance, dist_to_clique_set),
            ("vc", DOMSET_CLUSTER_P4.instance, min_vertex_cover),
        ],
    )
    def test_count_is_what_the_solver_walks(self, solver, inst, estimate):
        # On these NO instances the solver walks every guess it counts.
        guesses = PINNED_COUNTS[solver][3][1]
        predicted = sum(
            common.count_guesses(sub, *guess_space(sub, estimate(sub.graph)))
            for sub, _ in inst.pruned_components
        )
        assert predicted == guesses


def count_families(module, solve, sizes, joined):
    """`_try_family` calls made by `solve()` on a NO instance, and how many
    families of cliques there are, connected ones and all of them, over the
    cliques each component's `_solve_connected` gets.

    `sizes(inst, cliques)` gives the family sizes the solver enumerates, and
    `joined(inst, a, b)` whether cliques a and b are adjacent.
    """
    with mock.patch.object(
        module, "_try_family", wraps=module._try_family
    ) as tries, mock.patch.object(
        module, "_solve_connected", wraps=module._solve_connected
    ) as components:
        assert not solve().is_yes
    connected = every = 0
    for call in components.call_args_list:
        inst, cliques = call.args
        for size in sizes(inst, cliques):
            for family in combinations(cliques, size):
                meta = Graph(size, [
                    (a, b)
                    for a, b in combinations(range(size), 2)
                    if joined(inst, family[a], family[b])
                ])
                connected += len(connected_components(meta, range(size))) == 1
                every += 1
    return tries.call_count, connected, every


def usable_edge(inst, a, b):
    """Whether an edge joins cliques a and b whose end colors can both be in
    a solution: not one color of multiplicity one."""
    colors, motif = inst.coloring, inst.motif
    return any(
        inst.graph.has_edge(u, v)
        and (colors[u] != colors[v] or motif.count(colors[u]) > 1)
        for u in a
        for v in b
    )


# (module, solve, family sizes, clique adjacency, (calls, connected, all)).
# All families is what the solvers tried before they enumerated connected
# ones only.
FAMILY_COUNTS = {
    "ecc": (
        edge_clique_cover,
        lambda: solve_edge_clique_cover(
            DOMSET_CLUSTER_P4.instance, DOMSET_CLUSTER_P4.instance.graph.edges()
        ),
        lambda inst, cliques: range(1, min(len(cliques), inst.motif.total - 1) + 1),
        lambda inst, a, b: bool(set(a) & set(b)),
        (870, 870, 35442),
    ),
    "vcc": (
        vertex_clique_cover,
        lambda: solve_vertex_clique_cover(
            DOMSET_CLUSTER_P4.instance,
            greedy_vertex_clique_cover(DOMSET_CLUSTER_P4.instance.graph),
        ),
        lambda inst, cliques: range(2, min(len(cliques), inst.motif.total) + 1),
        usable_edge,
        (15, 15, 26),
    ),
}


class TestFamilyCounts:
    @pytest.mark.parametrize("solver", sorted(FAMILY_COUNTS))
    def test_only_connected_families_are_tried(self, solver):
        module, solve, sizes, joined, counts = FAMILY_COUNTS[solver]
        calls, connected, every = count_families(module, solve, sizes, joined)
        assert calls == connected < every
        assert (calls, connected, every) == counts


class TestConnectablePartitions:
    def test_set_partitions_without_connectors_are_skipped(self):
        # A YES x3c-paths instance: `vc` tries ordered partitions of the
        # guessed trace's components, and most set partitions have a block
        # that no available vertex touches whole.
        inst = gen_x3c_paths(FIG_SOURCE).instance
        every_order = vertex_cover.iter_ordered_partitions

        def tries(enumerate_partitions):
            with mock.patch.object(
                vertex_cover, "iter_ordered_partitions", enumerate_partitions
            ), mock.patch.object(
                vertex_cover, "_try_partition", wraps=vertex_cover._try_partition
            ) as calls:
                return solve_vertex_cover(inst), calls.call_count

        skipped, calls = tries(every_order)
        unfiltered, all_calls = tries(lambda items, parts, keep: every_order(items, parts))
        assert skipped.is_yes and skipped == unfiltered
        assert (calls, all_calls) == (6511, 24474)


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


def steps_taken(module, run):
    """`run()`'s result and the steps it took in `module`'s file: each pair of
    lines one frame executed in a row, as stripped source text.  A branch ran
    when the step from its test line into its body is among them."""
    path = module.__file__
    steps = set()

    def call(frame, event, arg):
        if frame.f_code.co_filename != path:
            return None
        last = [None]

        def line(frame, event, arg):
            if event == "line":
                text = linecache.getline(path, frame.f_lineno).strip()
                steps.add((last[0], text))
                last[0] = text
            return line

        return line

    old = sys.gettrace()
    sys.settrace(call)
    try:
        return run(), steps
    finally:
        sys.settrace(old)


# (module, solver, instance, structure, step): live kernel branches that the
# agreement properties seldom reach, each on an instance built to reach it.
KERNEL_BRANCHES = {
    # Cover {0, 1, 2}, all colour 1: the motif's five 1s force the guess of
    # all three, three components.  Vertices 3 (colour 1) and 4 (colour 0)
    # touch 0 and 1, vertex 5 (colour 0) touches 0 and 2.  On the blocks
    # [{0, 1}, {2}] the lowest colour for the first slot, 0, would leave the
    # second slot none: the colour-copy matching gives the first slot 1.
    "vc-lowest-colour-starves-a-later-slot": (
        vertex_cover,
        solve_vertex_cover,
        Instance(
            Graph(7, [(0, 3), (1, 3), (0, 4), (1, 4), (0, 5), (2, 5), (1, 6)]),
            (1, 1, 1, 1, 0, 0, 1),
            Motif({1: 5, 0: 1}),
        ),
        {0, 1, 2},
        ("if result.size < l:", "chosen = ["),
    ),
    # The path 1-0-3-2-4 split into {1}, {4}, {0, 3}, {2}.  Where one vertex
    # of {0, 3} ends both its tree edges, the edge to {1} fixes it to colour
    # 3 and the edge {4}-{2} fixes {2} to colour 1: the edge {0, 3}-{2} has
    # both ends fixed, to the pair (3, 1), which its colour graph lacks.
    "vcc-both-ends-fixed-to-a-missing-pair": (
        vertex_clique_cover,
        solve_vertex_clique_cover,
        Instance(
            Graph(5, [(0, 1), (0, 3), (2, 3), (2, 4)]),
            (3, 2, 1, 0, 0),
            Motif({0: 2, 1: 1, 2: 1, 3: 1}),
        ),
        [[1], [4], [0, 3], [2]],
        ("if (fixed[g0], fixed[g1]) not in pairs:", "return None"),
    ),
    # Three cliques, so an edge is abundant at 3 choices.  Once the end in
    # {2} is fixed to colour 1, the end in {0, 1, 4} can take 0, 1 or 2.
    "vcc-one-end-fixed-edge-is-abundant": (
        vertex_clique_cover,
        solve_vertex_clique_cover,
        Instance(
            Graph(5, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4)]),
            (0, 2, 1, 0, 1),
            Motif({0: 2, 1: 2, 2: 1}),
        ),
        [[0, 1, 4], [2], [3]],
        ("if len(choices) >= abundance:",
         "return search(fixed, resolved, abundant | {e})"),
    ),
    # The colour graph of {0, 1, 2}-{3, 4, 5, 6} is three disjoint pairs, so
    # that edge is abundant and left open; the edge to {7} fixes the end in
    # {3, 4, 5, 6} to colour 1.  No colour of {0, 1, 2} pairs with 1, so
    # `assign` finds none for its group.
    "vcc-assign-finds-no-colour": (
        vertex_clique_cover,
        solve_vertex_clique_cover,
        Instance(
            Graph(8, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (3, 6), (4, 5),
                      (4, 6), (5, 6), (0, 5), (1, 4), (2, 6), (3, 7)]),
            (3, 1, 2, 1, 2, 4, 0, 0),
            Motif({0: 2, 1: 1, 2: 1, 3: 1, 4: 1}),
        ),
        [[0, 1, 2], [3, 4, 5, 6], [7]],
        ("for c in sorted({inst.coloring[v] for v in clique}):", "return None"),
    ),
    # The cliques {0, 1}, {1, 2, 3} and {2, 4} chain through 1 and 2, both
    # colour 0, and the motif has one 0: all three together hold the motif's
    # colours, but the vc kernel finds no connected solution in them.
    "ecc-vc-kernel-answers-no": (
        edge_clique_cover,
        solve_edge_clique_cover,
        Instance(
            Graph(5, [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4)]),
            (1, 0, 0, 1, 1),
            Motif({0: 1, 1: 3}),
        ),
        [[0, 1], [1, 2, 3], [2, 4]],
        ("if found is None:", "return None"),
    ),
}


@st.composite
def relabelled_branches(draw):
    """A `KERNEL_BRANCHES` case with its vertices, its colours and the order
    of its cliques permuted: instances next to the branch, most of which
    still reach it."""
    name = draw(st.sampled_from(sorted(KERNEL_BRANCHES)))
    _, solve, inst, structure, _ = KERNEL_BRANCHES[name]
    n = inst.graph.n
    vertex = draw(st.permutations(range(n)))
    colors = sorted(set(inst.coloring))
    color = dict(zip(colors, draw(st.permutations(colors))))
    coloring = [0] * n
    for v, c in enumerate(inst.coloring):
        coloring[vertex[v]] = color[c]
    relabelled = Instance(
        Graph(n, [(vertex[u], vertex[v]) for u, v in inst.graph.edges()]),
        tuple(coloring),
        Motif({color[c]: m for c, m in inst.motif.multiplicities.items()}),
    )
    if isinstance(structure, set):
        return solve, relabelled, {vertex[v] for v in structure}
    cliques = [sorted(vertex[v] for v in clique) for clique in structure]
    order = draw(st.permutations(range(len(cliques))))
    return solve, relabelled, [cliques[i] for i in order]


class TestKernelBranches:
    @pytest.mark.parametrize("case", sorted(KERNEL_BRANCHES))
    def test_branch_runs_and_matches_brute(self, case):
        module, solve, inst, structure, step = KERNEL_BRANCHES[case]
        out, steps = steps_taken(module, lambda: solve(inst, structure))
        assert step in steps
        assert out.is_yes == solve_brute(inst).is_yes
        assert not out.is_yes or verify_solution(inst, out.witness)

    @given(relabelled_branches())
    @settings(max_examples=100, deadline=None)
    def test_relabelled_branch_instances_match_brute(self, case):
        solve, inst, structure = case
        out = solve(inst, structure)
        assert out.is_yes == solve_brute(inst).is_yes
        assert not out.is_yes or verify_solution(inst, out.witness)


class TestOneMatchingPerPartition:
    @pytest.mark.parametrize(
        "inst, cover",
        [
            pytest.param(*KERNEL_BRANCHES["vc-lowest-colour-starves-a-later-slot"][2:4],
                         id="starved-slot"),
            pytest.param(gen_x3c_paths(FIG_SOURCE).instance, None, id="x3c-paths"),
        ],
    )
    def test_a_yes_solve_runs_one_matching(self, inst, cover):
        # Each slot's lowest candidate of its matched colour is already
        # distinct, so no second matching follows the colour-copy matching
        # of the partition that succeeds.  Every partition tried before it
        # here has a slot with no connector, so it runs no matching.
        with mock.patch.object(
            vertex_cover, "max_matching_with_cover",
            wraps=vertex_cover.max_matching_with_cover,
        ) as matchings:
            out = solve_vertex_cover(inst, cover)
        assert out.is_yes and verify_solution(inst, out.witness)
        assert matchings.call_count == 1
