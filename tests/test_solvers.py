import os
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motifkit
from motifkit.core import (
    CapacityError,
    Graph,
    Instance,
    Motif,
    verify_solution,
)
from motifkit.estimators import greedy_vertex_clique_cover
from motifkit.solvers import (
    StarWordProblem,
    solve_brute,
    solve_co_cluster,
    solve_dist_clique,
    solve_edge_clique_cover,
    solve_max_leaf_xp,
    solve_on_path,
    solve_star_words,
    solve_vertex_clique_cover,
    solve_vertex_cover,
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


def exhaustive_star_words(problem):
    words = problem.words
    target = problem.target.as_counter()

    def rec(i, counts):
        if i == len(words):
            return [] if counts == target else None
        for take in range(len(words[i]) + 1):
            c = counts + Counter(words[i][:take])
            if all(c[k] <= target[k] for k in c):
                rest = rec(i + 1, c)
                if rest is not None:
                    return [take] + rest
        return None

    return rec(0, Counter())


class TestStarWords:
    def test_simple_split(self):
        problem = StarWordProblem(Motif({0: 2, 1: 1}), ((0, 1), (0, 0)))
        lens = solve_star_words(problem)
        counts = Counter()
        for word, take in zip(problem.words, lens):
            counts.update(word[:take])
        assert counts == Counter({0: 2, 1: 1})

    def test_infeasible(self):
        problem = StarWordProblem(Motif({5: 1}), ((0, 1), (2,)))
        assert solve_star_words(problem) is None

    @given(
        st.lists(
            st.lists(st.integers(0, 2), max_size=4), min_size=1, max_size=4
        ),
        st.lists(st.integers(0, 2), min_size=1, max_size=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_exhaustive(self, words, motif_colors):
        problem = StarWordProblem(
            Motif(dict(Counter(motif_colors))), tuple(tuple(w) for w in words)
        )
        got = solve_star_words(problem)
        expected = exhaustive_star_words(problem)
        assert (got is None) == (expected is None)
        if got is not None:
            counts = Counter()
            for word, take in zip(problem.words, got):
                counts.update(word[:take])
            assert counts == problem.target.as_counter()


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
