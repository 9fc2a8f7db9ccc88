import random
import sys
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifkit import estimators
from motifkit.core import CapacityError, Graph, InputError, connected_components
from motifkit.estimators import (
    _clique_packing,
    _cluster_packing,
    _co_p3_packing,
    _find_co_p3,
    _next_co_p3,
    _next_edge,
    co_cluster_classes,
    degree3_decomposition,
    dist_to_clique_set,
    dist_to_co_cluster_set,
    greedy_vertex_clique_cover,
    is_co_cluster,
    min_vertex_cover,
    validate_clique_cover,
)
from motifkit.generators import X3cInstance, gen_x3c_superstar_cliques
from oracles import max_leaf_oracle


def graphs(max_n=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        pairs = list(combinations(range(n), 2))
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return Graph(n, edges)

    return build()


def connected_graphs(max_n=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        # A random spanning tree plus extra edges guarantees connectivity.
        edges = set()
        for v in range(1, n):
            edges.add((draw(st.integers(0, v - 1)), v))
        pairs = list(combinations(range(n), 2))
        extra = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        edges.update(extra)
        return Graph(n, sorted(edges))

    return build()


def is_vertex_cover(g, s):
    return all(u in s or v in s for u, v in g.edges())


def brute_min_size(g, predicate):
    for size in range(g.n + 1):
        for s in combinations(range(g.n), size):
            if predicate(set(s)):
                return size
    raise AssertionError


class TestMinVertexCover:
    def test_star(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert min_vertex_cover(g) == {0}

    def test_edgeless(self):
        assert min_vertex_cover(Graph(3, [])) == set()

    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_minimum_against_exhaustive(self, g):
        cover = min_vertex_cover(g)
        assert is_vertex_cover(g, cover)
        assert len(cover) == brute_min_size(g, lambda s: is_vertex_cover(g, s))

    def test_limit_gives_up(self):
        g = Graph(6, [(0, 1), (2, 3), (4, 5)])  # minimum cover is 3
        assert min_vertex_cover(g, limit=2) is None
        assert min_vertex_cover(g, limit=3) is not None


def clique_with_extras(clique_n, k, seed):
    """A clique on 0..clique_n-1 plus k pairwise non-adjacent extra vertices,
    each adjacent to 3 clique vertices (criterion 8's graph at 200, 12, 1008).
    The extras are the only minimum set whose removal leaves a clique."""
    rng = random.Random(seed)
    edges = list(combinations(range(clique_n), 2))
    for v in range(clique_n, clique_n + k):
        edges.extend((u, v) for u in rng.sample(range(clique_n), 3))
    return Graph(clique_n + k, edges)


class TestBussKernel:
    def test_clique_plus_extras_builds_no_masks(self):
        g = clique_with_extras(600, 10, 1)
        assert dist_to_clique_set(g) == set(range(600, 610))
        assert g._masks is None

    def test_star_centre_is_forced(self):
        g = Graph(51, [(0, v) for v in range(1, 51)])
        assert min_vertex_cover(g, limit=1) == {0}

    def test_criterion_8_graph(self):
        g = clique_with_extras(200, 12, 1008)
        assert dist_to_clique_set(g, 10) is None
        assert dist_to_clique_set(g) == set(range(200, 212))


class TestDistToClique:
    def test_clique_needs_nothing(self):
        g = Graph(4, list(combinations(range(4), 2)))
        assert dist_to_clique_set(g) == set()

    @given(graphs(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_removal_leaves_clique_and_is_minimum(self, g):
        s = dist_to_clique_set(g)

        def leaves_clique(removed):
            keep = [v for v in range(g.n) if v not in removed]
            return g.is_clique(keep)

        assert leaves_clique(s)
        assert len(s) == brute_min_size(g, leaves_clique)

    def test_limit(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert dist_to_clique_set(g, limit=1) is None


class TestCoCluster:
    def test_recognition(self):
        # Complete multipartite graphs are co-clusters; a path on 4 is not.
        assert is_co_cluster(Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)]))
        assert is_co_cluster(Graph(3, [(0, 1), (1, 2)]))  # this is K_{1,2}
        assert not is_co_cluster(Graph(4, [(0, 1), (1, 2), (2, 3)]))

    def test_classes(self):
        g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        classes = {frozenset(c) for c in co_cluster_classes(g)}
        assert classes == {frozenset({0, 1}), frozenset({2, 3})}

    def test_classes_rejects_non_co_cluster(self):
        with pytest.raises(InputError):
            co_cluster_classes(Graph(4, [(0, 1), (1, 2), (2, 3)]))

    @given(graphs(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_deletion_set_minimum(self, g):
        s = dist_to_co_cluster_set(g)

        def leaves_co_cluster(removed):
            sub, _ = g.induced([v for v in range(g.n) if v not in removed])
            return is_co_cluster(sub)

        assert leaves_co_cluster(s)
        assert len(s) == brute_min_size(g, leaves_co_cluster)


class TestDegree3Decomposition:
    def test_path_is_one_component(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        s, paths = degree3_decomposition(g)
        assert s == set()
        assert len(paths) == 1
        assert paths[0].vertices in ((0, 1, 2, 3), (3, 2, 1, 0))

    def test_star_has_center_only(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        s, paths = degree3_decomposition(g)
        assert s == {0}
        assert sorted(p.vertices for p in paths) == [(1,), (2,), (3,)]
        assert all(p.first_attach == (0,) for p in paths)

    def test_rejects_cycle(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(InputError):
            degree3_decomposition(g)

    def test_rejects_disconnected(self):
        with pytest.raises(InputError):
            degree3_decomposition(Graph(2, []))

    @given(connected_graphs())
    @settings(max_examples=100, deadline=None)
    def test_components_are_paths(self, g):
        try:
            s, paths = degree3_decomposition(g)
        except InputError:
            return  # cycle graphs are out of scope here
        assert s == {v for v in range(g.n) if g.degree(v) >= 3}
        covered = set(s)
        for p in paths:
            inside = set(p.vertices)
            assert not (inside & covered)
            covered |= inside
            # consecutive vertices adjacent, interior degree <= 2 overall
            for a, b in zip(p.vertices, p.vertices[1:]):
                assert g.has_edge(a, b)
            for v in p.vertices:
                assert g.degree(v) <= 2
        assert covered == set(range(g.n))


class TestValidateCliqueCover:
    def test_vertex_partition(self):
        g = Graph(4, [(0, 1), (2, 3), (1, 2)])
        assert validate_clique_cover(g, [[0, 1], [2, 3]], "vertex-partition")
        assert not validate_clique_cover(g, [[0, 1]], "vertex-partition")
        assert not validate_clique_cover(g, [[0, 1], [1, 2, 3]], "vertex-partition")

    def test_edge_cover(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert validate_clique_cover(g, [[0, 1, 2]], "edge-cover")
        assert not validate_clique_cover(g, [[0, 1]], "edge-cover")

    def test_rejects_non_clique(self):
        g = Graph(3, [(0, 1)])
        assert not validate_clique_cover(g, [[0, 1, 2]], "edge-cover")

    def test_unknown_mode(self):
        with pytest.raises(InputError):
            validate_clique_cover(Graph(1), [], "nope")

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_greedy_cover_always_validates(self, g):
        cover = greedy_vertex_clique_cover(g)
        assert validate_clique_cover(g, cover, "vertex-partition")


def spanning_tree_max_leaves(g):
    """Exhaustive oracle: best leaf count over all spanning trees."""
    edges = list(g.edges())
    best = 0
    for chosen in combinations(edges, g.n - 1):
        parent = list(range(g.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for u, v in chosen:
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if not ok:
            continue
        deg = [0] * g.n
        for u, v in chosen:
            deg[u] += 1
            deg[v] += 1
        best = max(best, sum(1 for d in deg if d == 1))
    return best


class TestMaxLeafOracle:
    def test_tiny(self):
        assert max_leaf_oracle(Graph(1)) == 1
        assert max_leaf_oracle(Graph(2, [(0, 1)])) == 2

    def test_star(self):
        assert max_leaf_oracle(Graph(5, [(0, i) for i in range(1, 5)])) == 4

    def test_capacity(self):
        g = Graph(11, [(i, i + 1) for i in range(10)])
        with pytest.raises(CapacityError):
            max_leaf_oracle(g)

    def test_rejects_disconnected(self):
        with pytest.raises(InputError):
            max_leaf_oracle(Graph(3, [(0, 1)]))

    @given(connected_graphs(max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_matches_spanning_tree_enumeration(self, g):
        if g.n < 2:
            return
        assert max_leaf_oracle(g) == spanning_tree_max_leaves(g)


# Reference probes: the straightforward versions that re-induce the graph at
# every branch node.  The bitset probes must branch in the same order and so
# return the identical set, not just one of the same size.


def _ref_deepen(n, limit, attempt):
    for k in range((n if limit is None else min(limit, n)) + 1):
        res = attempt(k)
        if res is not None:
            return res
    return None


def ref_min_vertex_cover(g, limit=None):
    edges = g.edges()
    if not edges:
        return set()

    def branch(covered, budget):
        for u, v in edges:
            if u not in covered and v not in covered:
                if budget == 0:
                    return None
                for w in (u, v):
                    res = branch(covered | {w}, budget - 1)
                    if res is not None:
                        return res
                return None
        return covered

    return _ref_deepen(g.n, limit, lambda k: branch(set(), k))


def ref_find_co_p3(g):
    for u, v in g.edges():
        for w in range(g.n):
            if w not in (u, v) and not g.has_edge(u, w) and not g.has_edge(v, w):
                return (u, v, w)
    return None


def ref_dist_to_co_cluster_set(g, limit=None):
    def branch(removed, budget):
        sub, remap = g.induced([v for v in range(g.n) if v not in removed])
        back = {i: v for v, i in remap.items()}
        bad = ref_find_co_p3(sub)
        if bad is None:
            return removed
        if budget == 0:
            return None
        for x in bad:
            res = branch(removed | {back[x]}, budget - 1)
            if res is not None:
                return res
        return None

    return _ref_deepen(g.n, limit, lambda k: branch(set(), k))


@st.composite
def graphs_of_any_density(draw, max_n=11):
    n = draw(st.integers(0, max_n))
    p = draw(st.floats(0.0, 1.0))
    rnd = draw(st.randoms(use_true_random=False))
    return Graph(n, [pair for pair in combinations(range(n), 2) if rnd.random() < p])


class TestProbesMatchReference:
    @given(graphs_of_any_density(), st.sampled_from([None, 0, 1, 2, 3, 5, 7, 10]))
    @settings(max_examples=300, deadline=None)
    def test_identical_sets(self, g, limit):
        assert min_vertex_cover(g, limit) == ref_min_vertex_cover(g, limit)
        assert dist_to_clique_set(g, limit) == ref_min_vertex_cover(
            g.complement(), limit
        )
        assert dist_to_co_cluster_set(g, limit) == ref_dist_to_co_cluster_set(
            g, limit
        )

    @given(graphs_of_any_density())
    @settings(max_examples=100, deadline=None)
    def test_same_first_co_p3(self, g):
        assert _find_co_p3(g) == ref_find_co_p3(g)

    def test_probes_build_no_graphs(self, monkeypatch):
        calls = Counter()
        for name in ("induced", "complement"):

            def counted(self, *args, _name=name, _original=getattr(Graph, name)):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(Graph, name, counted)
        # Eight disjoint edges: the nearest co-cluster is an independent set
        # of eight, so the capped probe explores its whole tree and gives up.
        g = Graph(16, [(2 * i, 2 * i + 1) for i in range(8)])
        assert dist_to_co_cluster_set(g, limit=7) is None
        assert dist_to_co_cluster_set(g) == set(range(0, 16, 2))
        assert dist_to_clique_set(g, limit=10) is None
        assert len(dist_to_clique_set(g)) == 14
        assert calls == Counter()


def count_branch_nodes(search):
    """What `search()` returns, and how many `branch` calls of this module's
    searches it makes."""
    nodes = 0

    def profile(frame, event, arg):
        nonlocal nodes
        code = frame.f_code
        if event == "call" and code.co_name == "branch":
            nodes += code.co_filename == estimators.__file__

    sys.setprofile(profile)
    try:
        found = search()
    finally:
        sys.setprofile(None)
    return found, nodes


def disjoint_cliques(*sizes):
    """Pairwise non-adjacent cliques of the given sizes on consecutive
    vertices."""
    edges, start = [], 0
    for size in sizes:
        edges.extend(combinations(range(start, start + size), 2))
        start += size
    return Graph(start, edges)


def clique_packing(masks):
    """`_clique_packing` of the whole graph with neighbour masks `masks`,
    from its first edge, uncapped; 0 without an edge."""
    full = (1 << len(masks)) - 1
    edge = _next_edge(masks, full, 0)
    return 0 if edge is None else _clique_packing(masks, full, edge, len(masks))


def cluster_packings(g):
    """(`_cluster_packing`, `_co_p3_packing`) of the whole of g from its
    first co-P3, uncapped: the second is the larger of the first and the
    co-P3 count.  (0, 0) without a co-P3."""
    masks, full = g.neighbour_masks(), (1 << g.n) - 1
    bad = _next_co_p3(masks, full)
    if bad is None:
        return 0, 0
    return (
        _cluster_packing(masks, full, bad, g.n),
        _co_p3_packing(masks, full, bad, g.n),
    )


class TestPackingBoundIsLowerBound:
    @given(graphs_of_any_density())
    @settings(max_examples=200, deadline=None)
    def test_clique_packing_of_graph_and_complement(self, g):
        masks, full = g.neighbour_masks(), (1 << g.n) - 1
        complement = [full ^ mask ^ 1 << v for v, mask in enumerate(masks)]
        assert clique_packing(masks) <= len(ref_min_vertex_cover(g))
        assert clique_packing(complement) <= len(
            ref_min_vertex_cover(g.complement())
        )

    @given(graphs_of_any_density())
    @settings(max_examples=200, deadline=None)
    def test_cluster_packing(self, g):
        cluster, either = cluster_packings(g)
        assert cluster <= either <= len(ref_dist_to_co_cluster_set(g))

    @pytest.mark.parametrize("s", [2, 3, 6])
    def test_a_clique_needs_all_but_one(self, s):
        assert clique_packing(disjoint_cliques(s).neighbour_masks()) == s - 1

    @pytest.mark.parametrize(
        "sizes", [(2, 1), (3, 1, 2, 1), (5, 2), (2, 1, 1, 1, 1), (4, 4, 1)]
    )
    def test_non_adjacent_cliques(self, sizes):
        g = disjoint_cliques(*sizes)
        expected = sum(sizes) - max(max(sizes), len(sizes))
        assert cluster_packings(g) == (expected, expected)
        assert len(ref_dist_to_co_cluster_set(g)) == expected
        assert clique_packing(g.neighbour_masks()) == sum(sizes) - len(sizes)


class TestPackingBoundAtEveryNode:
    # x3c-superstar of four triples (q = 2): 17 vertices, a vertex cover and
    # a co-cluster deletion set of 12 each, so both capped probes give up,
    # and a distance to clique of 13.
    GRAPH = gen_x3c_superstar_cliques(
        X3cInstance(2, ((0, 2, 4), (0, 1, 3), (1, 3, 5), (1, 4, 5)))
    ).instance.graph

    def test_co_cluster_probe_scans_fewer_co_p3s(self, monkeypatch):
        scans = 0
        original = estimators._next_co_p3

        def counted(*args):
            nonlocal scans
            scans += 1
            return original(*args)

        monkeypatch.setattr(estimators, "_next_co_p3", counted)
        assert dist_to_co_cluster_set(self.GRAPH, 7) is None
        # With the packing checked at the root only: 4,743 scans.
        assert scans <= 1000

    def test_vertex_cover_probe_visits_fewer_nodes(self):
        found, nodes = count_branch_nodes(lambda: min_vertex_cover(self.GRAPH, 10))
        assert found is None
        # With the matching checked at the root only: 3,581 nodes.
        assert nodes <= 600

    def test_dist_clique_probe_visits_few_nodes(self):
        # The distance to clique is 13.  Buss's rule rejects every smaller
        # budget before the complement search branches at all.
        found, nodes = count_branch_nodes(lambda: dist_to_clique_set(self.GRAPH, 12))
        assert found is None
        assert nodes == 0
        found, nodes = count_branch_nodes(lambda: dist_to_clique_set(self.GRAPH, 13))
        assert len(found) == 13
        # With the bounds of the separate vertex-cover search: 14 nodes.
        assert nodes <= 14

    def test_vertex_cover_probe_gives_up_at_the_root(self):
        # The clique packing needs 12 vertices; the greedy matching held 8,
        # so the probe branched over 237 nodes before giving up.
        found, nodes = count_branch_nodes(lambda: min_vertex_cover(self.GRAPH, 10))
        assert found is None
        assert nodes == 0

    def test_co_cluster_probe_scans_few_co_p3s(self, monkeypatch):
        scans = 0
        original = estimators._next_co_p3

        def counted(*args):
            nonlocal scans
            scans += 1
            return original(*args)

        monkeypatch.setattr(estimators, "_next_co_p3", counted)
        assert dist_to_co_cluster_set(self.GRAPH, 7) is None
        # With the co-P3 packing alone: 921 scans.
        assert scans <= 30

    def test_exact_vertex_cover_visits_few_nodes(self):
        found, nodes = count_branch_nodes(lambda: min_vertex_cover(self.GRAPH))
        assert len(found) == 12
        # With the greedy matching: 9,141 nodes.
        assert nodes <= 30

    def test_exact_co_cluster_visits_few_nodes(self):
        found, nodes = count_branch_nodes(lambda: dist_to_co_cluster_set(self.GRAPH))
        assert len(found) == 12
        # With the co-P3 packing alone: 460,536 nodes.
        assert nodes <= 2000

    def test_exact_searches_still_find_the_minimum(self):
        assert len(min_vertex_cover(self.GRAPH)) == 12
        assert len(dist_to_co_cluster_set(self.GRAPH)) == 12

