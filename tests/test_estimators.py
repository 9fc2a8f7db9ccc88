from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifkit.core import CapacityError, Graph, InputError, connected_components
from motifkit.estimators import (
    _find_co_p3,
    co_cluster_classes,
    degree3_decomposition,
    dist_to_clique_set,
    dist_to_co_cluster_set,
    greedy_vertex_clique_cover,
    is_co_cluster,
    min_vertex_cover,
    validate_clique_cover,
)
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
    @given(graphs_of_any_density(), st.sampled_from([None, 0, 1, 2, 3]))
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
