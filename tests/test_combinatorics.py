import math
import sys
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifkit.combinatorics import (
    BipartiteGraph,
    iter_ordered_partitions,
    iter_set_partitions,
    iter_spanning_trees,
    max_matching_with_cover,
)
from motifkit.core import InputError
from oracles import iter_subsets


def stirling2(n, k):
    if k == 0:
        return 1 if n == 0 else 0
    return sum(
        (-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1)
    ) // math.factorial(k)


class TestSubsets:
    def test_two_items(self):
        assert list(iter_subsets(["a", "b"])) == [[], ["a"], ["b"], ["a", "b"]]

    def test_empty(self):
        assert list(iter_subsets([])) == [[]]

    @given(st.integers(0, 8))
    def test_count(self, n):
        assert sum(1 for _ in iter_subsets(range(n))) == 2**n


class TestOrderedPartitions:
    @pytest.mark.parametrize(
        "n,l,count", [(2, 2, 2), (3, 2, 6), (1, 1, 1), (4, 3, 36)]
    )
    def test_counts(self, n, l, count):
        parts = list(iter_ordered_partitions(list(range(n)), l))
        assert len(parts) == count
        assert count == math.factorial(l) * stirling2(n, l)

    def test_blocks_are_nonempty_and_partition(self):
        for parts in iter_ordered_partitions([0, 1, 2, 3], 2):
            assert all(parts)
            assert sorted(x for block in parts for x in block) == [0, 1, 2, 3]

    def test_all_distinct(self):
        parts = list(iter_ordered_partitions([0, 1, 2], 2))
        assert len({tuple(tuple(b) for b in p) for p in parts}) == len(parts)

    def test_rejects_bad_part_count(self):
        with pytest.raises(InputError):
            list(iter_ordered_partitions([0], 2))

    @pytest.mark.parametrize("n,l", [(4, 2), (5, 3), (5, 1)])
    def test_keep_drops_every_order_of_a_rejected_set_partition(self, n, l):
        def keep(blocks):
            # Blocks come by smallest element: reject a singleton {0}.
            return len(blocks[0]) > 1

        every = list(iter_ordered_partitions(list(range(n)), l))
        kept = list(iter_ordered_partitions(list(range(n)), l, keep))
        rejected = {
            frozenset(map(frozenset, blocks))
            for blocks in iter_set_partitions(list(range(n)), l)
            if not keep(blocks)
        }
        assert kept == [
            p for p in every if frozenset(map(frozenset, p)) not in rejected
        ]


class TestSetPartitions:
    @pytest.mark.parametrize("n,bell", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
    def test_bell_numbers(self, n, bell):
        assert sum(1 for _ in iter_set_partitions(list(range(n)))) == bell

    def test_fixed_part_count(self):
        assert sum(1 for _ in iter_set_partitions([0, 1, 2, 3], 2)) == stirling2(4, 2)

    @pytest.mark.parametrize("n", range(8))
    def test_part_count_filters_the_full_sequence(self, n):
        # Cutting prefixes that cannot end with `parts` blocks keeps the order.
        every = list(iter_set_partitions(list(range(n))))
        for parts in range(n + 2):
            assert list(iter_set_partitions(list(range(n)), parts)) == [
                blocks for blocks in every if len(blocks) == parts
            ]


@st.composite
def graphs(draw, max_n=7):
    """A node count and a sorted edge list on those nodes."""
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [pair for pair, kept in zip(pairs, keep) if kept]


class TestSpanningTrees:
    @pytest.mark.parametrize("k,count", [(1, 1), (2, 1), (3, 3), (4, 16), (5, 125)])
    def test_cayley_counts(self, k, count):
        # On the complete graph K_k every labeled tree spans: k^(k-2) of them.
        trees = list(iter_spanning_trees(k, combinations(range(k), 2)))
        assert len(trees) == count

    @given(graphs())
    @settings(max_examples=200, deadline=None)
    def test_count_is_matrix_tree_determinant(self, graph):
        k, edges = graph
        laplacian = np.zeros((k, k))
        for u, v in edges:
            laplacian[[u, v], [u, v]] += 1
            laplacian[[u, v], [v, u]] -= 1
        # Kirchhoff: any cofactor of the Laplacian counts the spanning trees.
        expected = round(np.linalg.det(laplacian[1:, 1:]))
        assert sum(1 for _ in iter_spanning_trees(k, edges)) == expected

    @given(graphs())
    @settings(max_examples=200, deadline=None)
    def test_every_output_is_a_distinct_spanning_tree(self, graph):
        k, edges = graph
        trees = list(iter_spanning_trees(k, reversed(edges)))
        assert len({tuple(t) for t in trees}) == len(trees)
        for tree in trees:
            assert tree == sorted(tree) and set(tree) <= set(edges)
            assert len(tree) == k - 1
            parent = list(range(k))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for u, v in tree:
                ru, rv = find(u), find(v)
                assert ru != rv  # acyclic, so k - 1 edges span
                parent[ru] = rv

    def test_rejects_empty_graph(self):
        with pytest.raises(InputError):
            list(iter_spanning_trees(0, []))


def exhaustive_max_matching(b: BipartiteGraph) -> int:
    edges = list(b.edges)
    best = 0
    # No matching is larger than a side.
    for r in range(min(len(edges), b.left, b.right), -1, -1):
        if r <= best:
            break
        from itertools import combinations

        for chosen in combinations(edges, r):
            lefts = [u for u, _ in chosen]
            rights = [v for _, v in chosen]
            if len(set(lefts)) == r and len(set(rights)) == r:
                best = max(best, r)
                break
    return best


@st.composite
def bipartite_graphs(draw, max_side=5):
    nl = draw(st.integers(0, max_side))
    nr = draw(st.integers(0, max_side))
    pairs = [(u, v) for u in range(nl) for v in range(nr)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return BipartiteGraph(nl, nr, edges)


class TestMatching:
    def test_complete_2x2(self):
        b = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert max_matching_with_cover(b).size == 2

    def test_edgeless(self):
        result = max_matching_with_cover(BipartiteGraph(3, 3, []))
        assert result.size == 0
        assert not result.cover_left and not result.cover_right

    @given(bipartite_graphs())
    @settings(max_examples=150, deadline=None)
    def test_matches_exhaustive_and_konig(self, b):
        result = max_matching_with_cover(b)
        assert result.size == exhaustive_max_matching(b)
        # cover touches every edge, and has König-equality size
        for u, v in b.edges:
            assert u in result.cover_left or v in result.cover_right
        assert len(result.cover_left) + len(result.cover_right) == result.size

    def test_augmenting_path_longer_than_recursion_limit(self):
        # Left i < k takes right i; left k only sees right 0, so its
        # augmenting path shifts every earlier left vertex one step right.
        k = sys.getrecursionlimit() + 100
        edges = [(i, i) for i in range(k)] + [(i, i + 1) for i in range(k)]
        result = max_matching_with_cover(BipartiteGraph(k + 1, k + 1, edges + [(k, 0)]))
        assert result.size == k + 1
        assert set(result.matching) == {(i, i + 1) for i in range(k)} | {(k, 0)}
