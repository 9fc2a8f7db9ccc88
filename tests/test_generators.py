import hashlib
import random
from itertools import combinations

import pytest

from motifkit.core import (
    Graph,
    InputError,
    Instance,
    Motif,
    format_instance,
    verify_solution,
)
from motifkit.generators import (
    GeneratedInstance,
    PartitionedGraph,
    SetSystem,
    X3cInstance,
    domset_brute,
    format_certificate,
    gen_domset_gadget,
    gen_domset_reduction,
    gen_hitting_set_split,
    gen_mcc_star,
    gen_or_composition,
    gen_set_cover_split,
    gen_x3c_comb,
    gen_x3c_paths,
    gen_x3c_superstar_cliques,
)
from motifkit.solvers import (
    solve_brute,
    solve_max_leaf_xp,
    solve_vertex_clique_cover,
    solve_vertex_cover,
)

FIG_SOURCE = X3cInstance(2, ((0, 2, 4), (0, 1, 3), (1, 3, 5), (1, 4, 5)))


def random_x3c(rng, q, m):
    triples = []
    while len(triples) < m:
        t = tuple(sorted(rng.sample(range(3 * q), 3)))
        if t not in triples:
            triples.append(t)
    return X3cInstance(q, tuple(triples))


class TestX3cSources:
    def test_rejects_bad_triples(self):
        with pytest.raises(InputError):
            X3cInstance(1, ((0, 0, 1),))
        with pytest.raises(InputError):
            X3cInstance(1, ((0, 1, 3),))

    def test_has_exact_cover(self):
        assert FIG_SOURCE.has_exact_cover()
        no = X3cInstance(2, ((0, 1, 2), (0, 1, 3), (0, 1, 4)))
        assert not no.has_exact_cover()


class TestX3cPaths:
    def test_pictured_instance_shape(self):
        gen = gen_x3c_paths(FIG_SOURCE)
        inst = gen.instance
        assert inst.graph.n == 29
        assert inst.graph.num_edges() == 28
        assert len(set(inst.coloring)) == 15
        assert inst.motif.total == 15
        assert gen.claims["paths-after-root-removal"] == 8
        assert gen.claims["distance-to-disjoint-paths"] == 1

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(10):
            src = random_x3c(rng, 2, rng.randint(2, 4))
            out = solve_max_leaf_xp(gen_x3c_paths(src).instance)
            assert out.is_yes == src.has_exact_cover()


class TestX3cComb:
    def test_bandwidth_witness(self):
        gen = gen_x3c_comb(FIG_SOURCE)
        inst = gen.instance
        order = {gen.certificate[f"order:{i}"]: i for i in range(inst.graph.n)}
        assert len(order) == inst.graph.n
        gap = max(abs(order[u] - order[v]) for u, v in inst.graph.edges())
        assert gap == gen.claims["bandwidth-witness-gap"] <= 6

    def test_round_trip(self):
        rng = random.Random(8)
        for _ in range(6):
            src = random_x3c(rng, 2, rng.randint(2, 4))
            out = solve_max_leaf_xp(gen_x3c_comb(src).instance)
            assert out.is_yes == src.has_exact_cover()


def superstar_cover(gen):
    """Vertex clique partition: the root alone plus one clique per set."""
    from motifkit.core import connected_components

    g = gen.instance.graph
    root = gen.certificate["root"]
    rest = [v for v in range(g.n) if v != root]
    return [[root]] + connected_components(g, rest)


class TestX3cSuperstar:
    def test_cluster_claims(self):
        gen = gen_x3c_superstar_cliques(FIG_SOURCE)
        assert gen.claims["distance-to-cluster"] == 1
        assert gen.claims["cliques-after-root-removal"] == 4
        assert gen.claims["max-clique-size"] == 4

    def test_round_trip(self):
        rng = random.Random(9)
        for _ in range(10):
            src = random_x3c(rng, 2, rng.randint(2, 5))
            gen = gen_x3c_superstar_cliques(src)
            out = solve_vertex_clique_cover(gen.instance, superstar_cover(gen))
            assert out.is_yes == src.has_exact_cover()


class TestDomsetGadget:
    def source(self, rng, n):
        pairs = list(combinations(range(n), 2))
        edges = rng.sample(pairs, rng.randint(0, len(pairs)))
        coloring = tuple(rng.randint(0, 2) for _ in range(n))
        motif = {}
        for _ in range(rng.randint(1, 4)):
            c = rng.randint(0, 2)
            motif[c] = motif.get(c, 0) + 1
        return Instance(Graph(n, edges), coloring, Motif(motif))

    def rooted_brute(self, inst, root):
        from motifkit.solvers.common import iter_connected

        for cand in iter_connected(inst.graph.adjacency, inst.motif.total):
            if root in cand and verify_solution(inst, cand):
                return True
        return False

    def test_wrapped_answer_is_rooted_answer(self):
        rng = random.Random(10)
        for _ in range(30):
            n = rng.randint(1, 7)
            src = self.source(rng, n)
            root = rng.randrange(n)
            gen = gen_domset_gadget(src, root)
            assert gen.claims["dominating-set-size"] == 2
            got = solve_brute(gen.instance).is_yes
            assert got == self.rooted_brute(src, root)

    def test_root_out_of_range(self):
        inst = Instance(Graph(1), (0,), Motif({0: 1}))
        with pytest.raises(InputError):
            gen_domset_gadget(inst, 3)


class TestDomsetReduction:
    def test_budget_validation(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(InputError):
            gen_domset_reduction(g, 0)
        with pytest.raises(InputError):
            gen_domset_reduction(g, 3)
        with pytest.raises(InputError):
            gen_domset_reduction(g, 1, variant="nope")

    @pytest.mark.parametrize("variant", ["cluster", "tree"])
    def test_round_trip(self, variant):
        rng = random.Random(11)
        for _ in range(12):
            n = rng.randint(1, 4)
            pairs = list(combinations(range(n), 2))
            h = Graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
            t = rng.randint(1, n)
            gen = gen_domset_reduction(h, t, variant=variant)
            got = solve_brute(gen.instance).is_yes
            assert got == domset_brute(h, t)

    def test_tree_variant_is_tree(self):
        gen = gen_domset_reduction(Graph(3, [(0, 1), (1, 2)]), 1, variant="tree")
        g = gen.instance.graph
        assert g.num_edges() == g.n - 1
        assert gen.claims["is-tree"] == 1


class TestSplitGraphs:
    def random_system(self, rng):
        n = rng.randint(1, 5)
        m = rng.randint(1, 4)
        sets = tuple(
            tuple(rng.sample(range(n), rng.randint(1, n))) for _ in range(m)
        )
        return SetSystem(n, sets, rng.randint(1, max(n, m)))

    def test_hitting_round_trip(self):
        rng = random.Random(12)
        for _ in range(15):
            s = self.random_system(rng)
            if s.budget > s.n:
                continue
            gen = gen_hitting_set_split(s)
            out = solve_vertex_cover(gen.instance)
            assert out.is_yes == s.has_hitting_set()

    def test_cover_round_trip(self):
        rng = random.Random(13)
        for _ in range(15):
            s = self.random_system(rng)
            if s.budget > len(s.sets):
                continue
            gen = gen_set_cover_split(s)
            out = solve_vertex_cover(gen.instance)
            assert out.is_yes == s.has_set_cover()

    def test_budget_limits(self):
        s = SetSystem(2, ((0,),), 3)
        with pytest.raises(InputError):
            gen_hitting_set_split(s)
        with pytest.raises(InputError):
            gen_set_cover_split(SetSystem(2, ((0,),), 2))


class TestMccStar:
    def random_partitioned(self, rng, k, t):
        pairs = [
            (u, v)
            for u in range(k * t)
            for v in range(u + 1, k * t)
            if u // t != v // t
        ]
        return PartitionedGraph(k, t, tuple(rng.sample(pairs, rng.randint(0, len(pairs)))))

    def test_requires_class_size_two(self):
        with pytest.raises(InputError):
            gen_mcc_star(PartitionedGraph(2, 1, ((0, 1),)))

    def test_round_trip(self):
        rng = random.Random(14)
        for _ in range(8):
            p = self.random_partitioned(rng, 2, 2)
            gen = gen_mcc_star(p)
            out = solve_max_leaf_xp(gen.instance)
            assert out.is_yes == p.has_pattern_clique()

    def test_empty_pair_warns_and_is_no(self):
        p = PartitionedGraph(2, 2, ())
        gen = gen_mcc_star(p)
        assert gen.warnings
        assert not p.has_pattern_clique()
        assert not solve_max_leaf_xp(gen.instance).is_yes

    def test_pattern_variant(self):
        # Three classes, pattern only requires the (0,1) and (1,2) pairs.
        edges = ((0, 2), (2, 4), (1, 3), (3, 5))
        p = PartitionedGraph(3, 2, edges, pattern=frozenset({(0, 1), (1, 2)}))
        gen = gen_mcc_star(p)
        assert solve_max_leaf_xp(gen.instance).is_yes == p.has_pattern_clique()


class TestOrComposition:
    def test_yes_if_any_source_yes(self):
        yes = X3cInstance(2, ((0, 1, 2), (3, 4, 5), (0, 1, 3)))
        no = X3cInstance(2, ((0, 1, 2), (0, 1, 3), (0, 1, 4)))
        for colorful in (False, True):
            for sources, expected in (([no, yes], True), ([no, no], False)):
                gen = gen_or_composition(sources, colorful=colorful)
                # Selectors plus element vertices cover every edge.
                g = gen.instance.graph
                cover = set(range(2)) | set(range(g.n - 6, g.n))
                out = solve_vertex_cover(gen.instance, cover=cover)
                assert out.is_yes == expected

    def test_shape_must_match(self):
        a = X3cInstance(1, ((0, 1, 2),))
        b = X3cInstance(2, ((0, 1, 2),))
        with pytest.raises(InputError):
            gen_or_composition([a, b])

    def test_claims(self):
        gen = gen_or_composition([X3cInstance(1, ((0, 1, 2),))] * 3)
        assert gen.claims["instances"] == 3
        assert gen.claims["colorful"] == 0
        assert gen.claims["subset-vertices"] == 1


class TestCertificateFormat:
    def test_lines(self):
        gen = gen_x3c_superstar_cliques(X3cInstance(1, ((0, 1, 2),)))
        text = format_certificate(gen)
        lines = text.strip().splitlines()
        assert f"map root {gen.certificate['root']}" in lines
        assert any(line.startswith("claim distance-to-cluster 1") for line in lines)

    def test_rejects_bad_ids(self):
        inst = Instance(Graph(1), (0,), Motif({0: 1}))
        with pytest.raises(InputError):
            GeneratedInstance(inst, {"root": 5}, {})


class TestGeneratedText:
    # SHA-256 of the text below; a change to any generator's vertex
    # numbering, edges, motif, certificate, claims or warnings changes it.
    DIGEST = "90dfe1e6fc21bbf2a12f41cd9e854be8fdfe879095510d2e27f6d60a736d3625"

    def test_every_reduction_is_byte_stable(self):
        yes = X3cInstance(2, ((0, 1, 2), (3, 4, 5), (0, 1, 3)))
        no = X3cInstance(2, ((0, 1, 2), (0, 1, 3), (0, 1, 4)))
        rooted = Instance(Graph(3, [(0, 1), (1, 2)]), (0, 1, 0), Motif({0: 1, 1: 1}))
        h = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
        sets = SetSystem(4, ((0, 1), (1, 2, 3), (0, 3), (2,)), 2)
        edges = ((0, 2), (2, 4), (1, 3), (3, 5), (0, 5))
        pattern = frozenset({(0, 1), (1, 2)})
        generated = [
            gen_x3c_paths(FIG_SOURCE),
            gen_x3c_comb(FIG_SOURCE),
            gen_x3c_superstar_cliques(FIG_SOURCE),
            gen_domset_gadget(rooted, 1),
            gen_domset_reduction(h, 2, "cluster"),
            gen_domset_reduction(h, 2, "tree"),
            gen_hitting_set_split(sets),
            gen_set_cover_split(sets),
            gen_mcc_star(PartitionedGraph(3, 2, edges)),
            gen_mcc_star(PartitionedGraph(3, 2, edges[:4], pattern)),
            gen_mcc_star(PartitionedGraph(2, 2, ())),
            gen_or_composition([no, yes]),
            gen_or_composition([no, yes], colorful=True),
        ]
        text = "".join(
            format_instance(gen.instance) + format_certificate(gen) for gen in generated
        )
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST
