"""End-to-end acceptance checks, one per criterion, each printing a
pass/fail line with its runtime.  Run with `pytest -v -s` to see the lines.
"""

import random
import time
from collections import Counter
from itertools import combinations

from motifkit.combinatorics import BipartiteGraph, max_matching_with_cover
from motifkit.core import (
    Graph,
    Instance,
    Motif,
    connected_components,
    verify_solution,
)
from motifkit.csct import CsctInstance, solve_csct
from motifkit.estimators import (
    degree3_decomposition,
    dist_to_clique_set,
    dist_to_co_cluster_set,
    greedy_vertex_clique_cover,
    min_vertex_cover,
)
from motifkit.generators import (
    PartitionedGraph,
    SetSystem,
    X3cInstance,
    domset_brute,
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
    solve_co_cluster,
    solve_dist_clique,
    solve_edge_clique_cover,
    solve_max_leaf_xp,
    solve_vertex_clique_cover,
    solve_vertex_cover,
)
from oracles import check_csct_solution, max_leaf_oracle


def report(number, label, start, budget):
    elapsed = time.perf_counter() - start
    print(f"\ncriterion {number} ({label}): PASS in {elapsed:.1f}s (budget {budget}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def random_connected_graph(rng, n):
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    pairs = list(combinations(range(n), 2))
    edges.update(rng.sample(pairs, rng.randint(0, len(pairs) // 2)))
    return Graph(n, sorted(edges))


def random_instance(rng):
    n = rng.randint(3, 12)
    g = random_connected_graph(rng, n)
    palette = rng.randint(2, 4)
    coloring = tuple(rng.randrange(palette) for _ in range(n))
    size = rng.randint(1, 6)
    motif = Counter(rng.randrange(palette) for _ in range(size))
    return Instance(g, coloring, Motif(dict(motif)))


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(1001)
    solvers = {
        "dist-clique": solve_dist_clique,
        "vertex-cover": solve_vertex_cover,
        "vertex-clique-cover": lambda i: solve_vertex_clique_cover(
            i, greedy_vertex_clique_cover(i.graph)
        ),
        "edge-clique-cover": lambda i: solve_edge_clique_cover(
            i,
            [list(e) for e in i.graph.edges()]
            or [[v] for v in range(i.graph.n)],
        ),
        "co-cluster": solve_co_cluster,
        "max-leaf": solve_max_leaf_xp,
    }
    for _ in range(200):
        inst = random_instance(rng)
        expected = solve_brute(inst).is_yes
        for name, solve in solvers.items():
            out = solve(inst)
            assert out.is_yes == expected, f"{name} disagrees with brute"
            if out.is_yes:
                assert verify_solution(inst, out.witness), name
    report(1, "oracle equivalence, 200 instances x 6 solvers", start, 120)


def test_criterion_2_csct_against_exhaustive():
    start = time.perf_counter()
    rng = random.Random(1002)
    for _ in range(200):
        n = rng.randint(0, 10)
        m = rng.randint(0, 12)
        sets = tuple(
            (
                rng.randrange(3),
                tuple(sorted(rng.sample(range(n), rng.randint(0, n)))) if n else (),
            )
            for _ in range(m)
        )
        inst = CsctInstance(n, sets, {c: rng.randint(1, 4) for c in range(3)})
        got = solve_csct(inst)
        universe = set(range(n))
        feasible = False
        for size in range(m + 1):
            if feasible:
                break
            for chosen in combinations(range(m), size):
                used = Counter(inst.sets[j][0] for j in chosen)
                covered = {e for j in chosen for e in inst.sets[j][1]}
                if covered == universe and all(
                    used[c] <= inst.thresholds[c] for c in used
                ):
                    feasible = True
                    break
        assert (got is not None) == feasible
        if got is not None:
            assert check_csct_solution(inst, got)
    report(2, "set-cover DP vs 2^m oracle, 200 instances", start, 10)


def random_x3c(rng, q, max_m):
    every = list(combinations(range(3 * q), 3))
    m = rng.randint(min(2, len(every)), min(max_m, len(every)))
    return X3cInstance(q, tuple(rng.sample(every, m)))


def _superstar_cover(gen):
    g = gen.instance.graph
    root = gen.certificate["root"]
    rest = [v for v in range(g.n) if v != root]
    return [[root]] + connected_components(g, rest)


def _domset_cluster_cover(gen):
    g = gen.instance.graph
    hub = gen.certificate["z"]
    rest = [v for v in range(g.n) if v != hub]
    return [[hub]] + connected_components(g, rest)


def test_criterion_3_reduction_soundness():
    start = time.perf_counter()
    rng = random.Random(1003)

    def check(source_answer, outcome, label):
        assert outcome.is_yes == source_answer, label

    for i in range(50):
        src = random_x3c(rng, rng.randint(1, 2), 5)
        check(
            src.has_exact_cover(),
            solve_max_leaf_xp(gen_x3c_paths(src).instance),
            "x3c-paths",
        )
    for i in range(50):
        src = random_x3c(rng, rng.randint(1, 2), 4)
        check(
            src.has_exact_cover(),
            solve_max_leaf_xp(gen_x3c_comb(src).instance),
            "x3c-comb",
        )
    for i in range(50):
        src = random_x3c(rng, rng.randint(1, 2), 5)
        gen = gen_x3c_superstar_cliques(src)
        check(
            src.has_exact_cover(),
            solve_vertex_clique_cover(gen.instance, _superstar_cover(gen)),
            "x3c-superstar",
        )
    for i in range(50):
        n = rng.randint(2, 6)
        g = random_connected_graph(rng, n)
        coloring = tuple(rng.randrange(3) for _ in range(n))
        motif = Counter(rng.randrange(3) for _ in range(rng.randint(1, 4)))
        src = Instance(g, coloring, Motif(dict(motif)))
        root = rng.randrange(n)
        rooted = any(
            verify_solution(src, list(cand)) and root in cand
            for cand in combinations(range(n), src.motif.total)
        )
        check(
            rooted,
            solve_brute(gen_domset_gadget(src, root).instance),
            "domset-gadget",
        )
    for i in range(50):
        n = rng.randint(1, 6)
        pairs = list(combinations(range(n), 2))
        h = Graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        t = rng.randint(1, n)
        if i % 2 == 0:
            gen = gen_domset_reduction(h, t, variant="cluster")
            out = solve_vertex_clique_cover(gen.instance, _domset_cluster_cover(gen))
        else:
            gen = gen_domset_reduction(h, t, variant="tree")
            out = solve_max_leaf_xp(gen.instance)
        check(domset_brute(h, t), out, "domset")
    for i in range(50):
        n = rng.randint(1, 6)
        m = rng.randint(1, 5)
        sets = tuple(
            tuple(rng.sample(range(n), rng.randint(1, n))) for _ in range(m)
        )
        s = SetSystem(n, sets, rng.randint(1, n))
        check(s.has_hitting_set(), solve_vertex_cover(gen_hitting_set_split(s).instance), "hitting-set")
    for i in range(50):
        n = rng.randint(1, 6)
        m = rng.randint(1, 5)
        sets = tuple(
            tuple(rng.sample(range(n), rng.randint(1, n))) for _ in range(m)
        )
        s = SetSystem(n, sets, rng.randint(1, m))
        check(s.has_set_cover(), solve_dist_clique(gen_set_cover_split(s).instance), "set-cover")
    for i in range(50):
        k, t = 3, 2
        pairs = [
            (u, v)
            for u in range(k * t)
            for v in range(u + 1, k * t)
            if u // t != v // t
        ]
        p = PartitionedGraph(k, t, tuple(rng.sample(pairs, rng.randint(3, len(pairs)))))
        check(p.has_pattern_clique(), solve_max_leaf_xp(gen_mcc_star(p).instance), "mcc-star")
    for i in range(50):
        sources = [random_x3c(rng, 2, 3) for _ in range(2)]
        while len(sources[1].triples) != len(sources[0].triples):
            sources[1] = random_x3c(rng, 2, 3)
        gen = gen_or_composition(sources)
        g = gen.instance.graph
        cover = set(range(2)) | set(range(g.n - 6, g.n))
        check(
            any(s.has_exact_cover() for s in sources),
            solve_vertex_cover(gen.instance, cover=cover),
            "or-composition",
        )
    report(3, "reduction soundness, 50 sources x 9 generators", start, 120)


def test_criterion_4_structural_claims():
    start = time.perf_counter()
    rng = random.Random(1004)
    # Generation re-checks every structural claim internally and raises on
    # failure; here the headline claims are asserted again from outside.
    for _ in range(20):
        src = random_x3c(rng, 2, 5)

        paths = gen_x3c_paths(src)
        assert paths.claims["distance-to-disjoint-paths"] == 1
        g = paths.instance.graph
        for comp in connected_components(
            g, [v for v in range(g.n) if v != paths.certificate["root"]]
        ):
            degs = sorted(
                sum(1 for u in g.adjacency[v] if u in set(comp)) for v in comp
            )
            assert degs[:2] == [1, 1] and all(d == 2 for d in degs[2:])

        comb = gen_x3c_comb(src)
        order = {
            comb.certificate[f"order:{i}"]: i
            for i in range(comb.instance.graph.n)
        }
        gap = max(
            abs(order[u] - order[v]) for u, v in comb.instance.graph.edges()
        )
        assert gap <= 6

        star = gen_x3c_superstar_cliques(src)
        assert star.claims["distance-to-cluster"] == 1
        g = star.instance.graph
        root = star.certificate["root"]
        for comp in connected_components(g, [v for v in range(g.n) if v != root]):
            assert g.is_clique(comp)

    for _ in range(20):
        n = rng.randint(2, 6)
        s = SetSystem(
            n,
            tuple(
                tuple(rng.sample(range(n), rng.randint(1, n)))
                for _ in range(rng.randint(1, 4))
            ),
            rng.randint(1, n),
        )
        hs = gen_hitting_set_split(s)
        g = hs.instance.graph
        clique = [v for v in range(g.n) if hs.instance.coloring[v] == 1]
        rest = [v for v in range(g.n) if hs.instance.coloring[v] == 2]
        assert g.is_clique(clique)
        assert all(not g.has_edge(a, b) for a, b in combinations(rest, 2))

        src = Instance(
            random_connected_graph(rng, n),
            tuple(rng.randrange(2) for _ in range(n)),
            Motif({0: 1}),
        )
        gadget = gen_domset_gadget(src, rng.randrange(n))
        g = gadget.instance.graph
        u, t = gadget.certificate["u"], gadget.certificate["t"]
        dominated = {u, t} | set(g.adjacency[u]) | set(g.adjacency[t])
        assert dominated == set(range(g.n))

    for _ in range(10):
        k, t = 3, 2
        pairs = [
            (a, b)
            for a in range(k * t)
            for b in range(a + 1, k * t)
            if a // t != b // t
        ]
        p = PartitionedGraph(k, t, tuple(rng.sample(pairs, rng.randint(3, len(pairs)))))
        mcc = gen_mcc_star(p)
        g = mcc.instance.graph
        leaves = sum(1 for v in range(g.n) if g.degree(v) == 1)
        expected_legs = k + k * (k - 1) // 2 + 1
        if not mcc.warnings:
            assert leaves == expected_legs
        # Alternating block tiling along every leg.
        for first in g.adjacency[mcc.certificate["center"]]:
            walk = [mcc.certificate["center"], first]
            while True:
                nxt = [w for w in g.adjacency[walk[-1]] if w != walk[-2]]
                if not nxt:
                    break
                walk.append(nxt[0])
            marks = [
                mcc.instance.coloring[v]
                for v in walk[1:]
                if mcc.instance.coloring[v] in (1, 2)
            ]
            assert marks[0] == 1 and marks[-1] == 2
            assert all(a != b for a, b in zip(marks, marks[1:]))
    report(4, "structural claims on generated instances", start, 5)


def test_criterion_5_decomposition_bounds():
    start = time.perf_counter()
    rng = random.Random(1005)
    done = 0
    while done < 100:
        n = rng.randint(2, 10)
        g = random_connected_graph(rng, n)
        if g.n >= 3 and all(g.degree(v) == 2 for v in range(g.n)):
            continue  # cycles are out of scope for the decomposition
        s, paths = degree3_decomposition(g)
        ml = max_leaf_oracle(g)
        assert len(s) <= 4 * ml
        assert len(paths) <= 5 * ml
        for p in paths:
            comp = set(p.vertices)
            for a, b in zip(p.vertices, p.vertices[1:]):
                assert g.has_edge(a, b)
            for v in p.vertices:
                assert sum(1 for u in g.adjacency[v] if u in comp) <= 2
        done += 1
    report(5, "high-degree-set and path-count bounds, 100 graphs", start, 30)


def test_criterion_6_matching_suite():
    start = time.perf_counter()
    rng = random.Random(1006)
    for _ in range(500):
        nl = rng.randint(0, 7)
        nr = rng.randint(0, 7)
        pairs = [(u, v) for u in range(nl) for v in range(nr)]
        edges = rng.sample(pairs, rng.randint(0, len(pairs)))
        b = BipartiteGraph(nl, nr, edges)
        result = max_matching_with_cover(b)
        best = 0
        for r in range(min(nl, nr), 0, -1):
            found = False
            for chosen in combinations(edges, r):
                if (
                    len({u for u, _ in chosen}) == r
                    and len({v for _, v in chosen}) == r
                ):
                    found = True
                    break
            if found:
                best = r
                break
        assert result.size == best
        for u, v in edges:
            assert u in result.cover_left or v in result.cover_right
        assert len(result.cover_left) + len(result.cover_right) == result.size
    report(6, "matching size, cover validity, size equality, 500 graphs", start, 10)


def test_criterion_7_estimator_minimality():
    start = time.perf_counter()
    rng = random.Random(1007)

    def brute_min(g, predicate):
        for size in range(g.n + 1):
            for s in combinations(range(g.n), size):
                if predicate(set(s)):
                    return size
        raise AssertionError

    from motifkit.estimators import is_co_cluster

    for _ in range(100):
        n = rng.randint(1, 8)
        pairs = list(combinations(range(n), 2))
        g = Graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))

        vc = min_vertex_cover(g)
        assert all(u in vc or v in vc for u, v in g.edges())
        assert len(vc) == brute_min(
            g, lambda s: all(u in s or v in s for u, v in g.edges())
        )

        dc = dist_to_clique_set(g)
        assert g.is_clique([v for v in range(g.n) if v not in dc])
        assert len(dc) == brute_min(
            g, lambda s: g.is_clique([v for v in range(g.n) if v not in s])
        )

        cc = dist_to_co_cluster_set(g)

        def leaves_co_cluster(s):
            sub, _ = g.induced([v for v in range(g.n) if v not in s])
            return is_co_cluster(sub)

        assert leaves_co_cluster(cc)
        assert len(cc) == brute_min(g, leaves_co_cluster)
    report(7, "deletion-set minimality vs exhaustive, 100 graphs", start, 30)


def test_criterion_8_scaling_smoke():
    start = time.perf_counter()
    rng = random.Random(1008)
    clique_n, k = 200, 12
    n = clique_n + k
    edges = list(combinations(range(clique_n), 2))
    # Each extra vertex hangs off a few clique vertices; the extras form the
    # deletion set, so removing them leaves the big clique.
    for i in range(k):
        v = clique_n + i
        for u in rng.sample(range(clique_n), 3):
            edges.append((u, v))
    coloring = tuple(0 for _ in range(clique_n)) + tuple(
        1 + (i % 2) for i in range(k)
    )
    inst = Instance(Graph(n, edges), coloring, Motif({0: 4, 1: 2, 2: 2}))
    out = solve_dist_clique(inst, deletion_set=set(range(clique_n, n)))
    assert out.is_yes
    assert verify_solution(inst, out.witness)
    report(8, "clique-200 with 12-vertex deletion set", start, 60)
