import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifkit.core import (
    Graph,
    InputError,
    Instance,
    Motif,
    connected_components,
    format_instance,
    format_witness,
    parse_instance,
    parse_witness,
    prune_wrong_colors,
    restrict,
    verify_solution,
    witness_failure,
)
from motifkit.generators import X3cInstance, gen_x3c_paths


def graphs(max_n=10):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return Graph(n, edges)

    return build()


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            Graph(2, [(0, 0)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(InputError):
            Graph(2, [(0, 2)])

    def test_adjacency_sorted_and_deduplicated(self):
        g = Graph(3, [(2, 0), (0, 2), (0, 1)])
        assert g.adjacency[0] == (1, 2)
        assert g.num_edges() == 2

    @given(graphs())
    def test_complement_is_involution(self, g):
        assert g.complement().complement() == g

    @given(graphs())
    def test_induced_on_everything_is_identity(self, g):
        sub, remap = g.induced(range(g.n))
        assert sub == g
        assert remap == {v: v for v in range(g.n)}

    def test_induced_remaps_edges(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        sub, remap = g.induced([1, 3])
        assert sub.n == 2 and sub.num_edges() == 0
        assert remap == {1: 0, 3: 1}


class TestMotif:
    def test_rejects_empty(self):
        with pytest.raises(InputError):
            Motif({})

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(InputError):
            Motif({1: 0})

    def test_contains_and_minus(self):
        m = Motif({1: 2, 2: 1})
        assert m.contains([1, 1])
        assert not m.contains([2, 2])
        assert m.minus([1]) == {1: 1, 2: 1}

    def test_matches_needs_exact_multiplicities(self):
        m = Motif({1: 2})
        assert m.matches([1, 1])
        assert not m.matches([1])
        assert not m.matches([1, 1, 1])


class TestVerifySolution:
    def test_single_vertex_identity(self):
        inst = Instance(Graph(1), (1,), Motif({1: 1}))
        assert verify_solution(inst, [0])

    def test_disconnected_pair_rejected(self):
        inst = Instance(Graph(2), (1, 1), Motif({1: 2}))
        assert not verify_solution(inst, [0, 1])

    def test_duplicate_ids_rejected(self):
        inst = Instance(Graph(2, [(0, 1)]), (1, 1), Motif({1: 2}))
        assert not verify_solution(inst, [0, 0])

    def test_out_of_range_raises(self):
        inst = Instance(Graph(1), (1,), Motif({1: 1}))
        with pytest.raises(InputError):
            verify_solution(inst, [5])

    def test_pictured_exact_cover_instance(self):
        # Known YES source: sets 0 and 2 cover the six elements exactly.
        source = X3cInstance(2, ((0, 2, 4), (0, 1, 3), (1, 3, 5), (1, 4, 5)))
        generated = gen_x3c_paths(source)
        inst = generated.instance
        cert = generated.certificate
        witness = {cert["root"]}
        for chosen in (0, 2):
            head = cert[f"set:{chosen}:long"]
            witness.update(range(head, head + 5))
        for rejected in (1, 3):
            head = cert[f"set:{rejected}:short"]
            witness.update((head, head + 1))
        assert verify_solution(inst, witness)


class TestWitnessFailure:
    # Path 0-1-2 colored 0, 1, 0 with motif {0, 1}.
    INST = Instance(Graph(3, [(0, 1), (1, 2)]), (0, 1, 0), Motif({0: 1, 1: 1}))

    @pytest.mark.parametrize(
        "witness, reason",
        [
            ([0, 1], None),
            ([1, 2], None),
            ([0, 2], "multiset"),  # wrong colors
            ([0, 1, 1], "multiset"),  # repeated vertex
            ([], "multiset"),
            ([0, 1, 2], "multiset"),
        ],
    )
    def test_reason(self, witness, reason):
        assert witness_failure(self.INST, witness) == reason
        assert verify_solution(self.INST, witness) == (reason is None)

    def test_disconnected(self):
        inst = Instance(Graph(3, [(0, 1)]), (0, 1, 1), Motif({0: 1, 1: 1}))
        assert witness_failure(inst, [0, 2]) == "connectivity"
        assert not verify_solution(inst, [0, 2])

    def test_out_of_range_raises(self):
        with pytest.raises(InputError, match="witness vertex 3 out of range"):
            witness_failure(self.INST, [0, 3])


class TestConnectedComponents:
    def test_empty_selection(self):
        assert connected_components(Graph(3), []) == []

    def test_path_with_gap(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert connected_components(g, [0, 2]) == [[0], [2]]

    def test_triangle_whole(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert connected_components(g, range(3)) == [[0, 1, 2]]


class TestPruneWrongColors:
    def test_keeps_on_color_vertices(self):
        inst = Instance(Graph(3, [(0, 1), (1, 2)]), (1, 2, 1), Motif({1: 2}))
        pruned, remap = prune_wrong_colors(inst)
        assert pruned.graph.n == 2
        assert sorted(remap) == [0, 2]
        assert pruned.motif == inst.motif

    def test_all_off_color(self):
        inst = Instance(Graph(2, [(0, 1)]), (5, 5), Motif({1: 1}))
        pruned, _ = prune_wrong_colors(inst)
        assert pruned.graph.n == 0


class TestRestrict:
    def test_ids_colors_and_edges(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)])
        inst = Instance(g, (0, 1, 2, 0, 1), Motif({0: 1, 1: 1, 2: 1}))
        sub, ids = restrict(inst, [4, 1, 2, 4])
        assert ids == [1, 2, 4]
        assert sub.coloring == (1, 2, 1)
        assert sub.motif == inst.motif
        assert sub.graph == g.induced([4, 1, 2, 4])[0]

    def test_all_vertices_returns_the_input(self):
        inst = Instance(Graph(3, [(0, 1), (1, 2)]), (0, 1, 0), Motif({0: 1}))
        sub, ids = restrict(inst, range(3))
        assert sub is inst
        assert ids == [0, 1, 2]

    def test_lifted_witness_verifies(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        inst = Instance(g, (0, 1, 2, 0, 1), Motif({0: 1, 1: 1}))
        sub, ids = restrict(inst, [0, 3, 4])
        assert verify_solution(sub, [1, 2])
        assert verify_solution(inst, [ids[v] for v in [1, 2]])


# Malformed instance text -> the whole error message it must raise.
MALFORMED = {
    "c 0 0\nm 0 1\n": "missing 'p gm' header",
    "p gm 1 0\nm 0 1\n": "every vertex 0..n-1 needs exactly one 'c' line",
    "p gm 1 0\nc 0 0\nc 0 1\nm 0 1\n": "line 3: vertex 0 colored twice",
    "p gm 2 1\nc 0 0\nc 1 0\nm 0 1\n": "header promises 1 edges, found 0",
    "p gm 1 0\nc 0 0\nm 0 0\n": "line 3: multiplicity must be >= 1",
    "p gm 1 0\nc 0 0\nm 0 1\nq 3\n": "line 4: unknown record 'q'",
    "p gm 2 1\ne 0\nc 0 0\nc 1 0\nm 0 1\n": "line 2: expected 2 fields",
    "p gm 1 0\nc 0 0 7\nm 0 1\n": "line 2: expected 2 fields",
    "p gm 2 1\ne 0 x\nc 0 0\nc 1 0\nm 0 1\n": "line 2: non-integer field",
    "p gm x 0\nc 0 0\nm 0 1\n": "line 1: non-integer header field",
    "p gm 1 0\n# note\np gm 1 0\n": "line 3: duplicate header",
    "p gx 1 0\nc 0 0\nm 0 1\n": "line 1: header must be 'p gm <n> <m>'",
    "p gm 1\nc 0 0\nm 0 1\n": "line 1: header must be 'p gm <n> <m>'",
    "p gm 1 0\nc 0 -1\nm 0 1\n": "line 2: negative color",
    "p gm 1 0\nc 0 0\nm 0 1\nm 0 2\n": "line 4: motif color 0 repeated",
}


class TestFileFormat:
    def test_round_trip(self):
        inst = Instance(
            Graph(3, [(0, 1), (1, 2)]), (0, 1, 0), Motif({0: 2, 1: 1})
        )
        again = parse_instance(format_instance(inst, comment="round trip"))
        assert again.graph == inst.graph
        assert again.coloring == inst.coloring
        assert again.motif == inst.motif

    def test_sparse_colors_are_remapped(self):
        text = "p gm 2 1\ne 0 1\nc 0 10\nc 1 99\nm 10 1\nm 99 1\n"
        inst = parse_instance(text)
        assert inst.coloring == (0, 1)
        assert inst.motif == Motif({0: 1, 1: 1})

    def test_comments_and_blank_lines_ignored(self):
        text = "# hello\n\np gm 1 0  # trailing\nc 0 0\nm 0 1\n"
        inst = parse_instance(text)
        assert inst.graph.n == 1

    @pytest.mark.parametrize("text", list(MALFORMED))
    def test_rejects_malformed(self, text):
        message = MALFORMED[text]
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            parse_instance(text)

    def test_huge_header_rejected_without_allocating(self):
        start = time.perf_counter()
        with pytest.raises(InputError):
            parse_instance("p gm 1000000000 0\n")
        assert time.perf_counter() - start < 0.5

    def test_witness_round_trip(self):
        assert parse_witness(format_witness([3, 1, 2])) == [1, 2, 3]
        assert parse_witness("1 2 # comment\n3") == [1, 2, 3]
        with pytest.raises(InputError):
            parse_witness("1 x")
