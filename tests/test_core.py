import re
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifkit import core, twins
from motifkit.core import (
    BLOCK_READER_MIN_EDGES,
    Graph,
    InputError,
    Instance,
    Motif,
    connected_components,
    format_instance,
    format_witness,
    parse_instance,
    parse_reduced,
    parse_witness,
    prune_wrong_colors,
    restrict,
    verify_solution,
    witness_failure,
    _parse_lines,
)
from motifkit.estimators import (
    degree3_vertices,
    dist_to_clique_set,
    dist_to_co_cluster_set,
    min_vertex_cover,
)
from motifkit.generators import (
    SetSystem,
    X3cInstance,
    gen_hitting_set_split,
    gen_x3c_paths,
)
from motifkit.solvers import solve_brute
from oracles import components_oracle


def graphs(max_n=10):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return Graph(n, edges)

    return build()


@st.composite
def graphs_and_vertex_lists(draw, max_n=12):
    """A graph of any density and a list of its vertices, unsorted and with
    repeats."""
    n = draw(st.integers(0, max_n))
    p = draw(st.floats(0.0, 1.0))
    rnd = draw(st.randoms(use_true_random=False))
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < p])
    return g, (draw(st.lists(st.integers(0, n - 1))) if n else [])


def instances(max_n=8):
    @st.composite
    def build(draw):
        g = draw(graphs(max_n))
        coloring = draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
        mults = draw(
            st.dictionaries(st.integers(0, 4), st.integers(1, 3), min_size=1, max_size=3)
        )
        return Instance(g, tuple(coloring), Motif(mults))

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

    @given(graphs_and_vertex_lists())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_bfs(self, case):
        g, vertices = case
        comps = connected_components(g, vertices)
        assert comps == components_oracle(g, vertices)
        assert all(comp == sorted(comp) for comp in comps)
        assert [comp[0] for comp in comps] == sorted(comp[0] for comp in comps)

    @given(graphs_and_vertex_lists(), st.sampled_from([-1, 0, 1, 5]))
    @settings(max_examples=100, deadline=None)
    def test_out_of_range_vertex_raises(self, case, beyond):
        g, vertices = case
        bad = -1 if beyond < 0 else g.n + beyond
        with pytest.raises(InputError, match=f"vertex {bad} out of range"):
            connected_components(g, [*vertices, bad])


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


def format_per_edge(inst, comment=""):
    """The instance format written one `e` line per edge of `Graph.edges()`."""
    lines = [f"# {line}" for line in comment.splitlines()]
    edges = inst.graph.edges()
    lines.append(f"p gm {inst.graph.n} {len(edges)}")
    lines.extend(f"e {u} {v}" for u, v in edges)
    lines.extend(f"c {v} {inst.coloring[v]}" for v in range(inst.graph.n))
    lines.extend(f"m {c} {k}" for c, k in sorted(inst.motif.multiplicities.items()))
    return "\n".join(lines) + "\n"


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

    def test_huge_header_with_many_edges_rejected_without_allocating(self):
        edges = "e 0 1\n" * BLOCK_READER_MIN_EDGES
        start = time.perf_counter()
        with pytest.raises(InputError):
            parse_instance(f"p gm 1000000000 {BLOCK_READER_MIN_EDGES}\n{edges}c 0 0\n")
        assert time.perf_counter() - start < 0.5

    @given(instances(), st.sampled_from(["", "one line", "two\nlines"]))
    def test_format_matches_per_edge_formatter(self, inst, comment):
        assert format_instance(inst, comment) == format_per_edge(inst, comment)

    def test_format_matches_per_edge_formatter_on_clique_hs(self):
        sets = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11),
                (0, 3, 6), (1, 4, 9), (2, 7, 10), (5, 8, 11)]
        inst = gen_hitting_set_split(SetSystem(24, tuple(sets), 4)).instance
        assert format_instance(inst, "clique-hs") == format_per_edge(inst, "clique-hs")

    def test_witness_round_trip(self):
        assert parse_witness(format_witness([3, 1, 2])) == [1, 2, 3]
        assert parse_witness("1 2 # comment\n3") == [1, 2, 3]
        with pytest.raises(InputError):
            parse_witness("1 x")


def _at_line(edit):
    """Apply `edit(line, n)`, which returns replacement lines, to line i."""
    return lambda lines, i, n: lines[:i] + edit(lines[i], n) + lines[i + 1 :]


# Edits of a formatted instance's lines: (lines, index of a body line, n).
MUTATIONS = {
    "drop token": _at_line(lambda line, n: [line.rsplit(" ", 1)[0]]),
    "extra token": _at_line(lambda line, n: [line + " 7"]),
    "comment": _at_line(lambda line, n: [line + " # note"]),
    "tab": _at_line(lambda line, n: [line.replace(" ", "\t", 1)]),
    "crlf": _at_line(lambda line, n: [line + "\r"]),
    "letter suffix": _at_line(lambda line, n: [line + "c"]),
    "glued tag": _at_line(lambda line, n: [line[:1] + line[2:] + " 7"]),
    "tag second": _at_line(lambda line, n: [re.sub(r"^(\S+) (\S+)", r"\2 \1", line)]),
    "negative": _at_line(lambda line, n: [re.sub(r"(\d+)$", r"-\1", line)]),
    "leading space": _at_line(lambda line, n: [" " + line]),
    "leading zeros": _at_line(lambda line, n: [re.sub(r" (\d)", r" 00\1", line, 1)]),
    "huge integer": _at_line(lambda line, n: [re.sub(r"\d+$", "9" * 30, line)]),
    "first field 0": _at_line(lambda line, n: [re.sub(r"^(\S+ )\d+", r"\g<1>0", line)]),
    "split line": _at_line(lambda line, n: line.rsplit(" ", 1)),
    "blank line": _at_line(lambda line, n: ["", line]),
    "repeat": _at_line(lambda line, n: [line, line]),
    "self-loop": _at_line(lambda line, n: [f"e {n - 1} {n - 1}", line]),
    "out of range": _at_line(lambda line, n: [f"e 0 {n}", line]),
    "second header": _at_line(lambda line, n: [f"p gm {n} 0", line]),
    "joined lines": lambda ls, i, n: ls[:i] + [" ".join(ls[i : i + 2])] + ls[i + 2 :],
    "out of order": lambda ls, i, n: ls[:i] + ls[-1:] + ls[i:-1],
    "break in comment": lambda ls, i, n: [ls[0] + "\v" + ls[1]] + ls[1:],
    "header break": lambda ls, i, n: ls[:1] + [ls[1].replace(" ", "\v", 1)] + ls[2:],
}


def check_block_reader(text):
    """The block reader declines or agrees with the line parser, and
    `parse_instance` returns or raises what the line parser does."""
    with mock.patch.object(core, "BLOCK_READER_MIN_EDGES", 0):
        got = core._read_kept(text, search_twins=False)
    got = got and got[0]
    try:
        want = _parse_lines(text)
    except InputError as err:
        assert got is None
        with pytest.raises(InputError, match=f"^{re.escape(str(err))}$"):
            parse_instance(text)
        return None
    assert got is None or got == want
    assert parse_instance(text) == want
    return got


class TestBlockReader:
    @given(instances())
    def test_reads_what_format_instance_writes(self, inst):
        assert check_block_reader(format_instance(inst, comment="block reader"))

    @given(instances())
    def test_crlf_file_is_left_to_the_line_parser(self, inst):
        text = format_instance(inst).replace("\n", "\r\n")
        assert check_block_reader(text) is None

    @pytest.mark.parametrize("edit", sorted(MUTATIONS))
    @settings(max_examples=25, deadline=None)
    @given(
        instances(),
        st.lists(st.sampled_from(sorted(MUTATIONS)), max_size=1),
        st.booleans(),
        st.data(),
    )
    def test_declines_or_agrees_after_edits(self, edit, inst, more, recount, data):
        """`recount` makes the header's edge count match the edited text."""
        lines = format_instance(inst, comment="block reader").splitlines()
        for name in [edit, *more]:
            i = data.draw(st.integers(2, len(lines) - 1))
            lines = MUTATIONS[name](lines, i, inst.graph.n)
        if recount:
            edges = sum(line[:1] == "e" for line in lines)
            lines[1] = f"{lines[1].rsplit(' ', 1)[0]} {edges}"
        check_block_reader("\n".join(lines) + "\n")

    # Out of block order, a misplaced tag or a field moved to another line,
    # yet every count and range check passes; no motif; a vertex id that
    # must not size an allocation.
    @pytest.mark.parametrize(
        "text",
        [
            "p gm 3 1\nc 0 1\nc 1 2\nc 2 0\ne 0 2\nm 0 1\n",
            "p gm 2 1\ne 0 1\nm 1 2\nc 0 2\nc 1 1\n",
            "p gm 3 1\nm 0 2\nc 0 0\nc 1 0\nc 2 1\ne 1 2\n",
            "p gm 1 0\nc 0 0\nm 0 1\n0 m 1\n",
            "p gm 2 1\ne 0 1\nc0 0 1\nc  1\nm 0 1\n",
            "p gm 2 1\ne 0 1\nc0 0 1\nc 1 \nm 0 1\n",
            "p gm 2 1\ne 0 1\nc 0 0\nc 999999999999999999 0\nm 0 1\n",
            "p gm 2 1\ne 0 1\nc 0 0\nc 1 0\n",
        ],
    )
    def test_declines_blocks_out_of_order_or_missing(self, text):
        assert check_block_reader(text) is None

    @pytest.mark.parametrize("text", list(MALFORMED))
    def test_declines_malformed(self, text):
        check_block_reader(text)

    # What the separator scan and the checks on its offsets must decline:
    # a NUL and a unit separator in place of a space, three spaces on one
    # line and one on the next (the same count in all), a form feed before
    # a newline; a `c` tag in the edge block and an `m` tag in the colour
    # block, every count as in a valid file; a digit before the tag, on the
    # first line and on a later one; an empty field, which must not be read
    # as 0, nor as its space's byte (32 - 48 mod 256 = 240, a vertex here);
    # a 19-digit vertex, past what an int64 holds, on a 23-byte line.
    @pytest.mark.parametrize(
        "text",
        [
            "p gm 2 1\ne 0\x001\nc 0 0\nc 1 1\nm 0 1\nm 1 1\n",
            "p gm 2 1\ne 0\x1f1\nc 0 0\nc 1 1\nm 0 1\nm 1 1\n",
            "p gm 2 1\ne 0 1\nc 0 0 1\nc 11\nm 0 1\nm 1 1\n",
            "p gm 2 1\ne 0 1\f\nc 0 0\nc 1 1\nm 0 1\nm 1 1\n",
            "p gm 2 1\nc 0 1\nc 0 0\nc 1 1\nm 0 1\n",
            "p gm 2 1\ne 0 1\nc 0 0\nm 1 1\nm 0 1\n",
            "p gm 2 1\n0e 0 1\nc 0 0\nc 1 1\nm 0 1\n",
            "p gm 2 1\ne 0 1\n0c 0 0\nc 1 1\nm 0 1\n",
            "p gm 2 1\ne 0 1\nc  1\nc 1 1\nm 1 1\n",
            "p gm 2 1\ne 0 1\nc 0 0\nc 1 \nm 0 1\n",
            "p gm 241 0\n" + "".join(f"c {v} 0\n" for v in range(240)) + "c  0\nm 0 1\n",
            "p gm 2 1\ne 9999999999999999999 1\nc 0 0\nc 1 1\nm 0 1\nm 1 1\n",
        ],
    )
    def test_declines_other_separators_tags_and_empty_fields(self, text):
        assert check_block_reader(text) is None

    def test_reads_duplicate_edges_once(self):
        text = "p gm 2 3\ne 0 1\ne 1 0\ne 0 1\nc 0 0\nc 1 5\nm 5 1\nm 0 1\n"
        got = check_block_reader(text)
        assert got is not None and got.graph.adjacency == ((1,), (0,))

    def test_header_below_threshold_is_left_to_the_line_parser(self):
        text = format_instance(Instance(Graph(2, [(0, 1)]), (0, 0), Motif({0: 2})))
        assert core._read_kept(text, search_twins=False) is None
        with mock.patch.object(core, "BLOCK_READER_MIN_EDGES", 1):
            assert core._read_kept(text, search_twins=False) is not None


@st.composite
def instances_with_twins(draw, max_n=6, max_twins=6):
    """A small instance, then copies of its vertices: each new vertex takes
    the colour and the neighbourhood N(v) (a false twin) or N[v] (a true
    twin) of a vertex v before it."""
    inst = draw(instances(max_n))
    edges, coloring = set(inst.graph.edges()), list(inst.coloring)
    for _ in range(draw(st.integers(0, max_twins))):
        n = len(coloring)
        v = draw(st.integers(0, n - 1))
        like = {w for e in edges if v in e for w in e if w != v}
        if draw(st.booleans()):
            like.add(v)
        edges |= {(w, n) for w in like}
        coloring.append(coloring[v])
    return Instance(Graph(len(coloring), edges), tuple(coloring), inst.motif)


def exact_twins(g, u, v):
    n_u, n_v = set(g.adjacency[u]), set(g.adjacency[v])
    return n_u == n_v or n_u | {u} == n_v | {v}


def read_reduced(text):
    """What the block reader of `parse_reduced` keeps of `text`, whatever
    the header's edge count."""
    with (
        mock.patch.object(core, "BLOCK_READER_MIN_EDGES", 0),
        mock.patch.object(core, "TWIN_READER_MIN_EDGES", 0),
    ):
        return core._read_kept(text, search_twins=True)


def check_twin_reduction(inst):
    """The reducing block reader keeps an induced sub-instance with the same
    answer, whose witness verifies on the whole, and drops only off-colour
    vertices and vertices with at least m_c kept exact twins of their
    colour."""
    text = format_instance(inst)
    reduced, ids = read_reduced(text)
    whole = parse_instance(text)
    assert list(ids) == sorted(set(ids)) and reduced == restrict(whole, ids)[0]
    g, kept = whole.graph, set(ids)
    for v in set(range(g.n)) - kept:
        m_c = whole.motif.count(whole.coloring[v])
        kept_twins = [w for w in kept if whole.coloring[w] == whole.coloring[v]
                      and exact_twins(g, v, w)]
        assert len(kept_twins) >= m_c
    want, got = solve_brute(whole), solve_brute(reduced)
    assert got.is_yes == want.is_yes
    if got.is_yes:
        assert verify_solution(whole, [ids[v] for v in got.witness])
    return reduced, ids


class TestTwinReduction:
    @settings(max_examples=300, deadline=None)
    @given(instances_with_twins())
    def test_answer_and_lifted_witness_match_the_whole_instance(self, inst):
        check_twin_reduction(inst)

    @settings(max_examples=200, deadline=None)
    @given(instances_with_twins())
    def test_a_hash_collision_drops_only_exact_twins(self, inst):
        # Every vertex weighs the same: each class of one colour and degree
        # collides, and only the exact check tells twins apart.
        weights = twins.weights
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(twins, "weights", lambda n: weights(n) * 0 + 1)
            check_twin_reduction(inst)

    @pytest.mark.parametrize("true_twins", [False, True])
    @pytest.mark.parametrize("k, m_c", [(1, 1), (3, 1), (4, 2), (2, 3), (5, 5)])
    def test_a_class_of_k_twins_keeps_its_m_c_lowest_ids(self, true_twins, k, m_c):
        # Vertices 0..k-1 of colour 0 all see the hub k, of colour 1; with
        # `true_twins` they form a clique as well.
        edges = [(v, k) for v in range(k)]
        if true_twins:
            edges += [(u, v) for u in range(k) for v in range(u + 1, k)]
        inst = Instance(Graph(k + 1, edges), (0,) * k + (1,), Motif({0: m_c, 1: 1}))
        _, ids = check_twin_reduction(inst)
        assert list(ids) == [*range(min(k, m_c)), k]

    def test_off_colour_vertices_go_and_the_line_parser_keeps_all(self):
        inst = Instance(Graph(3, [(0, 1), (1, 2)]), (0, 1, 2), Motif({0: 1, 1: 1}))
        text = format_instance(inst)
        assert read_reduced(text)[1] == [0, 1]
        assert parse_reduced(text) == (parse_instance(text), range(3))

    @settings(max_examples=150, deadline=None)
    @given(instances_with_twins(max_n=5, max_twins=5))
    def test_no_parameter_grows(self, inst):
        reduced, _ = read_reduced(format_instance(inst))
        g, h = inst.graph, reduced.graph
        for estimate in (min_vertex_cover, dist_to_clique_set, dist_to_co_cluster_set):
            assert len(estimate(h)) <= len(estimate(g))
        assert len(degree3_vertices(h)) <= len(degree3_vertices(g))

