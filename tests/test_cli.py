import contextlib
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifkit import cli, core, estimators
from motifkit.cli import (
    EXIT_CAPACITY,
    EXIT_NO,
    EXIT_PARSE,
    EXIT_YES,
    main,
    parse_graph_budget,
    parse_partitioned_graph,
    parse_set_system,
    parse_x3c_sources,
)
from motifkit.core import (
    Graph,
    InputError,
    Instance,
    Motif,
    SolveOutcome,
    format_instance,
    verify_solution,
)
from motifkit.estimators import greedy_vertex_clique_cover
from motifkit.generators import SetSystem, gen_hitting_set_split, gen_set_cover_split
from motifkit.solvers import dist_clique, solve_brute

YES_TEXT = "p gm 3 2\ne 0 1\ne 1 2\nc 0 0\nc 1 1\nc 2 0\nm 0 1\nm 1 1\n"
NO_TEXT = "p gm 2 0\nc 0 0\nc 1 1\nm 0 1\nm 1 1\n"


@pytest.fixture
def yes_file(tmp_path):
    p = tmp_path / "yes.gm"
    p.write_text(YES_TEXT)
    return str(p)


@pytest.fixture
def no_file(tmp_path):
    p = tmp_path / "no.gm"
    p.write_text(NO_TEXT)
    return str(p)


class TestSolve:
    @pytest.mark.parametrize(
        "algo", ["auto", "brute", "dist-clique", "vc", "cocluster", "maxleaf"]
    )
    def test_yes_instance(self, yes_file, algo, capsys):
        assert main(["solve", yes_file, "--algo", algo]) == EXIT_YES
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "YES"
        assert set(out[1].split()) <= {"0", "1", "2"}

    def test_output_is_verdict_then_sorted_witness_line(self, yes_file, capsys):
        assert main(["solve", yes_file, "--algo", "brute"]) == EXIT_YES
        assert capsys.readouterr().out == "YES\n0 1\n"

    def test_no_instance(self, no_file, capsys):
        assert main(["solve", no_file]) == EXIT_NO
        assert capsys.readouterr().out.strip() == "NO"

    def test_auto_reports_choice(self, yes_file, capsys):
        main(["solve", yes_file])
        assert "auto:" in capsys.readouterr().err

    @staticmethod
    def clique_hs(tmp_path):
        # Hitting-set split graph: a clique of 24 elements plus 8 independent
        # set vertices, each on 3 of the first 12 elements.  Distance to
        # clique is 8; the other probes exceed their caps.
        sets = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11),
                (0, 3, 6), (1, 4, 9), (2, 7, 10), (5, 8, 11)]
        inst = gen_hitting_set_split(SetSystem(24, tuple(sets), 4)).instance
        (tmp_path / "clique-hs.gm").write_text(format_instance(inst))
        return inst

    def test_auto_picks_dist_clique_on_clique_plus_sets(self, tmp_path, capsys):
        inst = self.clique_hs(tmp_path)
        assert main(["solve", str(tmp_path / "clique-hs.gm")]) == EXIT_YES
        captured = capsys.readouterr()
        assert captured.err == "auto: dist-clique (distance-to-clique = 8)\n"
        witness = [int(v) for v in captured.out.splitlines()[1].split()]
        assert verify_solution(inst, witness)

    def test_auto_hands_its_deletion_set_to_the_solver(
        self, tmp_path, capsys, monkeypatch
    ):
        # The probe's set is the solver's set: one estimate, not two.
        inst = self.clique_hs(tmp_path)
        calls = []

        def counted(g, limit=None):
            calls.append(limit)
            return estimators.dist_to_clique_set(g, limit)

        monkeypatch.setattr(cli, "dist_to_clique_set", counted)
        monkeypatch.setattr(dist_clique, "dist_to_clique_set", counted)
        assert main(["solve", str(tmp_path / "clique-hs.gm")]) == EXIT_YES
        # maxleaf predicts 10,626 guesses here, which raises the cap to 13.
        assert calls == [13]
        witness = [int(v) for v in capsys.readouterr().out.splitlines()[1].split()]
        assert verify_solution(inst, witness)

    def test_auto_prunes_once(self, tmp_path, monkeypatch):
        # `auto` predicts from the split the solver then runs on.
        self.clique_hs(tmp_path)
        prune, calls = core.prune_wrong_colors, []

        def counted(inst):
            calls.append(inst)
            return prune(inst)

        monkeypatch.setattr(core, "prune_wrong_colors", counted)
        assert main(["solve", str(tmp_path / "clique-hs.gm")]) == EXIT_YES
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "option, message",
        [
            ("--vertex-clique-cover", "not a vertex clique partition"),
            ("--edge-clique-cover", "not an edge clique cover"),
        ],
    )
    def test_auto_refuses_an_invalid_cover(self, yes_file, tmp_path, capsys, option, message):
        # `auto` picks maxleaf here, which takes no cover.
        cover = tmp_path / "cover.txt"
        cover.write_text("0 1\n1 5\n")
        assert main(["solve", yes_file, option, str(cover)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("algo", ["ecc", "vcc"])
    def test_cover_algo_requires_cover_file(self, yes_file, algo):
        assert main(["solve", yes_file, "--algo", algo]) == EXIT_PARSE

    def test_supplied_covers(self, yes_file, tmp_path, capsys):
        vcc = tmp_path / "vcc.txt"
        vcc.write_text("0 1\n2\n")
        ecc = tmp_path / "ecc.txt"
        ecc.write_text("0 1\n1 2\n")
        assert main(["solve", yes_file, "--algo", "vcc",
                     "--vertex-clique-cover", str(vcc)]) == EXIT_YES
        assert main(["solve", yes_file, "--algo", "ecc",
                     "--edge-clique-cover", str(ecc)]) == EXIT_YES

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1\n1 x\n", "bad cover line '1 x'"),
            ("# none\n\n", "cover file lists no cliques"),
        ],
    )
    def test_malformed_cover_file(self, yes_file, tmp_path, capsys, text, message):
        cover = tmp_path / "cover.txt"
        cover.write_text(text)
        argv = ["solve", yes_file, "--algo", "vcc", "--vertex-clique-cover", str(cover)]
        assert main(argv) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_malformed_instance(self, tmp_path):
        p = tmp_path / "bad.gm"
        p.write_text("p gm 1 0\nm 0 1\n")
        assert main(["solve", str(p)]) == EXIT_PARSE

    def test_the_instance_is_read_before_its_cover(self, tmp_path, capsys):
        p = tmp_path / "bad.gm"
        p.write_text("p gm 1 0\nm 0 1\n")
        missing = str(tmp_path / "missing.txt")
        want = main(["solve", str(p)]), capsys.readouterr().err
        argv = ["solve", str(p), "--algo", "vcc", "--vertex-clique-cover", missing]
        assert (main(argv), capsys.readouterr().err) == want

    def test_missing_file(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.gm")]) == EXIT_PARSE

    def test_brute_capacity(self, tmp_path):
        n = 30
        lines = [f"p gm {n} 0"] + [f"c {v} 0" for v in range(n)] + ["m 0 1"]
        p = tmp_path / "big.gm"
        p.write_text("\n".join(lines) + "\n")
        assert main(["solve", str(p), "--algo", "brute"]) == EXIT_CAPACITY


@st.composite
def small_instances(draw):
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    coloring = tuple(draw(st.integers(0, 2)) for _ in range(n))
    motif = Counter(draw(st.lists(st.integers(0, 2), min_size=1, max_size=5)))
    return Instance(Graph(n, edges), coloring, Motif(dict(motif)))


class TestAutoPick:
    def test_clique_hs_at_distance_eleven_goes_to_dist_clique(self):
        # Shaped like the dense-clique corpus's 250-element clique-hs files:
        # 11 set vertices, one over the probe's own cap of 10.  Picking by
        # raw parameter chose maxleaf (261 vertices of degree 3), which does
        # not finish.
        sets = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11), (0, 3, 6), (1, 4, 9),
                (2, 7, 10), (5, 8, 11), (0, 4, 8), (1, 5, 10), (2, 6, 11)]
        inst = gen_hitting_set_split(SetSystem(250, tuple(sets), 4)).instance
        algo, param, value, structure = cli._auto_pick(inst, {})
        assert (algo, param, value) == ("dist-clique", "distance-to-clique", 11)
        assert structure == set(range(250, 261))

    def test_clique_200_plus_12_goes_to_dist_clique(self):
        # The scaling smoke test's graph: 12 extra vertices, each on three
        # vertices of a 200-clique.
        rng = random.Random(1008)
        edges = list(combinations(range(200), 2))
        edges += [(u, v) for v in range(200, 212) for u in rng.sample(range(200), 3)]
        coloring = (0,) * 200 + tuple(1 + i % 2 for i in range(12))
        inst = Instance(Graph(212, edges), coloring, Motif({0: 4, 1: 2, 2: 2}))
        algo, _, value, structure = cli._auto_pick(inst, {})
        assert (algo, value) == ("dist-clique", 12)
        assert cli.SOLVERS[algo](inst, structure).is_yes

    def test_set_cover_goes_to_dist_clique_below_its_co_cluster_distance(self):
        # Distance to co-cluster 5 is below distance to clique 6, but the
        # dist-clique solver walks fewer guesses (and each costs less).
        source = SetSystem(
            6, ((4, 5), (2, 4), (0, 4, 5), (0, 2, 3, 4), (1, 3), (2, 3, 4, 5)), 2
        )
        inst = gen_set_cover_split(source).instance
        assert len(estimators.dist_to_co_cluster_set(inst.graph)) == 5
        algo, param, value, structure = cli._auto_pick(inst, {})
        assert (algo, value) == ("dist-clique", 6)
        assert cli.SOLVERS[algo](inst, structure).is_yes == source.has_set_cover()

    def test_no_probe_once_maxleaf_predicts_at_most_one_guess(self, monkeypatch):
        # A path has no vertex of degree 3, so maxleaf guesses nothing.
        def refused(g, limit=None):
            raise AssertionError("probe ran")

        for name in ("dist_to_clique_set", "min_vertex_cover", "dist_to_co_cluster_set"):
            monkeypatch.setattr(cli, name, refused)
        inst = Instance(Graph(5, [(i, i + 1) for i in range(4)]), (0, 1, 0, 1, 0),
                        Motif({0: 2, 1: 1}))
        assert cli._auto_pick(inst, {}) == ("maxleaf", "degree3-vertices", 0, None)

    @given(small_instances(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_the_pick_solves_like_brute(self, inst, with_cover):
        covers = {"vcc": greedy_vertex_clique_cover(inst.graph)} if with_cover else {}
        algo, _, _, structure = cli._auto_pick(inst, covers)
        assert cli.SOLVERS[algo](inst, structure).is_yes == solve_brute(inst).is_yes


class TestVerify:
    def run(self, tmp_path, witness, capsys, instance=YES_TEXT):
        inst = tmp_path / "i.gm"
        inst.write_text(instance)
        wit = tmp_path / "w.txt"
        wit.write_text(witness)
        code = main(["verify", str(inst), str(wit)])
        return code, capsys.readouterr().out.strip()

    def test_good_witness(self, tmp_path, capsys):
        assert self.run(tmp_path, "0 1\n", capsys) == (EXIT_YES, "OK")

    def test_wrong_multiset(self, tmp_path, capsys):
        assert self.run(tmp_path, "0 2\n", capsys) == (EXIT_NO, "multiset")

    def test_disconnected(self, tmp_path, capsys):
        text = "p gm 3 1\ne 0 1\nc 0 0\nc 1 1\nc 2 1\nm 0 1\nm 1 1\n"
        code, out = self.run(tmp_path, "0 2\n", capsys, instance=text)
        assert (code, out) == (EXIT_NO, "connectivity")

    @pytest.mark.parametrize("witness", ["1 1\n", "\n", "0 1 2\n"])
    def test_repeated_empty_or_oversized_is_multiset(self, tmp_path, capsys, witness):
        assert self.run(tmp_path, witness, capsys) == (EXIT_NO, "multiset")

    def test_out_of_range(self, tmp_path, capsys):
        code, _ = self.run(tmp_path, "0 9\n", capsys)
        assert code == EXIT_PARSE

    def test_out_of_range_message(self, tmp_path, capsys):
        inst = tmp_path / "i.gm"
        inst.write_text(YES_TEXT)
        wit = tmp_path / "w.txt"
        wit.write_text("0 9\n")
        assert main(["verify", str(inst), str(wit)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "",
            "error: witness vertex 9 out of range\n",
        )


class TestGenerateChain:
    def gen(self, tmp_path, reduction, source, *extra):
        src = tmp_path / "src.txt"
        src.write_text(source)
        out = tmp_path / "inst.gm"
        code = main(
            ["generate", reduction, str(src), "-o", str(out), *extra]
        )
        return code, out

    def test_x3c_paths_yes_chain(self, tmp_path, capsys):
        source = "q 2\ns 0 2 4\ns 0 1 3\ns 1 3 5\ns 1 4 5\n"
        code, out = self.gen(tmp_path, "x3c-paths", source)
        assert code == EXIT_YES
        assert (tmp_path / "inst.gm.cert").exists()
        capsys.readouterr()
        assert main(["solve", str(out), "--algo", "maxleaf"]) == EXIT_YES
        witness = capsys.readouterr().out.splitlines()[1]
        wit = tmp_path / "w.txt"
        wit.write_text(witness)
        assert main(["verify", str(out), str(wit)]) == EXIT_YES

    def test_x3c_paths_no_chain(self, tmp_path):
        source = "q 2\ns 0 1 2\ns 0 1 3\n"
        _, out = self.gen(tmp_path, "x3c-paths", source)
        assert main(["solve", str(out), "--algo", "maxleaf"]) == EXIT_NO

    def test_hitting_set_chain(self, tmp_path):
        source = "n 3\nt 1\ns 0 1\ns 1 2\n"
        _, out = self.gen(tmp_path, "hitting-set", source)
        assert main(["solve", str(out), "--algo", "vc"]) == EXIT_YES

    def test_domset_gadget_needs_root(self, tmp_path):
        code, _ = self.gen(tmp_path, "domset-gadget", YES_TEXT)
        assert code == EXIT_PARSE
        code, out = self.gen(tmp_path, "domset-gadget", YES_TEXT, "--root", "1")
        assert code == EXIT_YES
        assert main(["solve", str(out), "--algo", "brute"]) == EXIT_YES

    def test_domset_variants(self, tmp_path):
        source = "n 3\nt 1\ne 0 1\ne 1 2\n"
        for variant in ("cluster", "tree"):
            _, out = self.gen(
                tmp_path, "domset", source, "--variant", variant
            )
            assert main(["solve", str(out), "--algo", "brute"]) == EXIT_YES

    def test_mcc_star_warning_on_stderr(self, tmp_path, capsys):
        code, out = self.gen(tmp_path, "mcc-star", "k 2\nt 2\n")
        assert code == EXIT_YES
        assert "warning:" in capsys.readouterr().err
        assert main(["solve", str(out), "--algo", "maxleaf"]) == EXIT_NO

    def test_or_composition(self, tmp_path):
        source = "q 1\ns 0 1 2\nq 1\ns 0 1 2\n"
        _, out = self.gen(tmp_path, "or-composition", source)
        assert main(["solve", str(out), "--algo", "brute"]) == EXIT_YES

    def test_bad_source(self, tmp_path):
        code, _ = self.gen(tmp_path, "x3c-paths", "z 1\n")
        assert code == EXIT_PARSE

    @pytest.mark.parametrize(
        "source, message",
        [
            ("# no instance\n", "source defines no instance"),
            ("q 1\ns 0 1 2\nq 1\ns 0 1 2\n",
             "x3c-paths takes exactly one source instance"),
        ],
    )
    def test_x3c_source_needs_exactly_one_instance(
        self, tmp_path, capsys, source, message
    ):
        code, out = self.gen(tmp_path, "x3c-paths", source)
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_certificate_on_the_output_file_is_refused(self, tmp_path, capsys):
        # Written last, the certificate would replace the instance.
        source = "q 2\ns 0 2 4\ns 0 1 3\ns 1 3 5\ns 1 4 5\n"
        out = str(tmp_path / "inst.gm")
        code, _ = self.gen(tmp_path, "x3c-paths", source, "--certificate", out)
        assert code == EXIT_PARSE
        assert "wrote" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == [tmp_path / "src.txt"]

    @pytest.mark.parametrize(
        "reduction, source",
        [
            ("domset", "n 3\nt 1\ne 0 1 2\n"),
            ("x3c-paths", "q 1\ns 0 1\n"),
            ("x3c-paths", "q 1 2\ns 0 1 2\n"),
        ],
    )
    def test_wrong_field_count(self, tmp_path, capsys, reduction, source):
        code, _ = self.gen(tmp_path, reduction, source)
        assert code == EXIT_PARSE
        assert "fields" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["-o", "--certificate"])
    def test_unwritable_output(self, tmp_path, capsys, flag):
        missing = str(tmp_path / "missing" / "x.gm")
        code, _ = self.gen(tmp_path, "x3c-paths", "q 1\ns 0 1 2\n", flag, missing)
        assert code == EXIT_PARSE
        assert f"cannot write {missing}" in capsys.readouterr().err
        # Neither the instance nor its certificate is left behind.
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["src.txt"]

    @pytest.mark.parametrize("flag", ["-o", "--certificate"])
    def test_failed_rename_leaves_no_file(self, tmp_path, capsys, flag):
        # A directory in place of one output: its text is written to a
        # temporary file, and only moving that into place fails.
        target = tmp_path / "dir"
        target.mkdir()
        extra = [flag, str(target)]
        if flag == "-o":
            extra += ["--certificate", str(tmp_path / "c.cert")]
        code, _ = self.gen(tmp_path, "x3c-paths", "q 1\ns 0 1 2\n", *extra)
        assert code == EXIT_PARSE
        assert f"cannot write {target}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir", "src.txt"]


class TestParams:
    def test_report(self, yes_file, capsys):
        assert main(["params", yes_file]) == EXIT_YES
        out = dict(
            line.split(maxsplit=1) for line in capsys.readouterr().out.splitlines()
        )
        assert out["vertex-cover"] == "1"
        assert out["degree3-vertices"] == "0"
        assert out["paths-outside-degree3-set"] == "1"

    def test_star_with_vertex_clique_cover(self, tmp_path, capsys):
        text = "p gm 4 3\ne 0 1\ne 0 2\ne 0 3\n"
        text += "".join(f"c {v} 0\n" for v in range(4)) + "m 0 1\n"
        (tmp_path / "star.gm").write_text(text)
        (tmp_path / "vcc.txt").write_text("0 1\n2\n3\n")
        argv = ["params", str(tmp_path / "star.gm"),
                "--vertex-clique-cover", str(tmp_path / "vcc.txt")]
        assert main(argv) == EXIT_YES
        assert capsys.readouterr().out.splitlines() == [
            "vertex-cover 1",
            "distance-to-clique 2",
            "distance-to-co-cluster 0",
            "degree3-vertices 1",
            "paths-outside-degree3-set 3",
            "supplied-vertex-partition valid",
        ]

    def test_limit(self, tmp_path, capsys):
        lines = ["p gm 6 3", "e 0 1", "e 2 3", "e 4 5"]
        lines += [f"c {v} 0" for v in range(6)] + ["m 0 1"]
        p = tmp_path / "m.gm"
        p.write_text("\n".join(lines) + "\n")
        for limit in ("0", "1", "2"):
            assert main(["params", str(p), "--limit", limit]) == EXIT_YES
            assert f"vertex-cover > {limit}" in capsys.readouterr().out

    def test_limit_propagates(self, tmp_path, capsys):
        # Three disjoint edges: vertex cover 3, distance to clique 4 and
        # distance to co-cluster 3, so limit 1 caps every deletion-set search.
        lines = ["p gm 6 3", "e 0 1", "e 2 3", "e 4 5"]
        lines += [f"c {v} 0" for v in range(6)] + ["m 0 1"]
        p = tmp_path / "m.gm"
        p.write_text("\n".join(lines) + "\n")
        assert main(["params", str(p), "--limit", "1"]) == EXIT_YES
        out = capsys.readouterr().out.splitlines()
        assert out[:3] == [
            "vertex-cover > 1",
            "distance-to-clique > 1",
            "distance-to-co-cluster > 1",
        ]
        assert main(["params", str(p)]) == EXIT_YES
        out = capsys.readouterr().out.splitlines()
        assert out[:3] == [
            "vertex-cover 3",
            "distance-to-clique 4",
            "distance-to-co-cluster 3",
        ]

    def test_negative_limit_is_rejected(self, yes_file, capsys):
        assert main(["params", yes_file, "--limit", "-1"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--limit" in captured.err

    def test_supplied_cover_validation(self, yes_file, tmp_path, capsys):
        cover = tmp_path / "c.txt"
        cover.write_text("0 2\n1\n")  # 0 and 2 are not adjacent
        main(["params", yes_file, "--vertex-clique-cover", str(cover)])
        assert "supplied-vertex-partition invalid" in capsys.readouterr().out


class TestBench:
    def test_table_and_agreement(self, tmp_path, capsys):
        (tmp_path / "a.gm").write_text(YES_TEXT)
        (tmp_path / "b.gm").write_text(NO_TEXT)
        code = main(
            ["bench", str(tmp_path), "--algo", "brute", "vc", "--timeout", "30"]
        )
        assert code == EXIT_YES
        out = capsys.readouterr().out
        assert out.count("agree") >= 4  # header word plus one per row
        assert "differ" not in out

    def test_zero_timeout_is_all_to(self, tmp_path, capsys):
        (tmp_path / "a.gm").write_text(YES_TEXT)
        assert main(["bench", str(tmp_path), "--timeout", "0"]) == EXIT_YES
        lines = capsys.readouterr().out.splitlines()[1:]
        assert lines and all(" TO " in line for line in lines)

    def test_not_a_directory(self, tmp_path):
        assert main(["bench", str(tmp_path / "nope")]) == EXIT_PARSE

    def test_capacity_cell_is_cap_not_fatal(self, tmp_path, capsys):
        # 30 vertices: over the brute solver's cap, easy for vc.
        lines = ["p gm 30 29"] + [f"e {v} {v + 1}" for v in range(29)]
        lines += [f"c {v} {v % 2}" for v in range(30)] + ["m 0 1", "m 1 1"]
        (tmp_path / "path.gm").write_text("\n".join(lines) + "\n")
        code = main(
            ["bench", str(tmp_path), "--algo", "brute", "vc", "--timeout", "30"]
        )
        assert code == EXIT_YES
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        assert [(r[1], r[2], r[4]) for r in rows] == [
            ("brute", "CAP", "agree"),
            ("vc", "YES", "agree"),
        ]

    def test_unparsable_file_is_err_not_fatal(self, tmp_path, capsys):
        (tmp_path / "a.gm").write_text(YES_TEXT)
        (tmp_path / "b.gm").write_text("p gm 1 0\nc 0 zz\n")
        code = main(
            ["bench", str(tmp_path), "--algo", "brute", "vc", "--timeout", "30"]
        )
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        rows = [line.split() for line in captured.out.splitlines()[1:]]
        assert [(r[0], r[1], r[2], r[4]) for r in rows] == [
            ("a.gm", "brute", "YES", "agree"),
            ("a.gm", "vc", "YES", "agree"),
            ("b.gm", "brute", "ERR", "agree"),
            ("b.gm", "vc", "ERR", "agree"),
        ]
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {tmp_path / 'b.gm'}: line 2")

    def test_unknown_algo(self, tmp_path):
        (tmp_path / "a.gm").write_text(YES_TEXT)
        with pytest.raises(SystemExit) as exc:
            main(["bench", str(tmp_path), "--algo", "nope", "--timeout", "0"])
        assert exc.value.code == EXIT_PARSE

    def test_a_repeated_algo_runs_once(self, tmp_path, capsys, monkeypatch):
        cells = []

        def run_cells(cell, jobs):
            jobs = list(jobs)
            cells.extend(jobs)
            return map(cell, jobs)

        monkeypatch.setattr(
            cli, "ProcessPoolExecutor",
            lambda max_workers: contextlib.nullcontext(SimpleNamespace(map=run_cells)),
        )
        (tmp_path / "a.gm").write_text(YES_TEXT)
        (tmp_path / "b.gm").write_text(NO_TEXT)
        code = main(["bench", str(tmp_path), "--algo", "vc", "vc", "brute"])
        assert code == EXIT_YES
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        expected = [("a.gm", "vc"), ("a.gm", "brute"), ("b.gm", "vc"), ("b.gm", "brute")]
        assert [(r[0], r[1]) for r in rows] == expected
        assert len(cells) == 4

    def test_disagreeing_solvers_are_marked_and_exit_1(
        self, tmp_path, capsys, monkeypatch
    ):
        # Cells run in this process, so that the patched solver is the one run.
        monkeypatch.setattr(
            cli, "ProcessPoolExecutor",
            lambda max_workers: contextlib.nullcontext(SimpleNamespace(map=map)),
        )
        monkeypatch.setitem(cli.SOLVERS, "vc", lambda inst, structure: SolveOutcome.no())
        (tmp_path / "a.gm").write_text(YES_TEXT)
        (tmp_path / "b.gm").write_text(NO_TEXT)
        code = main(["bench", str(tmp_path), "--algo", "brute", "vc", "--timeout", "30"])
        assert code == EXIT_NO
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        assert [(r[0], r[1], r[2], r[4]) for r in rows] == [
            ("a.gm", "brute", "YES", "differ"),
            ("a.gm", "vc", "NO", "differ"),
            ("b.gm", "brute", "NO", "agree"),
            ("b.gm", "vc", "NO", "agree"),
        ]

    @pytest.mark.parametrize("timeout", ["nan", "inf", "1e300"])
    def test_timeout_the_timer_cannot_take_is_refused(
        self, tmp_path, capsys, monkeypatch, timeout
    ):
        # Before, a worker raised from `setitimer` and the run ended in its traceback.
        def no_workers(max_workers):
            raise AssertionError("a worker was started")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_workers)
        (tmp_path / "a.gm").write_text(YES_TEXT)
        assert main(["bench", str(tmp_path), "--timeout", timeout]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        message = f"--timeout must be at most 1e9 seconds, not {float(timeout)}"
        assert captured.err == f"error: {message}\n"

    def test_negative_timeout_is_all_to(self, tmp_path, capsys):
        (tmp_path / "a.gm").write_text(YES_TEXT)
        assert main(["bench", str(tmp_path), "--timeout=-inf"]) == EXIT_YES
        lines = capsys.readouterr().out.splitlines()[1:]
        assert lines and all(" TO " in line for line in lines)


    def test_a_cell_that_raises_is_err_not_fatal(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "ProcessPoolExecutor",
            lambda max_workers: contextlib.nullcontext(SimpleNamespace(map=map)),
        )

        def broken(inst, structure):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli.SOLVERS, "vc", broken)
        (tmp_path / "a.gm").write_text(YES_TEXT)
        (tmp_path / "b.gm").write_text(NO_TEXT)
        code = main(["bench", str(tmp_path), "--algo", "brute", "vc", "--timeout", "30"])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        rows = [line.split() for line in captured.out.splitlines()[1:]]
        assert [(r[0], r[1], r[2], r[4]) for r in rows] == [
            ("a.gm", "brute", "YES", "agree"),
            ("a.gm", "vc", "ERR", "agree"),
            ("b.gm", "brute", "NO", "agree"),
            ("b.gm", "vc", "ERR", "agree"),
        ]
        assert captured.err.splitlines() == [
            f"error: {tmp_path / name}: vc: RuntimeError: boom" for name in ("a.gm", "b.gm")
        ]

    def test_no_alarm_lands_in_the_first_import_of_numpy(self, tmp_path):
        # In a fresh process, NumPy's first import sleeps past each cell's
        # timeout, and a second try fails as NumPy's own does once an import
        # was cut short.  Every cell reaches the set-cover DP, which imports
        # NumPy, and the files are too small for the block reader to load it.
        inst = gen_set_cover_split(SetSystem(4, ((0, 1), (1, 2), (2, 3)), 2)).instance
        for name in ("a", "b", "c"):
            (tmp_path / f"{name}.gm").write_text(format_instance(inst))
        code = """
import contextlib, importlib.abc, importlib.machinery, sys, time
from types import SimpleNamespace
from motifkit import cli

class SlowNumpy(importlib.abc.MetaPathFinder):
    started = False

    def find_spec(self, name, path, target=None):
        if name != "numpy":
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        load = spec.loader.exec_module

        def exec_module(module):
            if SlowNumpy.started:
                raise ImportError("cannot load module more than once per process")
            SlowNumpy.started = True
            time.sleep(1.0)
            load(module)

        spec.loader.exec_module = exec_module
        return spec

sys.meta_path.insert(0, SlowNumpy())
cli.ProcessPoolExecutor = lambda max_workers: contextlib.nullcontext(
    SimpleNamespace(map=map))
code = cli.main(["bench", sys.argv[1], "--algo", "dist-clique", "--timeout", "0.3"])
print(code, "numpy" in sys.modules)
"""
        path = os.pathsep.join(filter(None, [str(Path(cli.__file__).parent.parent),
                                             os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=60,
        )
        lines = done.stdout.splitlines()
        assert [line.split()[2] for line in lines[1:-1]] == ["YES"] * 3, done.stderr
        assert lines[-1] == "0 True"


class TestManyCallsInOneProcess:
    def test_repeated_call_is_unchanged(self, yes_file, tmp_path, capsys):
        # The parser is built once per process and shared by every call.
        def run(*argv):
            code = main(list(argv))
            return code, capsys.readouterr().out

        first = run("solve", yes_file, "--algo", "vc")
        assert run("solve", yes_file)[0] == EXIT_YES
        bench_dir = tmp_path / "bench"
        bench_dir.mkdir()
        (bench_dir / "a.gm").write_text(YES_TEXT)
        code, out = run("bench", str(bench_dir), "--timeout", "30")
        assert code == EXIT_YES
        assert [line.split()[1] for line in out.splitlines()[1:]] == ["brute", "vc"]
        assert run("solve", yes_file, "--algo", "vc") == first
        assert cli.build_parser() is cli.build_parser()
        assert cli.build_parser().parse_args(["bench", "d"]).algo == ["brute", "vc"]


class TestSourceGrammars:
    def test_x3c_multiple_instances(self):
        sources = parse_x3c_sources("q 1\ns 0 1 2\nq 1\n")
        assert len(sources) == 2
        assert sources[0].triples == ((0, 1, 2),)
        assert sources[1].triples == ()

    def test_x3c_triple_before_q(self):
        with pytest.raises(InputError):
            parse_x3c_sources("s 0 1 2\n")

    def test_set_system(self):
        s = parse_set_system("n 4\nt 2\ns 0 1\ns 2 3\n# comment\n")
        assert s.n == 4 and s.budget == 2 and len(s.sets) == 2

    def test_set_system_missing_header(self):
        with pytest.raises(InputError):
            parse_set_system("s 0 1\n")

    def test_graph_budget(self):
        g, t = parse_graph_budget("n 3\nt 1\ne 0 1\n")
        assert g.n == 3 and t == 1 and g.num_edges() == 1

    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_x3c_sources, "q\n"),
            (parse_set_system, "n 2 3\nt 1\n"),
            (parse_graph_budget, "n 3\nt\n"),
            (parse_partitioned_graph, "k 2\nt 2\npattern 0\n"),
        ],
    )
    def test_wrong_field_count(self, parse, text):
        with pytest.raises(InputError, match="fields"):
            parse(text)

    def test_partitioned_graph(self):
        p = parse_partitioned_graph("k 2\nt 2\ne 0 2\npattern 0 1\n")
        assert p.k == 2 and p.t == 2
        assert p.pattern == frozenset({(0, 1)})
