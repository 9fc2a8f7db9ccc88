import pytest

from motifkit import cli, estimators
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
from motifkit.core import InputError, format_instance, verify_solution
from motifkit.generators import SetSystem, gen_hitting_set_split
from motifkit.solvers import dist_clique

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
        assert calls == [10]
        witness = [int(v) for v in capsys.readouterr().out.splitlines()[1].split()]
        assert verify_solution(inst, witness)

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

    def test_malformed_instance(self, tmp_path):
        p = tmp_path / "bad.gm"
        p.write_text("p gm 1 0\nm 0 1\n")
        assert main(["solve", str(p)]) == EXIT_PARSE

    def test_missing_file(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.gm")]) == EXIT_PARSE

    def test_brute_capacity(self, tmp_path):
        n = 30
        lines = [f"p gm {n} 0"] + [f"c {v} 0" for v in range(n)] + ["m 0 1"]
        p = tmp_path / "big.gm"
        p.write_text("\n".join(lines) + "\n")
        assert main(["solve", str(p), "--algo", "brute"]) == EXIT_CAPACITY


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

    def test_bad_thread_cap(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "a.gm").write_text(YES_TEXT)
        monkeypatch.setenv("MOTIF_KIT_THREADS", "abc")
        assert main(["bench", str(tmp_path), "--timeout", "30"]) == EXIT_PARSE
        assert "MOTIF_KIT_THREADS" in capsys.readouterr().err

    def test_unknown_algo(self, tmp_path):
        (tmp_path / "a.gm").write_text(YES_TEXT)
        with pytest.raises(SystemExit) as exc:
            main(["bench", str(tmp_path), "--algo", "nope", "--timeout", "0"])
        assert exc.value.code == EXIT_PARSE


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

    def test_partitioned_graph(self):
        p = parse_partitioned_graph("k 2\nt 2\ne 0 2\npattern 0 1\n")
        assert p.k == 2 and p.t == 2
        assert p.pattern == frozenset({(0, 1)})
