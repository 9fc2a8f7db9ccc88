import importlib.util
import json
import os
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load_tool("bench_pairs")


def fake_run(seed, side, first, decided, p50, attempted=10, failed=0):
    metrics = {name: {"value": 1.0, "unit": "-"} for name in bench_pairs.METRICS}
    metrics["decided_per_s"] = {"value": decided, "unit": "1/s"}
    metrics["verdict_p50_s"] = {"value": p50, "unit": "s"}
    result = {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {"seed": seed, "side": side, "ran_first": first, "result": result}


class TestBenchPairs:
    def test_seed_ranges_and_lists(self):
        assert bench_pairs.parse_seeds("1501-1504") == [1501, 1502, 1503, 1504]
        assert bench_pairs.parse_seeds("7,3") == [7, 3]

    def test_summary_respects_each_metrics_direction(self):
        runs = []
        # decided_per_s: higher is better; verdict_p50_s: lower is better.
        for seed, (p, c) in enumerate([(100, 150), (110, 90), (120, 200), (130, 210)]):
            runs.append(fake_run(seed, "parent", seed % 2 == 0, p, 1 / p))
            runs.append(fake_run(seed, "change", seed % 2 == 1, c, 1 / c, failed=1))
        summary = bench_pairs.summarize(runs)
        assert summary["pairs"] == 4
        assert summary["correct"] is True
        assert summary["attempted"] == {"parent": 40, "change": 40}
        assert summary["failed"] == {"parent": 0, "change": 4}
        decided = summary["decided_per_s"]
        assert decided["parent_q1_median_q3"] == [107.5, 115.0, 122.5]
        assert decided["change_q1_median_q3"] == [135.0, 175.0, 202.5]
        assert decided["median_change"] == "+52.2%"
        assert decided["change_better_pairs"] == "3/4"
        assert summary["verdict_p50_s"]["change_better_pairs"] == "3/4"
        assert summary["peak_rss_mb"]["change_better_pairs"] == "0/4"

    def test_each_side_gets_its_own_fresh_bytecode_prefix(self, tmp_path):
        trees = {}
        for side in bench_pairs.SIDES:
            (tmp_path / side / "perfbench").mkdir(parents=True)
            (tmp_path / side / "perfbench" / "run.py").write_text("")
            trees[str((tmp_path / side).resolve())] = side
        prefixes = {side: set() for side in bench_pairs.SIDES}
        line = json.dumps(fake_run(0, "parent", True, 100, 0.01)["result"])

        def fake_subprocess_run(argv, cwd, env, **kwargs):
            prefix = env["PYTHONPYCACHEPREFIX"]
            side = trees[str(cwd)]
            if not prefixes[side]:
                assert os.listdir(prefix) == []
            prefixes[side].add(prefix)
            return SimpleNamespace(stdout=line + "\n")

        out = tmp_path / "BENCH.json"
        with mock.patch.object(bench_pairs.subprocess, "run", fake_subprocess_run):
            code = bench_pairs.main(
                [str(tmp_path / "parent"), str(tmp_path / "change"),
                 "--out", str(out), "--seeds", "1-2"]
            )
        assert code == 0
        # One prefix per side for the whole session, a different one each,
        # outside both trees and removed at the end.
        (parent,), (change,) = prefixes["parent"], prefixes["change"]
        assert parent != change
        for prefix in (parent, change):
            assert not any(prefix.startswith(tree) for tree in trees)
            assert not os.path.exists(prefix)
        assert "PYTHONPYCACHEPREFIX" in json.loads(out.read_text())["order"]


same_output = load_tool("same_output")


class TestSameOutput:
    def test_differing_cell_reports_verdict_and_witness_checks(self, tmp_path):
        parent = (0, "YES\n0 1 2\n", "auto: vc (vertex-cover = 6)\n")
        change = (0, "YES\n0 2 5\n", "auto: maxleaf (degree3-vertices = 7)\n")
        runs = []

        def fake_run(argv, env, **kwargs):
            witness = Path(argv[-1]).read_text()
            runs.append((argv[3:5], env["PYTHONPATH"], witness))
            return SimpleNamespace(stdout="OK\n" if witness == "0 1 2\n" else "not connected\n")

        with mock.patch.object(same_output.subprocess, "run", fake_run):
            lines = same_output.explain(
                Path("/parent/src"), Path("x.gm"), parent, change, str(tmp_path)
            )
        assert lines == [
            "  verdict and exit code: same",
            "  parent witness: verifies",
            "  change witness: fails (not connected)",
        ]
        # Both witnesses are checked by the parent's `motifkit verify`.
        assert runs == [
            (["verify", "x.gm"], "/parent/src", "0 1 2\n"),
            (["verify", "x.gm"], "/parent/src", "0 2 5\n"),
        ]

    def test_verdict_change_is_flagged_and_no_answer_is_not_verified(self, tmp_path):
        with mock.patch.object(same_output.subprocess, "run") as run:
            lines = same_output.explain(
                Path("/p"), Path("x.gm"), (1, "NO\n", ""), (0, "NO\n", ""), str(tmp_path)
            )
        assert lines == ["  verdict and exit code: DIFFER"]
        assert not run.called
