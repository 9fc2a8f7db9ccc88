"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )
    return proc


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_of_each_workload(workload):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    proc = _bench("--workload", "sparse-paths", "--seed", "7", "--seconds", "0.5", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] is True
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["csct.calls"]["value"] == 0
    assert metrics["solvers.calls"]["value"] >= 1
    assert metrics["trace.missing"]["value"] == 0


def test_corpus_is_determined_by_the_seed(tmp_path):
    first = corpus.build_corpus("sparse-paths", 11, tmp_path / "a")
    second = corpus.build_corpus("sparse-paths", 11, tmp_path / "b")
    other = corpus.build_corpus("sparse-paths", 12, tmp_path / "c")
    assert first["corpus_sha256"] == second["corpus_sha256"]
    assert first["corpus_sha256"] != other["corpus_sha256"]


def test_wrong_expected_answer_fails_the_check(tmp_path):
    built = corpus.build_corpus("sparse-paths", 3, tmp_path / "corpus")
    built["instances"][0]["expected"] = not built["instances"][0]["expected"]
    result = run.run_worker(tmp_path / "corpus", 0.1, False, tmp_path)
    with pytest.raises(run.WrongAnswer, match="certified"):
        run.check_records(built, tmp_path / "corpus", [result["warmup"]])


def test_bad_witness_fails_the_check(tmp_path):
    # The warm-up record is the first instance; use a seed where it is a YES.
    for seed in range(1, 100):
        shutil.rmtree(tmp_path / "corpus", ignore_errors=True)
        built = corpus.build_corpus("sparse-paths", seed, tmp_path / "corpus")
        if built["instances"][0]["expected"]:
            break
    result = run.run_worker(tmp_path / "corpus", 0.1, False, tmp_path)
    record = result["warmup"]
    run.check_records(built, tmp_path / "corpus", [record])
    verdict, witness = record["stdout"].splitlines()[:2]
    bad = dict(record, stdout=f"{verdict}\n{witness.rsplit(' ', 1)[0]}\n")
    with pytest.raises(run.WrongAnswer, match="multiset"):
        run.check_records(built, tmp_path / "corpus", [bad])


def test_timeout_is_counted_not_raised(tmp_path):
    built = corpus.build_corpus("dense-clique", 5, tmp_path / "corpus")
    result = run.run_worker(tmp_path / "corpus", 0.5, False, tmp_path, limit=0.005)
    statuses = {rec["status"] for rec in result["records"]}
    assert statuses == {"timeout"}
    run.check_records(built, tmp_path / "corpus", result["records"])
    metrics, _ = run.end_to_end(result, [1.0], len(built["instances"]))
    assert metrics["decided_per_s"] == 0
    assert metrics["verdict_p50_s"] == run.INSTANCE_LIMIT_S


@pytest.mark.parametrize("per_pass", [11, 40, 42, 52, 200])
def test_tail_percentile_leaves_ten_instances_beyond(per_pass):
    p = run.tail_percentile(per_pass)
    assert run.tail(range(per_pass), p)[1] >= 10
    assert p == 99 or run.tail(range(per_pass), p + 1)[1] < 10


def test_instance_times_are_medians_over_passes():
    def one_pass(slow=0.0):
        return [
            {"index": i, "status": "ok", "seconds": t, "scaled_s": t}
            for i, t in enumerate([1.0 + slow] + [2.0] * 11)
        ]

    result = {
        "records": one_pass(slow=20.0) + one_pass() + one_pass(),
        "wall_s": 80.0,
        "peak_rss_mb": 1.0,
    }
    metrics, _ = run.end_to_end(result, [1.0], 12)
    assert metrics["decided_per_s"] == 12 / 23
    assert metrics["verdict_p50_s"] == 2.0
    assert metrics["verdict_tail_s"] == 2.0


def test_missing_wrapper_target_is_reported():
    tracer = spans.Tracer()
    tracer.install(
        [
            ("motifkit.core:no_such_function", "core.gone"),
            ("motifkit.no_such_module:f", "gone"),
            ("motifkit.core:parse_instance", "core.parse"),
        ]
    )
    try:
        from motifkit import cli

        assert cli.parse_instance.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert tracer.missing == ["motifkit.core:no_such_function", "motifkit.no_such_module:f"]
    assert not hasattr(cli.parse_instance, "__wrapped__")


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(
        "--workload", "sparse-paths", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "perfbench" / "run.py",
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
