"""motifkit benchmark: time to a checked YES/NO verdict, end to end and by layer.

    python3 perfbench/run.py --workload dense-clique --seed 1 --seconds 20 --trace 0

Run from anywhere; it works on the checkout it sits in (`src/motifkit`).

1. Set-up: `corpus.py` builds the workload's certified corpus from the seed
   in a fresh interpreter (import, generation with the source-side brute
   force, writing the files), several times; `setup_s` is the median.
2. `worker.py` runs the corpus in a closed loop in one process, through
   `motifkit.cli.main`, in whole passes for about `--seconds`; times are
   scaled to a reference speed (`speed.py`), and each instance's time is
   the median over the passes.
3. Every verdict is checked against its certificate and every YES witness
   with this file's own multiset and connectivity check, read straight from
   the `.gm` file.  A wrong verdict or a bad witness makes the run fail.
4. The last line of output is one JSON object: the end-to-end metrics with
   `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.

Timeouts, exit code 3, `MemoryError` and other exceptions count as failed
instances (`failed` out of `attempted`); they do not stop the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter, deque
from pathlib import Path

import speed
from corpus import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Set-up is timed over at least SETUP_MIN_BUILDS builds, and more until they
# add up to SETUP_SECONDS or SETUP_MAX_BUILDS, so that the median of short
# set-ups (tens of milliseconds) rests on many builds.
SETUP_MIN_BUILDS = 5
SETUP_MAX_BUILDS = 40
SETUP_SECONDS = 3.0
# Per-instance limit: several times the slowest instance that finishes on
# any seed, so the failure count repeats exactly.
INSTANCE_LIMIT_S = 30.0
AUTO_ALGOS = ("dist-clique", "vc", "cocluster", "maxleaf")

# Unit of every metric, by name, as BENCHMARK.json lists them.
UNITS = {
    metric["name"]: metric["unit"]
    for kind in ("end_to_end", "per_layer")
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
}


class WrongAnswer(Exception):
    """A verdict disagrees with its certificate, or a witness is invalid."""


def _child_env():
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def _run_child(argv, timeout):
    proc = subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=_child_env(),
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} failed:\n{proc.stderr[-3000:]}")
    return proc.stdout


def setup(workload, seed, work, trace):
    """Build the corpus several times (once when tracing).

    Returns (corpus dir, set-up seconds of each build at the reference
    speed, corpus hash, setup trace or None).  Every build must give the
    same files.
    """
    runs = []
    scaled = []
    while not runs or (
        not trace
        and len(runs) < SETUP_MAX_BUILDS
        and (len(runs) < SETUP_MIN_BUILDS or sum(scaled) < SETUP_SECONDS)
    ):
        out = work / f"corpus{len(runs)}"
        stdout = _run_child(
            [
                str(HERE / "corpus.py"),
                f"--workload={workload}",
                f"--seed={seed}",
                f"--out={out}",
                f"--src={SRC}",
                f"--trace={int(trace)}",
            ],
            timeout=120,
        )
        build = json.loads(stdout.strip().splitlines()[-1])
        runs.append(build)
        scaled.append(
            speed.scale(
                build["setup_s"], build["probe_before_s"], build["probe_after_s"]
            )
        )
        if len(runs) > 1:
            shutil.rmtree(work / f"corpus{len(runs) - 2}")
    hashes = {run["corpus_sha256"] for run in runs}
    if len(hashes) != 1:
        raise RuntimeError(f"corpus builds differ for seed {seed}: {sorted(hashes)}")
    return out, scaled, hashes.pop(), runs[-1].get("trace")


def run_worker(corpus, seconds, trace, work, limit=INSTANCE_LIMIT_S):
    out = work / "results.json"
    _run_child(
        [
            str(HERE / "worker.py"),
            f"--corpus={corpus}",
            f"--src={SRC}",
            f"--seconds={seconds}",
            f"--limit={limit}",
            f"--trace={int(trace)}",
            f"--out={out}",
        ],
        timeout=seconds + 2 * limit + 30,
    )
    return json.loads(out.read_text())


# -- correctness -----------------------------------------------------------


def read_instance_part(path, vertices):
    """(n, colour of each vertex, motif, edges inside `vertices`) of a .gm file.

    A reader of its own, independent of `motifkit.core.parse_instance`.
    Colours are the file's ids; the program renumbers them, but only by a
    bijection, so multisets compare the same.
    """
    n = None
    colour = {}
    motif = Counter()
    edges = []
    with open(path) as handle:
        for line in handle:
            fields = line.split("#", 1)[0].split()
            if not fields:
                continue
            tag = fields[0]
            if tag == "e":
                u, v = int(fields[1]), int(fields[2])
                if u in vertices and v in vertices:
                    edges.append((u, v))
            elif tag == "c":
                v = int(fields[1])
                if v in vertices:
                    colour[v] = int(fields[2])
            elif tag == "m":
                motif[int(fields[1])] += int(fields[2])
            elif tag == "p":
                n = int(fields[2])
    return n, colour, motif, edges


def witness_problem(path, witness):
    """Why `witness` is not a solution of the instance at `path`, or None."""
    vertices = set(witness)
    if not witness:
        return "empty witness"
    if len(vertices) != len(witness):
        return "repeated vertex"
    n, colour, motif, edges = read_instance_part(path, vertices)
    if any(not 0 <= v < n for v in witness):
        return "vertex out of range"
    if Counter(colour[v] for v in witness) != motif:
        return "colour multiset differs from the motif"
    adjacent = {v: [] for v in witness}
    for u, v in edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    seen = {witness[0]}
    queue = deque(seen)
    while queue:
        for w in adjacent[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if seen != vertices:
        return "witness is not connected"
    return None


def check_records(manifest, corpus, records):
    """Raise WrongAnswer unless every finished instance is right."""
    checked = {}
    for rec in records:
        if rec["status"] != "ok":
            continue
        item = manifest["instances"][rec["index"]]
        lines = rec["stdout"].splitlines()
        verdict = lines[0] if lines else ""
        if verdict not in ("YES", "NO"):
            raise WrongAnswer(f"{item['file']}: unreadable output {rec['stdout']!r}")
        if (verdict == "YES") != item["expected"]:
            raise WrongAnswer(
                f"{item['file']}: answered {verdict}, certified "
                f"{'YES' if item['expected'] else 'NO'} by {item['source']}"
            )
        if verdict == "YES":
            try:
                witness = [int(f) for f in lines[1].split()]
            except (IndexError, ValueError):
                raise WrongAnswer(f"{item['file']}: unreadable witness") from None
            key = (item["file"], tuple(witness))
            if key not in checked:
                checked[key] = witness_problem(corpus / item["file"], witness)
            if checked[key] is not None:
                raise WrongAnswer(f"{item['file']}: {checked[key]}")


# -- metrics ---------------------------------------------------------------


def tail_percentile(per_pass):
    """The highest percentile with at least ten samples beyond it in a pass."""
    return max(
        p for p in range(1, 100) if per_pass - math.ceil(p * per_pass / 100) >= 10
    )


def tail(times, percentile):
    """(nearest-rank value at `percentile`, number of samples beyond it)."""
    ordered = sorted(times)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(result, setup_seconds, per_pass):
    """The user-facing metrics of an untraced run, times at reference speed.

    Each instance's time is the median of its times over the passes, so one
    slow moment of the machine does not move a metric; a failed run of an
    instance enters at the limit.  `per_pass` is the number of instances in
    one pass over the corpus.
    """
    records = result["records"]
    runs = {}
    for rec in records:
        runs.setdefault(rec["index"], []).append(
            rec["scaled_s"] if rec["status"] == "ok" else INSTANCE_LIMIT_S
        )
    times = [statistics.median(runs[index]) for index in sorted(runs)]
    decided = sum(rec["status"] == "ok" for rec in records)
    percentile = tail_percentile(per_pass)
    value, beyond = tail(times, percentile)
    metrics = {
        "decided_per_s": decided / len(records) * len(times) / sum(times),
        "verdict_p50_s": statistics.median(times),
        "verdict_tail_s": value,
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setup_seconds),
    }
    raw = [rec["seconds"] for rec in records]
    notes = {
        "decided_per_s": f"{decided} of {len(records)} decided in"
        f" {len(records) // len(times)} passes; {decided / result['wall_s']:.4g}"
        f" per wall-clock second over {result['wall_s']:.2f} s",
        "verdict_p50_s": f"{statistics.median(raw):.4g} s wall-clock",
        "verdict_tail_s": f"p{percentile} of {len(times)} instances, {beyond} beyond",
        "setup_s": f"median of {len(setup_seconds)} builds",
    }
    return metrics, notes


def per_layer(result, setup_trace):
    solving, building = result["trace"], setup_trace or {}
    self_s = Counter(solving["self_s"]) + Counter(building.get("self_s", {}))
    calls = Counter(solving["calls"]) + Counter(building.get("calls", {}))
    counts = Counter(solving["counts"]) + Counter(building.get("counts", {}))
    maxima = solving["maxima"]

    def share(part, whole):
        return part / whole if whole else 0.0

    metrics = {}
    for span in (
        "core.parse",
        "core.prune",
        "core.induced",
        "core.components",
        "core.complement",
        "core.verify",
        "estimators.vertex_cover",
        "estimators.dist_clique",
        "estimators.co_cluster",
        "estimators.degree3",
        "solvers.path_window",
        "combinatorics.matching",
    ):
        metrics[f"{span}_s"] = self_s[span]
        metrics[f"{span}_calls"] = calls[span]
    metrics["core.parse_mb_per_s"] = share(
        counts["core.parse_bytes"] / 1e6, self_s["core.parse"]
    )
    metrics["core.format_s"] = self_s["core.format"]
    metrics["estimators.probe_gave_up_share"] = share(
        counts["estimators.probe_gave_up"], counts["estimators.capped_probes"]
    )
    metrics["solvers.self_s"] = self_s["solvers"]
    metrics["solvers.calls"] = calls["solvers"]
    metrics["csct.s"] = self_s["csct"]
    metrics["csct.calls"] = calls["csct"]
    metrics["csct.feasible_share"] = share(counts["csct.feasible"], calls["csct"])
    metrics["csct.max_universe"] = maxima.get("csct.max_universe", 0)
    metrics["csct.table_mb_max"] = maxima.get("csct.table_mb_max", 0.0)
    metrics["csct.capacity_errors"] = counts["csct.capacity_errors"]
    metrics["combinatorics.matching_perfect_share"] = share(
        counts["combinatorics.matching_perfect"], calls["combinatorics.matching"]
    )
    metrics["combinatorics.ordered_partitions_yielded"] = counts[
        "combinatorics.ordered_partitions_yielded"
    ]
    metrics["cli.self_s"] = self_s["cli"]
    metrics["cli.exit3"] = counts["cli.exit3"]
    picks = Counter(
        rec["stderr"].split("auto: ", 1)[1].split()[0]
        for rec in result["records"]
        if "auto: " in rec["stderr"]
    )
    for algo in AUTO_ALGOS:
        metrics[f"cli.auto_pick.{algo}"] = picks[algo]
    metrics["generators.s"] = self_s["generators"]
    metrics["generators.source_check_s"] = self_s["generators.source_check"]
    metrics["generators.instances"] = calls["generators"]

    def rate(records):
        decided = sum(rec["status"] == "ok" for rec in records)
        return decided / sum(rec["scaled_s"] for rec in records)

    metrics["trace_overhead"] = rate(result["records"]) / rate(result["plain"])
    metrics["trace.missing"] = len(solving["missing"]) + len(building.get("missing", []))
    return metrics


# -- entry point -----------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so that subprocess.run kills and waits
    # for the child it is running and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "motifkit" / "__init__.py").is_file():
        print(f"error: no motifkit sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def _run(args, work) -> int:
    trace = bool(args.trace)
    corpus, setup_seconds, digest, setup_trace = setup(
        args.workload, args.seed, work, trace
    )
    result = run_worker(corpus, args.seconds, trace, work)
    manifest = json.loads((corpus / "manifest.json").read_text())
    records = [result["warmup"], *result["records"], *result.get("plain", [])]
    failed = sum(rec["status"] != "ok" for rec in result["records"])
    print(f"workload {args.workload}  seed {args.seed}  corpus sha256 {digest}")
    for status, count in sorted(Counter(r["status"] for r in records).items()):
        print(f"  instances {status}: {count}")
    for rec in records:
        if rec["status"] != "ok":
            item = manifest["instances"][rec["index"]]
            print(f"  failed {item['file']}: {rec['status']} {rec['detail']}")
    correct = True
    try:
        check_records(manifest, corpus, records)
    except WrongAnswer as exc:
        print(f"WRONG: {exc}")
        correct = False
    if trace:
        metrics = per_layer(result, setup_trace)
        notes = {}
        missing = result["trace"]["missing"] + (setup_trace or {}).get("missing", [])
        for target in missing:
            print(f"  trace target missing: {target}")
    else:
        metrics, notes = end_to_end(
            result, setup_seconds, len(manifest["instances"])
        )
    print(f"  failed_share = {failed}/{len(result['records'])}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} = {value:.6g} {UNITS[name]}{note}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(result["records"]),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
