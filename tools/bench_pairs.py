"""Paired benchmark runs of two source trees, written as a `BENCH_<n>.json`.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --out BENCH_N.json \
        --seeds 1501-1510 [--parent-rev REV] [--what TEXT] [--claim WORKLOAD:METRIC]

PARENT_TREE and CHANGE_TREE are checkouts (each with `perfbench/run.py`
and `src/`), best clean copies such as `git archive REV | tar -x -C DIR`
makes.  For every workload of `BENCHMARK.json` and every seed, the script
runs

    python3 perfbench/run.py --workload W --seed SEED --seconds S --trace 0

with S the benchmark's `run_seconds`, once in each tree, one run at a time.
The two sides take turns to run first: the parent runs first on the first,
third, ... seed.  Each side writes and reads its bytecode under its own
`PYTHONPYCACHEPREFIX`, an empty directory at the start that the script
makes and removes, so a tree's own stale `__pycache__` cannot make one side
import faster than the other.  `PYTHONDONTWRITEBYTECODE` is dropped from
the runs' environment: with it set nothing is cached, and every process
compiles each module it imports, which `setup_s` would count.
`perfbench/run.py` passes that environment on to its children.  The file records every run (seed, side, whether it ran
first, run.py's JSON) and,
per workload, a summary: whether every verdict was correct, the attempted
and failed counts per side, and for each end-to-end metric of
`BENCHMARK.json` the q1/median/q3 of each side (inclusive quartiles), the
change of the median, and in how many pairs the change was better.

The file is rewritten after every pair, so an interrupted run keeps the
pairs it finished.  Exits 1 if a run fails to produce its JSON line.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
SECONDS = BENCHMARK["run_seconds"]
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list:
    """`1501-1510` or `1501,1503,1507` as a list of ints."""
    if "-" in text:
        low, high = (int(part) for part in text.split("-"))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def run_once(tree: Path, workload: str, seed: int, pycache: Path) -> dict:
    """run.py's last output line, parsed; bytecode is written under `pycache`."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    done = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(SECONDS),
            "--trace", "0",
        ],
        cwd=tree,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} printed nothing")
    return json.loads(lines[-1])


def summarize(runs: list) -> dict:
    """The per-workload summary of a list of paired runs."""
    by_side = {side: [r for r in runs if r["side"] == side] for side in SIDES}
    by_seed = {}
    for r in runs:
        by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]
    pairs = [p for p in by_seed.values() if len(p) == 2]
    summary = {
        "pairs": len(pairs),
        "correct": all(r["result"]["correct"] for r in runs),
        "attempted": {s: sum(r["result"]["attempted"] for r in by_side[s]) for s in SIDES},
        "failed": {s: sum(r["result"]["failed"] for r in by_side[s]) for s in SIDES},
    }
    for metric, better in METRICS.items():
        values = {
            s: [r["result"]["metrics"][metric]["value"] for r in by_side[s]] for s in SIDES
        }
        if any(len(v) < 2 for v in values.values()):
            continue
        entry = {
            f"{s}_q1_median_q3": [
                round(q, 6) for q in statistics.quantiles(values[s], n=4, method="inclusive")
            ]
            for s in SIDES
        }
        parent_median = statistics.median(values["parent"])
        change_median = statistics.median(values["change"])
        entry["median_change"] = f"{(change_median / parent_median - 1) * 100:+.1f}%"
        wins = 0
        for pair in pairs:
            p, c = (pair[s]["metrics"][metric]["value"] for s in SIDES)
            wins += c > p if better == "higher" else c < p
        entry["change_better_pairs"] = f"{wins}/{len(pairs)}"
        summary[metric] = entry
    return summary


def machine() -> str:
    try:
        numpy = f", NumPy {importlib.metadata.version('numpy')}"
    except importlib.metadata.PackageNotFoundError:
        numpy = ""
    return (
        f"{os.cpu_count()}-vCPU {platform.system()}, Python "
        f"{platform.python_version()}{numpy}; one run at a time"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_tree", type=Path)
    parser.add_argument("change_tree", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--parent-rev", default="", help="recorded as `parent`")
    parser.add_argument("--what", default="", help="recorded as `what`")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims a gain on")
    args = parser.parse_args(argv)
    trees = {
        "parent": args.parent_tree.resolve(),
        "change": args.change_tree.resolve(),
    }
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {tree}")

    report = {
        "what": args.what,
        "command": (
            "python3 perfbench/run.py --workload WORKLOAD --seed SEED "
            f"--seconds {SECONDS} --trace 0"
        ),
        "parent": args.parent_rev,
        "machine": machine(),
        "order": (
            "pairs alternate which side runs first (ran_first); the parent "
            "runs first on the first, third, ... seed; each side compiles into "
            "its own PYTHONPYCACHEPREFIX, empty at the start of the session, "
            "with PYTHONDONTWRITEBYTECODE unset"
        ),
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        report["claimed"] = {"workload": workload, "metric": metric}
    report["seeds"] = {w: args.seeds for w in WORKLOADS}
    report["summary"] = {}
    report["runs"] = {w: [] for w in WORKLOADS}

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        pycache = {side: Path(tmp, side) for side in SIDES}
        for path in pycache.values():
            path.mkdir()
        for workload in WORKLOADS:
            for i, seed in enumerate(args.seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for first, side in zip((True, False), order):
                    try:
                        result = run_once(trees[side], workload, seed, pycache[side])
                    except (RuntimeError, json.JSONDecodeError) as err:
                        print(f"{side} {workload} seed {seed}: {err}", file=sys.stderr)
                        return 1
                    report["runs"][workload].append(
                        {"seed": seed, "side": side, "ran_first": first, "result": result}
                    )
                    value = result["metrics"]["decided_per_s"]["value"]
                    print(
                        f"{workload} seed {seed} {side}: decided_per_s {value:.2f}",
                        flush=True,
                    )
                report["summary"][workload] = summarize(report["runs"][workload])
                args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
