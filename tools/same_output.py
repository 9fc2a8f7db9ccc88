"""Same-behaviour check: `motifkit solve` and `params` under two source trees,
cell by cell.

    python3 tools/same_output.py PARENT_SRC CHANGE_SRC --seed N [--limit S]

PARENT_SRC and CHANGE_SRC are directories that hold a `motifkit` package
(a checkout's `src`).  The script builds the three benchmark corpora for the
seed with `perfbench/corpus.py` into a temporary directory, once from each
side's generators, and prints each workload's `corpus_sha256` for both sides.
It then runs `motifkit` on every file of PARENT_SRC's corpora under each
side, one subprocess per cell with a time limit of S seconds (default 5):

    dense-clique  solve --algo dist-clique
    sparse-paths  solve --algo maxleaf
    auto-mixed    solve with auto, vc, cocluster, dist-clique and maxleaf;
                  solve with auto and a vertex clique cover file;
                  solve --algo vcc and --algo ecc with a cover file;
                  params, and params --limit 7

`params` prints the deletion-set estimators' sizes, so its cells compare the
estimators themselves, uncapped and capped.  The cover files are written
once per file of each corpus, with PARENT_SRC's `motifkit`, as `motifkit bench` builds its
covers: `greedy_vertex_clique_cover` for vcc, and the edges (one vertex
per clique on an edgeless graph) for ecc.  Many vcc and ecc cells run to
the limit: at 3 s, 20 of 42 ecc cells and 11 of 42 vcc cells did not
finish, so these cells add about 5 minutes at the default limit.

A cell is identical when both sides finish with the same stdout, stderr and
exit code.  The script prints how many cells are identical, how many differ
and how many timed out on one side or on both, and names every cell that
differs or timed out on one side only; for the latter it gives the seconds
the other side took.  Under each cell that differs, it says whether the two
sides' verdict lines (the first line of stdout) and exit codes match, and,
for each side that answers YES, whether its witness passes `motifkit
verify` under PARENT_SRC.  A cell is also counted, and named with both sides'
seconds, as `near limit` when a side finished but took more than half the
limit: such a cell can time out on either side from one run to the next.
It exits 1 if a workload's corpus hash differs between the sides or any
cell finished on both sides with different output, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Per workload, each cell's command and its arguments after the file.
CELLS = {
    "dense-clique": [["solve", "--algo", "dist-clique"]],
    "sparse-paths": [["solve", "--algo", "maxleaf"]],
    "auto-mixed": [
        ["solve"],
        ["solve", "--vertex-clique-cover", "{vcc}"],
        ["solve", "--algo", "vc"],
        ["solve", "--algo", "cocluster"],
        ["solve", "--algo", "dist-clique"],
        ["solve", "--algo", "maxleaf"],
        ["solve", "--algo", "vcc", "--vertex-clique-cover", "{vcc}"],
        ["solve", "--algo", "ecc", "--edge-clique-cover", "{ecc}"],
        ["params"],
        ["params", "--limit", "7"],
    ],
}


def build_corpora(src: Path, seed: int, out: Path) -> dict:
    """Write the corpora under out/WORKLOAD; their hashes by workload."""
    hashes = {}
    for workload in CELLS:
        done = subprocess.run(
            [
                sys.executable,
                str(ROOT / "perfbench" / "corpus.py"),
                "--workload", workload,
                "--seed", str(seed),
                "--out", str(out / workload),
                "--src", str(src),
            ],
            check=True,
            stdout=subprocess.PIPE,
            text=True,
        )
        hashes[workload] = json.loads(done.stdout)["corpus_sha256"]
    return hashes


COVERS = ("vcc", "ecc")
# Writes, for each instance file, NAME.vcc and NAME.ecc into a directory.
COVER_SCRIPT = """
import sys
from pathlib import Path
from motifkit.core import parse_instance
from motifkit.estimators import greedy_vertex_clique_cover

out = Path(sys.argv[1])
for name in sys.argv[2:]:
    g = parse_instance(Path(name).read_text()).graph
    edges = [list(e) for e in g.edges()] or [[v] for v in range(g.n)]
    for kind, cover in (("vcc", greedy_vertex_clique_cover(g)), ("ecc", edges)):
        text = "".join(" ".join(map(str, clique)) + "\\n" for clique in cover)
        (out / f"{Path(name).stem}.{kind}").write_text(text)
"""


def write_covers(src: Path, paths: list, out: Path) -> None:
    """Each instance file's cover files, built with `src`."""
    out.mkdir(parents=True)
    subprocess.run(
        [sys.executable, "-c", COVER_SCRIPT, str(out), *map(str, paths)],
        check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )


def run_cell(src: Path, path: Path, argv: list, limit: float, cwd: str):
    """((exit code, stdout, stderr), seconds) of one command; (None, None)
    if it timed out."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "motifkit.cli", argv[0], str(path), *argv[1:]],
            capture_output=True,
            text=True,
            timeout=limit,
            env=env,
            cwd=cwd,
        )
    except subprocess.TimeoutExpired:
        return None, None
    return (done.returncode, done.stdout, done.stderr), time.perf_counter() - start


def verify_witness(src: Path, path: Path, stdout: str, cwd: str) -> str:
    """What `motifkit verify`, run under `src`, says of the witness that a
    YES answer's stdout holds: `OK` or the failure."""
    witness = Path(cwd) / "witness.txt"
    witness.write_text(stdout.split("\n", 1)[1])
    done = subprocess.run(
        [sys.executable, "-m", "motifkit.cli", "verify", str(path), str(witness)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        cwd=cwd,
    )
    return done.stdout.strip()


def explain(src: Path, path: Path, parent: tuple, change: tuple, cwd: str) -> list:
    """The lines printed under a cell that differs; each side is its
    (exit code, stdout, stderr)."""
    verdicts = [side[1].split("\n", 1)[0] for side in (parent, change)]
    same = verdicts[0] == verdicts[1] and parent[0] == change[0]
    lines = [f"  verdict and exit code: {'same' if same else 'DIFFER'}"]
    for name, (_, stdout, _) in (("parent", parent), ("change", change)):
        if stdout.startswith("YES\n"):
            answer = verify_witness(src, path, stdout, cwd)
            verdict = "verifies" if answer == "OK" else f"fails ({answer})"
            lines.append(f"  {name} witness: {verdict}")
    return lines


def _took(seconds) -> str:
    return "timeout" if seconds is None else f"{seconds:.2f} s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--limit", type=float, default=5.0, help="seconds per cell")
    args = parser.parse_args(argv)
    sides = [args.parent_src.resolve(), args.change_src.resolve()]
    for src in sides:
        if not (src / "motifkit" / "__init__.py").is_file():
            parser.error(f"no motifkit package under {src}")

    counts = {
        "identical": 0,
        "differ": 0,
        "timeout one side": 0,
        "timeout both": 0,
        "near limit": 0,
    }
    with tempfile.TemporaryDirectory(prefix="same-output-") as tmp:
        corpora = Path(tmp) / "parent"
        hashes = [
            build_corpora(src, args.seed, Path(tmp) / name)
            for src, name in zip(sides, ("parent", "change"))
        ]
        for workload in CELLS:
            parent, change = (h[workload] for h in hashes)
            verdict = "equal" if parent == change else "DIFFER"
            print(f"corpus {workload}: {verdict} parent {parent} change {change}")
        for workload, algo_args in CELLS.items():
            paths = sorted((corpora / workload).glob("*.gm"))
            covers = Path(tmp) / "covers" / workload
            write_covers(sides[0], paths, covers)
            for path in paths:
                cover = {kind: str(covers / f"{path.stem}.{kind}") for kind in COVERS}
                for cell_argv in algo_args:
                    filled = [arg.format(**cover) for arg in cell_argv]
                    (parent, parent_s), (change, change_s) = [
                        run_cell(src, path, filled, args.limit, tmp) for src in sides
                    ]
                    cell = f"{workload}/{path.name} {' '.join(cell_argv)}"
                    took = f"parent {_took(parent_s)}, change {_took(change_s)}"
                    if max(parent_s or 0, change_s or 0) > args.limit / 2:
                        counts["near limit"] += 1
                        print(f"near limit: {cell} ({took})")
                    if parent is None and change is None:
                        counts["timeout both"] += 1
                    elif parent is None or change is None:
                        counts["timeout one side"] += 1
                        side = "parent" if parent is None else "change"
                        print(f"timeout on {side} only: {cell} ({took})")
                    elif parent == change:
                        counts["identical"] += 1
                    else:
                        counts["differ"] += 1
                        print(f"differs: {cell}\n  parent {parent!r}\n  change {change!r}")
                        print("\n".join(explain(sides[0], path, parent, change, tmp)))
    print(f"seed {args.seed}, limit {args.limit:g} s per cell")
    for name, count in counts.items():
        print(f"{name}: {count}")
    return 1 if counts["differ"] or hashes[0] != hashes[1] else 0


if __name__ == "__main__":
    sys.exit(main())
