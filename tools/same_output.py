"""Same-behaviour check: `motifkit solve` under two source trees, cell by cell.

    python3 tools/same_output.py PARENT_SRC CHANGE_SRC --seed N [--limit S]

PARENT_SRC and CHANGE_SRC are directories that hold a `motifkit` package
(a checkout's `src`).  The script builds the three benchmark corpora for the
seed with `perfbench/corpus.py` into a temporary directory, from PARENT_SRC's
generators, and runs `motifkit solve` on every file under each side, one
subprocess per cell with a time limit of S seconds (default 5):

    dense-clique  --algo dist-clique
    sparse-paths  --algo maxleaf
    auto-mixed    auto, vc, cocluster, dist-clique and maxleaf

A cell is identical when both sides finish with the same stdout, stderr and
exit code.  The script prints how many cells are identical, how many differ
and how many timed out on one side or on both, and names every cell that
differs or timed out on one side only.  It exits 1 if any cell finished on
both sides with different output, 0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CELLS = {
    "dense-clique": [["--algo", "dist-clique"]],
    "sparse-paths": [["--algo", "maxleaf"]],
    "auto-mixed": [
        [],
        ["--algo", "vc"],
        ["--algo", "cocluster"],
        ["--algo", "dist-clique"],
        ["--algo", "maxleaf"],
    ],
}


def build_corpora(src: Path, seed: int, out: Path) -> None:
    for workload in CELLS:
        subprocess.run(
            [
                sys.executable,
                str(ROOT / "perfbench" / "corpus.py"),
                "--workload", workload,
                "--seed", str(seed),
                "--out", str(out / workload),
                "--src", str(src),
            ],
            check=True,
            stdout=subprocess.DEVNULL,
        )


def solve(src: Path, path: Path, argv: list, limit: float, cwd: str):
    """(exit code, stdout, stderr) of one solve, or None if it timed out."""
    env = dict(os.environ, PYTHONPATH=str(src))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "motifkit.cli", "solve", str(path), *argv],
            capture_output=True,
            text=True,
            timeout=limit,
            env=env,
            cwd=cwd,
        )
    except subprocess.TimeoutExpired:
        return None
    return done.returncode, done.stdout, done.stderr


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

    counts = {"identical": 0, "differ": 0, "timeout one side": 0, "timeout both": 0}
    with tempfile.TemporaryDirectory(prefix="same-output-") as tmp:
        corpora = Path(tmp)
        build_corpora(sides[0], args.seed, corpora)
        for workload, algo_args in CELLS.items():
            for path in sorted((corpora / workload).glob("*.gm")):
                for cell_argv in algo_args:
                    parent, change = [
                        solve(src, path, cell_argv, args.limit, tmp) for src in sides
                    ]
                    cell = f"{workload}/{path.name} {' '.join(cell_argv) or 'auto'}"
                    if parent is None and change is None:
                        counts["timeout both"] += 1
                    elif parent is None or change is None:
                        counts["timeout one side"] += 1
                        side = "parent" if parent is None else "change"
                        print(f"timeout on {side} only: {cell}")
                    elif parent == change:
                        counts["identical"] += 1
                    else:
                        counts["differ"] += 1
                        print(f"differs: {cell}\n  parent {parent!r}\n  change {change!r}")
    print(f"seed {args.seed}, limit {args.limit:g} s per cell")
    for name, count in counts.items():
        print(f"{name}: {count}")
    return 1 if counts["differ"] else 0


if __name__ == "__main__":
    sys.exit(main())
