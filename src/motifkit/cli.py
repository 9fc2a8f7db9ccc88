"""Command-line front end: solve, verify, generate, params, bench.

Exit codes: 0 = YES / success, 1 = NO / disagreement, 2 = parse or usage
error, 3 = capacity exceeded.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from .core import (
    CapacityError,
    Graph,
    InputError,
    Instance,
    SolveOutcome,
    format_instance,
    format_witness,
    parse_instance,
    parse_witness,
    witness_failure,
)
from .estimators import (
    degree3_decomposition,
    dist_to_clique_set,
    dist_to_co_cluster_set,
    greedy_vertex_clique_cover,
    min_vertex_cover,
    validate_clique_cover,
)
from .generators import (
    GeneratedInstance,
    PartitionedGraph,
    SetSystem,
    X3cInstance,
    format_certificate,
    gen_domset_gadget,
    gen_domset_reduction,
    gen_hitting_set_split,
    gen_mcc_star,
    gen_or_composition,
    gen_set_cover_split,
    gen_x3c_comb,
    gen_x3c_paths,
    gen_x3c_superstar_cliques,
)
from .solvers import (
    solve_brute,
    solve_co_cluster,
    solve_dist_clique,
    solve_edge_clique_cover,
    solve_max_leaf_xp,
    solve_vertex_cover,
    solve_vertex_clique_cover,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_PARSE = 2
EXIT_CAPACITY = 3


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _parse_cover_file(text: str) -> List[List[int]]:
    """One clique per line, whitespace-separated vertex ids."""
    cover = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            cover.append([int(f) for f in line.split()])
        except ValueError:
            raise InputError(f"bad cover line {line!r}") from None
    if not cover:
        raise InputError("cover file lists no cliques")
    return cover


Cover = List[List[int]]

# The clique-cover parameters, by the solver that takes each; the option that
# supplies the cover has the parameter's name.
COVERS = {"vcc": "vertex-clique-cover", "ecc": "edge-clique-cover"}


def _read_covers(args: argparse.Namespace) -> Dict[str, Cover]:
    """The clique covers given on the command line, by solver."""
    paths = {"vcc": args.vertex_clique_cover, "ecc": args.edge_clique_cover}
    return {algo: _parse_cover_file(_read_text(p)) for algo, p in paths.items() if p}


# What a solver is handed: a deletion set, a clique cover, or None.
Structure = Union[Set[int], Cover, None]

# Every solver, called as solver(inst, structure).  Given None, the
# dist-clique, vc and cocluster solvers find their own deletion set.
SOLVERS: Dict[str, Callable[[Instance, Structure], SolveOutcome]] = {
    "brute": lambda inst, structure: solve_brute(inst),
    "dist-clique": lambda inst, structure: solve_dist_clique(inst, structure),
    "vc": lambda inst, structure: solve_vertex_cover(inst, structure),
    "ecc": lambda inst, structure: solve_edge_clique_cover(inst, structure),
    "vcc": lambda inst, structure: solve_vertex_clique_cover(inst, structure),
    "cocluster": lambda inst, structure: solve_co_cluster(inst, structure),
    "maxleaf": lambda inst, structure: solve_max_leaf_xp(inst),
}

# The deletion-set parameters, as (solver, parameter, auto's probe cap,
# estimate(graph, limit)); the order breaks auto's ties.  Solvers and
# estimators are looked up by name at call time, so that wrappers bound to
# those names (perfbench's traced run) see every call.
DELETION_SETS = (
    ("dist-clique", "distance-to-clique", 10,
     lambda g, limit: dist_to_clique_set(g, limit)),
    ("vc", "vertex-cover", 10,
     lambda g, limit: min_vertex_cover(g, limit)),
    ("cocluster", "distance-to-co-cluster", 7,
     lambda g, limit: dist_to_co_cluster_set(g, limit)),
)


def _auto_pick(
    inst: Instance, covers: Dict[str, Cover]
) -> Tuple[str, str, int, Structure]:
    """Choose the algorithm with the cheapest estimated parameter.

    Returns (algorithm, parameter name, parameter value, structure), where
    the structure is the deletion set or cover the value counts, handed on
    to the solver (None for maxleaf).  Ties go to the earlier entry.  The
    brute solver is never a candidate.
    """
    g = inst.graph
    big = g.n + 1  # sentinel for "probe limit exceeded"
    candidates: List[Tuple[int, str, str, Structure]] = []
    for algo, param, cap, estimate in DELETION_SETS:
        found = estimate(g, cap)
        candidates.append((big if found is None else len(found), algo, param, found))
    degree3 = sum(1 for v in range(g.n) if g.degree(v) >= 3)
    candidates.append((degree3, "maxleaf", "degree3-vertices", None))
    for algo, cover in covers.items():
        candidates.append((len(cover), algo, COVERS[algo], cover))
    value, algo, param, structure = min(candidates, key=lambda c: c[0])
    return algo, param, value, structure


def cmd_solve(args: argparse.Namespace) -> int:
    inst = parse_instance(_read_text(args.instance))
    covers = _read_covers(args)
    algo = args.algo
    if algo == "auto":
        algo, param, value, structure = _auto_pick(inst, covers)
        print(f"auto: {algo} ({param} = {value})", file=sys.stderr)
    elif algo in COVERS and algo not in covers:
        raise InputError(f"--algo {algo} needs --{COVERS[algo]}")
    else:
        structure = covers.get(algo)
    outcome = SOLVERS[algo](inst, structure)
    if outcome.is_yes:
        print("YES")
        print(format_witness(outcome.witness), end="")
        return EXIT_YES
    print("NO")
    return EXIT_NO


def cmd_verify(args: argparse.Namespace) -> int:
    inst = parse_instance(_read_text(args.instance))
    failure = witness_failure(inst, parse_witness(_read_text(args.witness)))
    print(failure or "OK")
    return EXIT_YES if failure is None else EXIT_NO


# ---------------------------------------------------------------------------
# Source-file grammars for `generate`


def _parse_records(text: str) -> List[List[str]]:
    records = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            records.append(line.split())
    return records


def _int_fields(rec: Sequence[str]) -> List[int]:
    try:
        return [int(f) for f in rec[1:]]
    except ValueError:
        raise InputError(f"non-integer field in record {rec!r}") from None


def parse_x3c_sources(text: str) -> List[X3cInstance]:
    """`q <q>` starts an instance; `s <a> <b> <c>` adds a triple to it."""
    out: List[X3cInstance] = []
    q: Optional[int] = None
    triples: List[Tuple[int, int, int]] = []

    def flush() -> None:
        if q is not None:
            out.append(X3cInstance(q, tuple(triples)))

    for rec in _parse_records(text):
        if rec[0] == "q":
            flush()
            (q,) = _int_fields(rec)
            triples = []
        elif rec[0] == "s":
            if q is None:
                raise InputError("triple before any 'q' line")
            a, b, c = _int_fields(rec)
            triples.append((a, b, c))
        else:
            raise InputError(f"unknown record {rec[0]!r} in exact-cover source")
    flush()
    if not out:
        raise InputError("source defines no instance")
    return out


def parse_set_system(text: str) -> SetSystem:
    """`n <n>`, `t <t>`, and one `s <e...>` line per set."""
    n = budget = None
    sets: List[Tuple[int, ...]] = []
    for rec in _parse_records(text):
        if rec[0] == "n":
            (n,) = _int_fields(rec)
        elif rec[0] == "t":
            (budget,) = _int_fields(rec)
        elif rec[0] == "s":
            sets.append(tuple(_int_fields(rec)))
        else:
            raise InputError(f"unknown record {rec[0]!r} in set-system source")
    if n is None or budget is None:
        raise InputError("set-system source needs 'n' and 't' lines")
    return SetSystem(n, tuple(sets), budget)


def parse_graph_budget(text: str) -> Tuple[Graph, int]:
    """`n <n>`, `t <t>`, and `e <u> <v>` lines."""
    n = budget = None
    edges: List[Tuple[int, int]] = []
    for rec in _parse_records(text):
        if rec[0] == "n":
            (n,) = _int_fields(rec)
        elif rec[0] == "t":
            (budget,) = _int_fields(rec)
        elif rec[0] == "e":
            u, v = _int_fields(rec)
            edges.append((u, v))
        else:
            raise InputError(f"unknown record {rec[0]!r} in graph source")
    if n is None or budget is None:
        raise InputError("graph source needs 'n' and 't' lines")
    return Graph(n, edges), budget


def parse_partitioned_graph(text: str) -> PartitionedGraph:
    """`k <k>`, `t <t>`, `e <u> <v>`, optional `pattern <i> <j>` lines."""
    k = t = None
    edges: List[Tuple[int, int]] = []
    pattern: List[Tuple[int, int]] = []
    saw_pattern = False
    for rec in _parse_records(text):
        if rec[0] == "k":
            (k,) = _int_fields(rec)
        elif rec[0] == "t":
            (t,) = _int_fields(rec)
        elif rec[0] == "e":
            u, v = _int_fields(rec)
            edges.append((u, v))
        elif rec[0] == "pattern":
            i, j = _int_fields(rec)
            pattern.append((i, j))
            saw_pattern = True
        else:
            raise InputError(f"unknown record {rec[0]!r} in partitioned source")
    if k is None or t is None:
        raise InputError("partitioned source needs 'k' and 't' lines")
    return PartitionedGraph(
        k, t, tuple(edges), frozenset(pattern) if saw_pattern else None
    )


REDUCTIONS = (
    "x3c-paths",
    "x3c-comb",
    "x3c-superstar",
    "domset-gadget",
    "domset",
    "hitting-set",
    "set-cover",
    "mcc-star",
    "or-composition",
)


def _generate(args: argparse.Namespace) -> GeneratedInstance:
    text = _read_text(args.source)
    name = args.reduction
    if name in ("x3c-paths", "x3c-comb", "x3c-superstar"):
        sources = parse_x3c_sources(text)
        if len(sources) != 1:
            raise InputError(f"{name} takes exactly one source instance")
        gen = {
            "x3c-paths": gen_x3c_paths,
            "x3c-comb": gen_x3c_comb,
            "x3c-superstar": gen_x3c_superstar_cliques,
        }[name]
        return gen(sources[0])
    if name == "or-composition":
        return gen_or_composition(parse_x3c_sources(text), colorful=args.colorful)
    if name == "domset-gadget":
        if args.root is None:
            raise InputError("domset-gadget needs --root")
        return gen_domset_gadget(parse_instance(text), args.root)
    if name == "domset":
        h, budget = parse_graph_budget(text)
        return gen_domset_reduction(h, budget, args.variant)
    if name == "hitting-set":
        return gen_hitting_set_split(parse_set_system(text))
    if name == "set-cover":
        return gen_set_cover_split(parse_set_system(text))
    if name == "mcc-star":
        return gen_mcc_star(parse_partitioned_graph(text))
    raise InputError(f"unknown reduction {name!r}")


def cmd_generate(args: argparse.Namespace) -> int:
    generated = _generate(args)
    comment = f"generated by reduction {args.reduction}"
    Path(args.output).write_text(format_instance(generated.instance, comment))
    cert_path = args.certificate or args.output + ".cert"
    Path(cert_path).write_text(format_certificate(generated))
    for warning in generated.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    g = generated.instance.graph
    print(f"wrote {args.output} ({g.n} vertices, {g.num_edges()} edges)")
    return EXIT_YES


def cmd_params(args: argparse.Namespace) -> int:
    if args.limit is not None and args.limit < 0:
        raise InputError(f"--limit must be at least 0, not {args.limit}")
    inst = parse_instance(_read_text(args.instance))
    covers = _read_covers(args)
    g = inst.graph
    # The vertex cover is listed first, ahead of the other deletion sets.
    for _, param, _, estimate in sorted(DELETION_SETS, key=lambda p: p[0] != "vc"):
        found = estimate(g, args.limit)
        print(f"{param} {f'> {args.limit}' if found is None else len(found)}")
    print(f"degree3-vertices {sum(1 for v in range(g.n) if g.degree(v) >= 3)}")
    try:
        paths = str(len(degree3_decomposition(g)[1]))
    except InputError:
        paths = "-"
    print(f"paths-outside-degree3-set {paths}")
    for algo, mode in (("ecc", "edge-cover"), ("vcc", "vertex-partition")):
        if algo in covers:
            valid = validate_clique_cover(g, covers[algo], mode)
            print(f"supplied-{mode} {'valid' if valid else 'invalid'}")
    return EXIT_YES


# ---------------------------------------------------------------------------
# Benchmark harness


def _bench_cell(job: Tuple[str, str, float]) -> Tuple[str, str, str, float]:
    path, algo, timeout = job
    inst = parse_instance(Path(path).read_text())
    structure: Structure = None
    if algo == "vcc":
        structure = greedy_vertex_clique_cover(inst.graph)
    if algo == "ecc":
        edges = inst.graph.edges()
        structure = [list(e) for e in edges] or [[v] for v in range(inst.graph.n)]

    def on_alarm(signum, frame):
        raise TimeoutError

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    start = time.perf_counter()
    try:
        outcome = SOLVERS[algo](inst, structure)
        answer = "YES" if outcome.is_yes else "NO"
    except TimeoutError:
        answer = "TO"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    return (os.path.basename(path), algo, answer, time.perf_counter() - start)


def cmd_bench(args: argparse.Namespace) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise InputError(f"{args.directory} is not a directory")
    paths = sorted(str(p) for p in directory.glob("*.gm"))
    algos = args.algo
    jobs = [(path, algo, args.timeout) for path in paths for algo in algos]
    env_cap = os.environ.get("MOTIF_KIT_THREADS")
    try:
        thread_cap = int(env_cap) if env_cap else len(jobs)
    except ValueError:
        raise InputError(f"MOTIF_KIT_THREADS is not an integer: {env_cap!r}") from None
    results: Dict[Tuple[str, str], Tuple[str, float]] = {}
    if args.timeout <= 0:
        for path, algo, _ in jobs:
            results[(os.path.basename(path), algo)] = ("TO", 0.0)
    elif jobs:
        workers = min(len(jobs), os.cpu_count() or 1, thread_cap)
        with ProcessPoolExecutor(max_workers=max(1, workers)) as pool:
            for name, algo, answer, seconds in pool.map(_bench_cell, jobs):
                results[(name, algo)] = (answer, seconds)

    disagreement = False
    print(f"{'instance':<28} {'algo':<12} {'answer':<6} {'time':>8}  agreement")
    for path in paths:
        name = os.path.basename(path)
        answers = {
            results[(name, algo)][0]
            for algo in algos
            if results[(name, algo)][0] != "TO"
        }
        status = "agree" if len(answers) <= 1 else "differ"
        if status == "differ":
            disagreement = True
        for algo in algos:
            answer, seconds = results[(name, algo)]
            print(f"{name:<28} {algo:<12} {answer:<6} {seconds:>8.3f}  {status}")
    return EXIT_NO if disagreement else EXIT_YES


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motifkit",
        description="Exact solvers and hard-instance generators for Graph Motif.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="decide an instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--algo", default="auto", choices=("auto", *SOLVERS))
    p_solve.add_argument("--vertex-clique-cover")
    p_solve.add_argument("--edge-clique-cover")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="check a witness file")
    p_verify.add_argument("instance")
    p_verify.add_argument("witness")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("generate", help="emit a reduction instance")
    p_gen.add_argument("reduction", choices=REDUCTIONS)
    p_gen.add_argument("source")
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.add_argument("--certificate")
    p_gen.add_argument("--variant", default="cluster", choices=("cluster", "tree"))
    p_gen.add_argument("--colorful", action="store_true")
    p_gen.add_argument("--root", type=int)
    p_gen.set_defaults(func=cmd_generate)

    p_params = sub.add_parser("params", help="report structural parameters")
    p_params.add_argument("instance")
    p_params.add_argument("--vertex-clique-cover")
    p_params.add_argument("--edge-clique-cover")
    p_params.add_argument(
        "--limit",
        type=int,
        help="cap the deletion-set searches; larger parameters print as '> limit'",
    )
    p_params.set_defaults(func=cmd_params)

    p_bench = sub.add_parser("bench", help="run algorithms over a directory")
    p_bench.add_argument("directory")
    p_bench.add_argument(
        "--algo", nargs="+", default=["brute", "vc"], choices=SOLVERS
    )
    p_bench.add_argument("--timeout", type=float, default=60.0)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
