"""Command-line front end: solve, verify, generate, params, bench.

Exit codes: 0 = YES / success, 1 = NO / disagreement, 2 = parse or usage
error, 3 = capacity exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
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
    parse_reduced,
    parse_witness,
    witness_failure,
)
from .estimators import (
    degree3_decomposition,
    degree3_vertices,
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
from .solvers.co_cluster import kernel_calls
from .solvers.common import count_guesses, guess_space

EXIT_YES = 0
EXIT_NO = 1
EXIT_PARSE = 2
EXIT_CAPACITY = 3


def _read_text(path: str, name: Optional[str] = None) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {name or path}: {exc}") from None


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

# The deletion-set parameters, as (solver, parameter, auto's probe cap, its
# search's obstacle size, estimate(graph, limit)), in auto's probe order; auto
# breaks ties by `TIE_ORDER`, the order of the per-guess kernel costs.
# Solvers and estimators are looked up by name at call time, so that wrappers
# bound to those names (perfbench's traced run) see every call.
DELETION_SETS = (
    ("dist-clique", "distance-to-clique", 10, 2, lambda g, k: dist_to_clique_set(g, k)),
    ("vc", "vertex-cover", 10, 2, lambda g, k: min_vertex_cover(g, k)),
    ("cocluster", "distance-to-co-cluster", 7, 3,
     lambda g, k: dist_to_co_cluster_set(g, k)),
)
TIE_ORDER = ("dist-clique", "maxleaf", "vc", "cocluster", *COVERS)


def _auto_pick(
    inst: Instance, covers: Dict[str, Cover]
) -> Tuple[str, str, int, Structure]:
    """(algorithm, parameter name, value, the deletion set or cover the value
    counts, handed on to the solver) with the fewest predicted guesses:
    `count_guesses` over `inst.pruned_components`, times `kernel_calls` for
    cocluster, or 2^c - 1 families for a cover of c cliques.  The probes run
    after maxleaf's and the covers' predictions, in `DELETION_SETS` order while
    the best is over 1, each capped at the larger of its own cap and the largest
    k with b^k at most the best, b its obstacle size (a probe capped at k
    explores about b^k branch nodes).  Ties go by `TIE_ORDER`."""
    g = inst.graph

    def predict(algo: str, structure: Structure) -> int:
        total = 0
        for sub, ids in inst.pruned_components:
            s = (degree3_vertices(sub.graph) if algo == "maxleaf"
                 else {i for i, v in enumerate(ids) if v in structure})
            guesses = count_guesses(sub, *guess_space(sub, s))
            if algo == "cocluster" and guesses:
                guesses *= kernel_calls(sub, s)
            total += guesses
        return total

    # (prediction, algorithm, parameter, value, structure)
    picks = [(2 ** len(cover) - 1, algo, COVERS[algo], len(cover), cover)
             for algo, cover in covers.items()]
    picks.append((predict("maxleaf", None), "maxleaf", "degree3-vertices",
                  len(degree3_vertices(g)), None))
    for algo, param, cap, obstacle, estimate in DELETION_SETS:
        best = min(pick[0] for pick in picks)
        if best <= 1:
            break
        limit = cap
        while obstacle ** (limit + 1) <= best:
            limit += 1
        found = estimate(g, limit)
        if found is not None:
            picks.append((predict(algo, found), algo, param, len(found), found))
    best = min(picks, key=lambda pick: (pick[0], TIE_ORDER.index(pick[1])))
    return best[1:]


def cmd_solve(args: argparse.Namespace) -> int:
    text = _read_text(args.instance)
    # A cover names input ids, so a solve given one reads the whole graph.
    if args.vertex_clique_cover or args.edge_clique_cover:
        inst = parse_instance(text)
        ids: Sequence[int] = range(inst.graph.n)
    else:
        inst, ids = parse_reduced(text)
    covers = _read_covers(args)
    # Checked here too, so that an invalid cover fails whatever `auto` picks.
    for algo, mode, name in (("vcc", "vertex-partition", "a vertex clique partition"),
                             ("ecc", "edge-cover", "an edge clique cover")):
        if algo in covers and not validate_clique_cover(inst.graph, covers[algo], mode):
            raise InputError(f"supplied family is not {name}")
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
        print(format_witness(map(ids.__getitem__, outcome.witness)), end="")
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


def _read_records(
    text: str, fields: Dict[str, Optional[int]], what: str, required: Sequence[str] = ()
) -> List[Tuple[str, List[int]]]:
    """(tag, integer fields) for every line of a source file, in order.

    `fields` gives each tag's field count (None: any number); `#` starts a
    comment.  Every tag in `required` must appear at least once.
    """
    records = []
    for raw in text.splitlines():
        rec = raw.split("#", 1)[0].split()
        if not rec:
            continue
        tag = rec[0]
        if tag not in fields:
            raise InputError(f"unknown record {tag!r} in {what} source")
        try:
            values = [int(f) for f in rec[1:]]
        except ValueError:
            raise InputError(f"non-integer field in record {rec!r}") from None
        if fields[tag] not in (None, len(values)):
            raise InputError(
                f"record {tag!r} takes {fields[tag]} fields, not {len(values)}"
            )
        records.append((tag, values))
    tags = {tag for tag, _ in records}
    if any(tag not in tags for tag in required):
        names = " and ".join(repr(tag) for tag in required)
        raise InputError(f"{what} source needs {names} lines")
    return records


def parse_x3c_sources(text: str) -> List[X3cInstance]:
    """`q <q>` starts an instance; `s <a> <b> <c>` adds a triple to it."""
    sources: List[Tuple[int, List[Tuple[int, ...]]]] = []
    for tag, values in _read_records(text, {"q": 1, "s": 3}, "exact-cover"):
        if tag == "q":
            sources.append((values[0], []))
        elif not sources:
            raise InputError("triple before any 'q' line")
        else:
            sources[-1][1].append(tuple(values))
    if not sources:
        raise InputError("source defines no instance")
    return [X3cInstance(q, tuple(triples)) for q, triples in sources]


def parse_set_system(text: str) -> SetSystem:
    """`n <n>`, `t <t>`, and one `s <e...>` line per set."""
    records = _read_records(
        text, {"n": 1, "t": 1, "s": None}, "set-system", required=("n", "t")
    )
    last = dict(records)
    sets = tuple(tuple(values) for tag, values in records if tag == "s")
    return SetSystem(last["n"][0], sets, last["t"][0])


def parse_graph_budget(text: str) -> Tuple[Graph, int]:
    """`n <n>`, `t <t>`, and `e <u> <v>` lines."""
    records = _read_records(
        text, {"n": 1, "t": 1, "e": 2}, "graph", required=("n", "t")
    )
    last = dict(records)
    edges = [tuple(values) for tag, values in records if tag == "e"]
    return Graph(last["n"][0], edges), last["t"][0]


def parse_partitioned_graph(text: str) -> PartitionedGraph:
    """`k <k>`, `t <t>`, `e <u> <v>`, optional `pattern <i> <j>` lines."""
    records = _read_records(
        text, {"k": 1, "t": 1, "e": 2, "pattern": 2}, "partitioned", required=("k", "t")
    )
    last = dict(records)
    edges = tuple(tuple(values) for tag, values in records if tag == "e")
    pattern = frozenset(tuple(values) for tag, values in records if tag == "pattern")
    return PartitionedGraph(
        last["k"][0], last["t"][0], edges, pattern if "pattern" in last else None
    )


def _one_x3c(text: str, args: argparse.Namespace) -> X3cInstance:
    sources = parse_x3c_sources(text)
    if len(sources) != 1:
        raise InputError(f"{args.reduction} takes exactly one source instance")
    return sources[0]


def _domset_gadget(text: str, args: argparse.Namespace) -> GeneratedInstance:
    if args.root is None:
        raise InputError("domset-gadget needs --root")
    return gen_domset_gadget(parse_instance(text), args.root)


# Every reduction `generate` offers, called with the source file's text and
# the parsed command line.
REDUCTIONS: Dict[str, Callable[[str, argparse.Namespace], GeneratedInstance]] = {
    "x3c-paths": lambda text, args: gen_x3c_paths(_one_x3c(text, args)),
    "x3c-comb": lambda text, args: gen_x3c_comb(_one_x3c(text, args)),
    "x3c-superstar": lambda text, args: gen_x3c_superstar_cliques(
        _one_x3c(text, args)
    ),
    "domset-gadget": _domset_gadget,
    "domset": lambda text, args: gen_domset_reduction(
        *parse_graph_budget(text), args.variant
    ),
    "hitting-set": lambda text, args: gen_hitting_set_split(parse_set_system(text)),
    "set-cover": lambda text, args: gen_set_cover_split(parse_set_system(text)),
    "mcc-star": lambda text, args: gen_mcc_star(parse_partitioned_graph(text)),
    "or-composition": lambda text, args: gen_or_composition(
        parse_x3c_sources(text), colorful=args.colorful
    ),
}


def _write_texts(texts: Dict[str, str]) -> None:
    """Write each text to its path, or, if any write fails, none of them.

    Each text goes to a temporary file beside its path first; the files are
    renamed into place only once all of them are written.
    """
    temps = {path: f"{path}.{os.getpid()}.tmp" for path in texts}
    made: List[str] = []  # files to remove again if a step fails
    try:
        for path, text in texts.items():
            with open(temps[path], "x") as out:
                made.append(temps[path])
                out.write(text)
        for path in texts:
            os.replace(temps[path], path)
            made.append(path)
    except OSError as exc:
        for name in made:
            with contextlib.suppress(OSError):
                os.remove(name)
        raise InputError(f"cannot write {path}: {exc}") from None


def cmd_generate(args: argparse.Namespace) -> int:
    certificate = args.certificate or args.output + ".cert"
    if os.path.realpath(certificate) == os.path.realpath(args.output):
        raise InputError(f"--certificate and --output both name {args.output}")
    generated = REDUCTIONS[args.reduction](_read_text(args.source), args)
    comment = f"generated by reduction {args.reduction}"
    _write_texts({
        args.output: format_instance(generated.instance, comment),
        certificate: format_certificate(generated),
    })
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
    for _, param, _, _, estimate in sorted(DELETION_SETS, key=lambda p: p[0] != "vc"):
        found = estimate(g, args.limit)
        print(f"{param} {f'> {args.limit}' if found is None else len(found)}")
    print(f"degree3-vertices {len(degree3_vertices(g))}")
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


def _bench_cell(job: Tuple[str, str, float]) -> Tuple[str, str, str, float, str]:
    """(file, algo, answer, seconds, error); the answer is `ERR`, with the
    parser's message, when the file does not parse, and with the exception,
    when the solver raises one other than a timeout or a `CapacityError`."""
    path, algo, timeout = job
    try:
        # The error line names the path already.
        inst, _ = parse_reduced(_read_text(path, "file"))
    except InputError as exc:
        return path, algo, "ERR", 0.0, str(exc)
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
    start, error = time.perf_counter(), ""
    try:
        outcome = SOLVERS[algo](inst, structure)
        answer = "YES" if outcome.is_yes else "NO"
    except TimeoutError:
        answer = "TO"
    except CapacityError:
        answer = "CAP"
    except Exception as exc:  # noqa: BLE001 - it fails this cell, not the run
        answer, error = "ERR", f"{algo}: {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    return path, algo, answer, time.perf_counter() - start, error


def cmd_bench(args: argparse.Namespace) -> int:
    # NaN, inf and values past about 9.2e9 s make setitimer raise in a worker.
    if not args.timeout <= 1e9:
        raise InputError(f"--timeout must be at most 1e9 seconds, not {args.timeout}")
    directory = Path(args.directory)
    if not directory.is_dir():
        raise InputError(f"{args.directory} is not a directory")
    paths = sorted(str(p) for p in directory.glob("*.gm"))
    algos = list(dict.fromkeys(args.algo))  # each once, in order
    jobs = [(path, algo, args.timeout) for path in paths for algo in algos]
    results: Dict[Tuple[str, str], Tuple[str, float]] = {}
    errors: Dict[str, None] = {}  # each message once, in order
    if args.timeout <= 0:
        for path, algo, _ in jobs:
            results[(path, algo)] = ("TO", 0.0)
    elif jobs:
        workers = min(len(jobs), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for path, algo, answer, seconds, error in pool.map(_bench_cell, jobs):
                results[(path, algo)] = (answer, seconds)
                if error:
                    errors[f"{path}: {error}"] = None
    for error in errors:
        print(f"error: {error}", file=sys.stderr)

    disagreement = False
    print(f"{'instance':<28} {'algo':<12} {'answer':<6} {'time':>8}  agreement")
    for path in paths:
        name = os.path.basename(path)
        answers = {
            results[(path, algo)][0]
            for algo in algos
            if results[(path, algo)][0] not in ("TO", "CAP", "ERR")
        }
        status = "agree" if len(answers) <= 1 else "differ"
        if status == "differ":
            disagreement = True
        for algo in algos:
            answer, seconds = results[(path, algo)]
            print(f"{name:<28} {algo:<12} {answer:<6} {seconds:>8.3f}  {status}")
    if errors:
        return EXIT_PARSE
    return EXIT_NO if disagreement else EXIT_YES


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: `main` may run many
    times in one (perfbench's worker, the tests, library callers)."""
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
