"""Seeded, certified instance corpus for the motifkit benchmark.

Every instance comes from a `motifkit.generators` reduction, and its expected
answer comes from the source-side brute force the generators carry
(`has_exact_cover`, `domset_brute`, `has_hitting_set`, `has_set_cover`,
`has_pattern_clique`), or from the OR of those over the sources composed
into one graph.  The program under test only ever sees the written `.gm` files.

The slot tables below fix, per workload, which family, which size and which
expected answer each instance has; the seed only draws the random source
problems and the order of the instances.  That keeps the mix, and so the
run time, the same from seed to seed.

Run as a script it builds one workload's corpus into a directory:

    python3 perfbench/corpus.py --workload dense-clique --seed 1 --out DIR

and prints one JSON object with the time it took from before the first
`motifkit` import to the last file written, and the times of a speed probe
(`speed.py`) run just before and just after, to scale it by.  With
`--trace 1` it also times the generator, source-check and formatting calls
(see `spans.py`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from itertools import combinations
from pathlib import Path

import speed

WORKLOADS = ("dense-clique", "sparse-paths", "auto-mixed")

# Algorithm arguments passed to `motifkit solve`, per workload.
ALGO_ARGS = {
    "dense-clique": ["--algo", "dist-clique"],
    "sparse-paths": ["--algo", "maxleaf"],
    "auto-mixed": [],
}


def _both(family, copies, *sizes):
    """`copies` YES and `copies` NO instances of each size."""
    return [
        (family, size, want)
        for size in sizes
        for want in (True, False)
        for _ in range(copies)
    ]


# (family, size parameters, expected answer), one row per instance.  The
# seed draws the source problems and the loop order, never the mix.  Each
# mix puts a block of one family of similar cost around the median and
# another around the tail percentile, so that both stay put from seed to
# seed.
SLOTS = {
    "dense-clique": _both("set-cover", 2, {"elements": 8, "sets": 10})
    + _both("clique-hs", 3, {"clique": 100, "sets": 8})
    + _both("set-cover", 2, {"elements": 9, "sets": 10})
    + _both("clique-hs", 6, {"clique": 150, "sets": 9})
    + _both("clique-hs", 4, {"clique": 200, "sets": 10})
    + _both("set-cover", 1, {"elements": 12, "sets": 10})
    + _both("clique-hs", 1, {"clique": 250, "sets": 11}, {"clique": 300, "sets": 10}),
    "sparse-paths": _both("domset-tree", 2, {"vertices": 6}, {"vertices": 7})
    + _both("x3c-paths", 2, {"q": 2, "triples": 5})
    + _both("x3c-paths", 3, {"q": 2, "triples": 6})
    + _both("x3c-comb", 6, {"q": 2, "triples": 4})
    + _both("mcc-star", 8, {"k": 3, "t": 2})
    # The q = 3 instances set the peak memory and fill the tail.
    + _both("x3c-paths", 3, {"q": 3, "triples": 7}),
    # x3c-superstar and domset-cluster are instances on which `auto` is
    # known to pick maxleaf badly; clique-hs is where its co-cluster probe
    # re-induces the graph at every branch node.  The domset-cluster sources
    # are trees, whose cost varies far less from seed to seed than that of
    # denser graphs.
    "auto-mixed": _both("hitting-set", 3, {"elements": 6, "sets": 5})
    + _both("set-cover", 3, {"elements": 6, "sets": 6})
    + _both("domset-tree", 3, {"vertices": 6})
    + _both("x3c-paths", 3, {"q": 2, "triples": 4})
    + _both("or-composition", 2, {"q": 2, "triples": 4, "parts": 2})
    + _both("x3c-comb", 1, {"q": 2, "triples": 4})
    + _both("domset-cluster", 2, {"vertices": 5, "extra": 0.0})
    + _both("mcc-star", 1, {"k": 3, "t": 2})
    + _both("x3c-superstar", 1, {"q": 2, "triples": 4})
    + _both("clique-hs", 1, {"clique": 24, "sets": 8})
    + _both("domset-gadget", 1, {"q": 2, "triples": 2}),
}

# Hub size of the clique-hs family: every set vertex hangs off three of
# these clique vertices, so the hitting-set brute force stays small.
CLIQUE_HUB = 12


def _x3c(g, rng: random.Random, q: int, m: int, want: bool):
    """An exact-cover source with `m` triples whose answer is `want`."""
    every = list(combinations(range(3 * q), 3))
    while True:
        if want:
            perm = rng.sample(range(3 * q), 3 * q)
            cover = {tuple(sorted(perm[3 * i : 3 * i + 3])) for i in range(q)}
            rest = [t for t in every if t not in cover]
            triples = sorted(cover) + rng.sample(rest, m - q)
            rng.shuffle(triples)
        else:
            triples = rng.sample(every, m)
        source = g.X3cInstance(q, tuple(triples))
        if source.has_exact_cover() == want:
            return source


def _set_system(g, rng: random.Random, n: int, m: int, want: bool, cover: bool):
    """Sets over [0, n) whose budget makes the answer `want`.

    The budget is the optimum (YES) or one below it (NO), found with the
    source-side brute force itself.
    """
    while True:
        sets = tuple(
            tuple(rng.sample(range(n), rng.randint(2, 4))) for _ in range(m)
        )
        if cover and set().union(*map(set, sets)) != set(range(n)):
            continue
        check = "has_set_cover" if cover else "has_hitting_set"
        best = next(
            t
            for t in range(max(n, m) + 1)
            if getattr(g.SetSystem(n, sets, t), check)()
        )
        if best >= 2:
            return g.SetSystem(n, sets, best if want else best - 1)


def _domset_source(core, g, rng: random.Random, n: int, extra: float, want: bool):
    """A connected graph and a budget: its domination number, or one less.

    The graph is a random tree plus each other pair with probability `extra`.
    """
    while True:
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        edges.update(
            pair for pair in combinations(range(n), 2) if rng.random() < extra
        )
        h = core.Graph(n, sorted(edges))
        best = next(t for t in range(1, n + 1) if g.domset_brute(h, t))
        if best >= 2:
            return h, best if want else best - 1


def _partitioned(g, rng: random.Random, k: int, t: int, want: bool):
    """A k-partite graph with classes of t vertices; pattern is the clique."""
    while True:
        edges = tuple(
            (u, v)
            for u in range(k * t)
            for v in range(u + 1, k * t)
            if u // t != v // t and rng.random() < 0.5
        )
        source = g.PartitionedGraph(k, t, edges)
        if source.has_pattern_clique() == want:
            return source


def _clique_hs(g, rng: random.Random, clique: int, sets: int, want: bool):
    """Criterion-8 shape: a big element clique plus `sets` set vertices.

    The sets draw their three elements from a hub of CLIQUE_HUB clique
    vertices.  Elements outside every set never help to hit one, so the
    hub-restricted system has the same hitting-set answer and is what the
    brute force runs on.
    """
    hub = sorted(rng.sample(range(clique), CLIQUE_HUB))
    local = {v: i for i, v in enumerate(hub)}
    while True:
        family = tuple(tuple(rng.sample(hub, 3)) for _ in range(sets))
        restricted = tuple(tuple(local[v] for v in s) for s in family)
        best = next(
            t
            for t in range(CLIQUE_HUB + 1)
            if g.SetSystem(CLIQUE_HUB, restricted, t).has_hitting_set()
        )
        if best >= 2:
            budget = best if want else best - 1
            ok = g.SetSystem(CLIQUE_HUB, restricted, budget).has_hitting_set()
            return g.SetSystem(clique, family, budget), ok


def _build(core, g, rng: random.Random, family: str, p: dict, want: bool):
    """One instance: (Instance, certified answer, source of the certificate)."""
    if family in ("x3c-paths", "x3c-comb", "x3c-superstar"):
        source = _x3c(g, rng, p["q"], p["triples"], want)
        gen = {
            "x3c-paths": g.gen_x3c_paths,
            "x3c-comb": g.gen_x3c_comb,
            "x3c-superstar": g.gen_x3c_superstar_cliques,
        }[family]
        return gen(source).instance, source.has_exact_cover(), "has_exact_cover"
    if family == "domset-gadget":
        # The x3c-paths root has a colour of its own, so every solution
        # passes through it and the rooted answer is the plain answer.
        source = _x3c(g, rng, p["q"], p["triples"], want)
        inner = g.gen_x3c_paths(source).instance
        gen = g.gen_domset_gadget(inner, 0)
        return gen.instance, source.has_exact_cover(), "has_exact_cover"
    if family == "or-composition":
        answers = [want] + [False] * (p["parts"] - 1)
        rng.shuffle(answers)
        sources = [_x3c(g, rng, p["q"], p["triples"], a) for a in answers]
        gen = g.gen_or_composition(sources)
        answer = any(s.has_exact_cover() for s in sources)
        return gen.instance, answer, "or(has_exact_cover)"
    if family in ("domset-tree", "domset-cluster"):
        h, budget = _domset_source(
            core, g, rng, p["vertices"], p.get("extra", 0.15), want
        )
        variant = family.split("-")[1]
        gen = g.gen_domset_reduction(h, budget, variant)
        return gen.instance, g.domset_brute(h, budget), "domset_brute"
    if family == "hitting-set":
        source = _set_system(g, rng, p["elements"], p["sets"], want, cover=False)
        gen = g.gen_hitting_set_split(source)
        return gen.instance, source.has_hitting_set(), "has_hitting_set"
    if family == "set-cover":
        source = _set_system(g, rng, p["elements"], p["sets"], want, cover=True)
        gen = g.gen_set_cover_split(source)
        return gen.instance, source.has_set_cover(), "has_set_cover"
    if family == "clique-hs":
        source, answer = _clique_hs(g, rng, p["clique"], p["sets"], want)
        gen = g.gen_hitting_set_split(source)
        return gen.instance, answer, "has_hitting_set"
    if family == "mcc-star":
        source = _partitioned(g, rng, p["k"], p["t"], want)
        gen = g.gen_mcc_star(source)
        return gen.instance, source.has_pattern_clique(), "has_pattern_clique"
    raise ValueError(f"unknown family {family!r}")


def build_corpus(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's `.gm` files and `manifest.json` into `out`.

    Returns the manifest: one entry per instance with its file name,
    certified answer and certificate source, plus a hash of all files.
    """
    from motifkit import core
    from motifkit import generators as g

    rng = random.Random(f"motifkit-bench:{workload}:{seed}")
    slots = list(SLOTS[workload])
    rng.shuffle(slots)
    out.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    instances = []
    for i, (family, params, want) in enumerate(slots):
        inst, answer, source = _build(core, g, rng, family, params, want)
        if answer != want:
            raise RuntimeError(f"slot {i} ({family}) certified {answer}, wanted {want}")
        name = f"{i:02d}-{family}.gm"
        text = core.format_instance(inst, f"{workload} seed {seed} slot {i}")
        (out / name).write_text(text)
        digest.update(name.encode() + b"\0" + text.encode())
        instances.append(
            {
                "file": name,
                "family": family,
                "params": params,
                "expected": answer,
                "source": source,
            }
        )
    manifest = {
        "workload": workload,
        "seed": seed,
        "argv": ALGO_ARGS[workload],
        "corpus_sha256": digest.hexdigest(),
        "instances": instances,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--src", required=True, help="directory holding motifkit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    probe_before = speed.probe()
    start = time.perf_counter()
    tracer = None
    if args.trace:
        import spans as bench_trace

        tracer = bench_trace.Tracer()
        tracer.install(bench_trace.SETUP_TABLE)
    manifest = build_corpus(args.workload, args.seed, Path(args.out))
    seconds = time.perf_counter() - start
    result = {
        "setup_s": seconds,
        "probe_before_s": probe_before,
        "probe_after_s": speed.probe(),
        "corpus_sha256": manifest["corpus_sha256"],
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
