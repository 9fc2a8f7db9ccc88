"""Spans around the calls into motifkit's modules, installed from outside.

The program has no tracing of its own yet, so the traced run wraps the
public functions of each layer from here.  `RUN_TABLE` lists the calls made
while solving, `SETUP_TABLE` those made while building the corpus.  Each
entry names a function (or one of the two `Graph` methods) and the span it
records.  `Tracer.install` replaces the function wherever a loaded
`motifkit` module binds it, so calls through `from .x import f` names are
timed too.  A target that no longer exists is reported as missing and
skipped.

Spans nest as the calls do; one process runs one instance at a time and the
program starts no threads, so a span's self time is its duration minus the
durations of the spans opened directly inside it.  No layer waits on a
queue or a lock, so there is no waiting time to record.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time
from collections import Counter, defaultdict

SOLVERS = (
    "brute.solve_brute",
    "dist_clique.solve_dist_clique",
    "vertex_cover.solve_vertex_cover",
    "co_cluster.solve_co_cluster",
    "max_leaf.solve_max_leaf_xp",
    "edge_clique_cover.solve_edge_clique_cover",
    "vertex_clique_cover.solve_vertex_clique_cover",
)

# (target, span name); targets are "module:attribute[.method]".
RUN_TABLE = [
    ("motifkit.cli:main", "cli"),
    ("motifkit.core:parse_instance", "core.parse"),
    ("motifkit.core:prune_wrong_colors", "core.prune"),
    ("motifkit.core:Graph.induced", "core.induced"),
    ("motifkit.core:connected_components", "core.components"),
    ("motifkit.core:Graph.complement", "core.complement"),
    ("motifkit.core:verify_solution", "core.verify"),
    ("motifkit.estimators:min_vertex_cover", "estimators.vertex_cover"),
    ("motifkit.estimators:dist_to_clique_set", "estimators.dist_clique"),
    ("motifkit.estimators:dist_to_co_cluster_set", "estimators.co_cluster"),
    ("motifkit.estimators:degree3_decomposition", "estimators.degree3"),
    *((f"motifkit.solvers.{s.replace('.', ':')}", "solvers") for s in SOLVERS),
    ("motifkit.solvers.paths:solve_on_path", "solvers.path_window"),
    ("motifkit.csct:solve_csct", "csct"),
    ("motifkit.combinatorics:max_matching_with_cover", "combinatorics.matching"),
    ("motifkit.combinatorics:iter_ordered_partitions", "combinatorics.ordered_partitions"),
]

SETUP_TABLE = [
    ("motifkit.core:format_instance", "core.format"),
    *(
        (f"motifkit.generators:{name}", "generators")
        for name in (
            "gen_x3c_paths",
            "gen_x3c_comb",
            "gen_x3c_superstar_cliques",
            "gen_domset_gadget",
            "gen_domset_reduction",
            "gen_hitting_set_split",
            "gen_set_cover_split",
            "gen_mcc_star",
            "gen_or_composition",
        )
    ),
    *(
        (f"motifkit.generators:{name}", "generators.source_check")
        for name in (
            "X3cInstance.has_exact_cover",
            "SetSystem.has_hitting_set",
            "SetSystem.has_set_cover",
            "PartitionedGraph.has_pattern_clique",
            "domset_brute",
        )
    ),
]

# Spans that are generator functions: their yields are counted, not timed,
# because their body runs interleaved with the caller's.
COUNTED_GENERATORS = {"combinatorics.ordered_partitions"}


def _positional(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


class Tracer:
    """Span stack plus per-span self time, call counts and counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.maxima = defaultdict(float)
        self.missing = []
        self._stack = []
        self._patches = []

    # -- installing -------------------------------------------------------

    def install(self, table):
        """Wrap every target in `table`; remember what to undo.

        Every motifkit module is imported first: one imported later would
        bind a wrapper through `from .x import f` and keep it after
        `uninstall`.
        """
        package = importlib.import_module("motifkit")
        for info in pkgutil.walk_packages(package.__path__, "motifkit."):
            importlib.import_module(info.name)
        for target, span in table:
            original, owner, attr = self._resolve(target)
            if original is None:
                if target not in self.missing:
                    self.missing.append(target)
                continue
            if span in COUNTED_GENERATORS:
                wrapper = self._counting_generator(span, original)
            else:
                wrapper = self._timed(span, original)
            if owner is not None:
                self._patch(owner, attr, wrapper)
            else:
                # Module-level function: rebind it in every loaded motifkit
                # module that holds the same object.
                for name, module in list(sys.modules.items()):
                    if module is None or not (
                        name == "motifkit" or name.startswith("motifkit.")
                    ):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    @staticmethod
    def _resolve(target):
        """(function, owning class or None, attribute), or (None, ..) if gone."""
        module_name, _, path = target.partition(":")
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            return None, None, None
        owner = None
        parts = path.split(".")
        for part in parts:
            owner, obj = obj, getattr(obj, part, None)
            if obj is None:
                return None, None, None
        if not callable(obj):
            return None, None, None
        return obj, (owner if len(parts) > 1 else None), parts[-1]

    # -- recording --------------------------------------------------------

    def _timed(self, span, fn):
        stack = self._stack
        observe = _OBSERVERS.get(span)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            error = None
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                duration = clock() - start
                stack.pop()
                self.self_s[span] += duration - frame[1]
                self.calls[span] += 1
                if stack:
                    stack[-1][1] += duration
                if observe is not None:
                    observe(self, parent, args, kwargs, result, error)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_generator(self, span, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[span + "_calls"] += 1
            for item in fn(*args, **kwargs):
                counts[span + "_yielded"] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self):
        """Plain-dict snapshot, for passing between processes."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "missing": list(self.missing),
        }


# -- per-span observers: counters measured where the work happens ----------


def _observe_parse(tracer, parent, args, kwargs, result, error):
    text = _positional(args, kwargs, 0, "text")
    if isinstance(text, str):
        tracer.counts["core.parse_bytes"] += len(text.encode())


def _observe_probe(tracer, parent, args, kwargs, result, error):
    # A capped probe is a call with a limit made from outside the estimators
    # (dist_to_clique_set's inner vertex-cover call is part of its probe).
    if _positional(args, kwargs, 1, "limit") is None or error is not None:
        return
    if parent is not None and parent.startswith("estimators."):
        return
    tracer.counts["estimators.capped_probes"] += 1
    if result is None:
        tracer.counts["estimators.probe_gave_up"] += 1


def _observe_csct(tracer, parent, args, kwargs, result, error):
    inst = _positional(args, kwargs, 0, "inst")
    tracer.maxima["csct.max_universe"] = max(
        tracer.maxima["csct.max_universe"], inst.n
    )
    if type(error).__name__ == "CapacityError":
        tracer.counts["csct.capacity_errors"] += 1
        return
    # The DP's take table holds one byte per (set, subset of the universe).
    table_mb = len(inst.sets) * (1 << inst.n) / 1e6
    tracer.maxima["csct.table_mb_max"] = max(
        tracer.maxima["csct.table_mb_max"], table_mb
    )
    if error is None and result is not None:
        tracer.counts["csct.feasible"] += 1


def _observe_matching(tracer, parent, args, kwargs, result, error):
    graph = _positional(args, kwargs, 0, "b")
    if error is None and result.size == min(graph.left, graph.right):
        tracer.counts["combinatorics.matching_perfect"] += 1


def _observe_cli(tracer, parent, args, kwargs, result, error):
    if result == 3:
        tracer.counts["cli.exit3"] += 1


_OBSERVERS = {
    "core.parse": _observe_parse,
    "estimators.vertex_cover": _observe_probe,
    "estimators.dist_clique": _observe_probe,
    "estimators.co_cluster": _observe_probe,
    "csct": _observe_csct,
    "combinatorics.matching": _observe_matching,
    "cli": _observe_cli,
}
