"""A reference workload that tracks how fast the machine runs right now.

The benchmark runs in shared sandboxes where the speed of the same Python
code drifts by up to 2x over tens of seconds (neighbours on the same cores
and caches).  A short, fixed, pure-Python probe of the same kind of work the
program does (building sets, tuples and dicts of small ints) slows down with
it.  Every time the benchmark reports is expressed at the speed at which the
probe takes REFERENCE_S.  The probe is the benchmark's own code, so a change
to the program cannot move it.

The program slows down less than the probe does: on a 2-vCPU Xeon sandbox,
whose probe time switches between about 7.5 ms and 14.5 ms, ten-seed runs of
each workload were steadiest when a time was multiplied by
(REFERENCE_S / probe time) ** SENSITIVITY with SENSITIVITY = 0.7, i.e. a
probe twice as slow goes with instances about 1.6 times as slow.  With the
full ratio (1.0) the spread of `decided_per_s` across runs was 0.09-0.1,
raw (0.0) 0.2.
"""

from __future__ import annotations

import gc
import time

# The probe's time at the reference speed.  On a 2 GHz Xeon the probe takes
# 8-20 ms depending on the load of the neighbours.
REFERENCE_S = 0.010
SENSITIVITY = 0.7


# A few thousand lines of the instance format, the text half of the probe.
_TEXT = "\n".join(
    f"e {(7 * i) % 1999} {(13 * i + 1) % 1999}" for i in range(10000)
)


def probe() -> float:
    """Seconds one fixed round of parsing and set/tuple/dict work takes now.

    The cyclic collector is off meanwhile, so the size of whatever else the
    process holds does not change the probe's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        adjacency = [set() for _ in range(2000)]
        for line in _TEXT.splitlines():
            fields = line.split("#", 1)[0].split()
            u, v = int(fields[1]), int(fields[2])
            if u != v:
                adjacency[u].add(v)
                adjacency[v].add(u)
        frozen = tuple(tuple(sorted(s)) for s in adjacency)
        index = {v: len(nbrs) for v, nbrs in enumerate(frozen) if nbrs}
        sum(1 for nbrs in frozen for w in nbrs if index.get(w, 0) > 3)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, probe_before: float, probe_after: float) -> float:
    """`seconds` measured between two probes, at the reference speed."""
    return seconds * (REFERENCE_S / ((probe_before + probe_after) / 2)) ** SENSITIVITY
