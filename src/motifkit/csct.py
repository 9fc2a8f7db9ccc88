"""Colored Set Cover with Thresholds, solved by a dynamic program over subsets.

With the sets sorted by color, T[U, j] is the fewest sets of set j's color
class, among subfamilies of sets 0..j that cover U and respect the earlier
classes' thresholds, or infinite.  Before set 0 only T[{}] = 0 is finite.
The first set S_j of a class gives T[U, j] = 0 where T[U, j-1] is finite,
else 1 where T[U - S_j, j-1] is; a later one gives the minimum of T[U, j-1]
and T[U - S_j, j-1] + 1, the latter only up to the threshold.  Take bits mark
the entries that use S_j; read back from the full set at the last level,
they give the solution.  Only the entries that read-out can depend on are
filled (each U and U - S_j of the level above), as a dict of finite entries
and a set of take bits per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .core import CapacityError, InputError

# Cap on the DP's memory.  A state is one (set, subset) pair: a needed key, a
# count and a take bit.  The measured peak is at most 17 bytes a state for
# n of 10-14; 49 also refuses every n and m >= 1 with (m + 48) << n over it.
MAX_STATE_BYTES = 1 << 30
BYTES_PER_STATE = 49


@dataclass(frozen=True)
class CsctInstance:
    """Ground set 0..n-1, color-tagged set family, per-color thresholds."""

    n: int
    sets: Tuple[Tuple[int, Tuple[int, ...]], ...]  # (color, elements)
    thresholds: Dict[int, int]

    def __post_init__(self):
        for color, elems in self.sets:
            if color not in self.thresholds:
                raise InputError(f"set color {color} has no threshold")
            for e in elems:
                if not (0 <= e < self.n):
                    raise InputError(f"element {e} out of range for n={self.n}")
        for color, a in self.thresholds.items():
            if a < 1:
                raise InputError(f"threshold for color {color} must be positive")


@dataclass(frozen=True)
class CsctSolution:
    chosen: Tuple[int, ...]  # indices into inst.sets


def solve_csct(inst: CsctInstance) -> Optional[CsctSolution]:
    """Feasible threshold-respecting cover of the full ground set, or None."""
    m = len(inst.sets)
    state_bytes = (m * BYTES_PER_STATE) << inst.n
    if state_bytes > MAX_STATE_BYTES:
        raise CapacityError(
            f"universe of {inst.n} elements with {m} sets needs up to "
            f"{state_bytes >> 20} MiB of DP states, over {MAX_STATE_BYTES >> 20} MiB"
        )
    if len(set().union(*(elems for _, elems in inst.sets))) < inst.n:
        return None
    order = sorted(range(m), key=lambda j: (inst.sets[j][0], j))
    colors = [inst.sets[j][0] for j in order]
    masks = [sum(1 << e for e in set(inst.sets[j][1])) for j in order]

    # The subsets each level's read-out can depend on, last level first.
    full = (1 << inst.n) - 1
    keys = {full}
    needed = [[full]]
    for mask in masks[:0:-1]:
        keep = ~mask
        keys |= {u & keep for u in keys}
        needed.append(list(keys))

    counts: Dict[int, int] = {0: 0}
    takes: List[Set[int]] = []
    for j, (mask, color) in enumerate(zip(masks, colors)):
        keep = ~mask
        level: Dict[int, int] = {}
        take: Set[int] = set()
        if j == 0 or color != colors[j - 1]:
            for u in needed.pop():
                if u in counts:
                    level[u] = 0
                elif u & keep in counts:
                    level[u] = 1
                    take.add(u)
        else:
            a = inst.thresholds[color]
            for u in needed.pop():
                old = counts.get(u)
                added = counts.get(u & keep, a) + 1
                if added <= a and (old is None or added < old):
                    level[u] = added
                    take.add(u)
                elif old is not None:
                    level[u] = old
        counts = level
        takes.append(take)

    if full not in counts:
        return None
    chosen: List[int] = []
    u = full
    for j in range(m - 1, -1, -1):
        if u in takes[j]:
            chosen.append(order[j])
            u &= ~masks[j]
    assert u == 0
    return CsctSolution(tuple(sorted(chosen)))
