"""Colored Set Cover with Thresholds, solved by a bitmask dynamic program.

The table T[U, j] holds the minimum number of sets of the current color
class, among subfamilies of the first j sets that cover U and respect the
thresholds of the earlier classes.  One take/discard bit per entry allows
O(nm) reconstruction of an actual solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .core import CapacityError, InputError

# Cap on the DP's memory.  Per subset of the universe it holds one `take`
# flag for each set, the int64 subset id and the int32/bool working arrays
# of one step (measured peak: m + 44 bytes).
MAX_TABLE_BYTES = 1 << 30
_BYTES_PER_SUBSET = 48
_INF = (1 << 30) - 1  # half the int32 maximum, so _INF + 1 does not overflow


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
    table_bytes = (m + _BYTES_PER_SUBSET) << inst.n
    if table_bytes > MAX_TABLE_BYTES:
        raise CapacityError(
            f"universe of {inst.n} elements with {m} sets needs about "
            f"{table_bytes >> 20} MiB of tables, over {MAX_TABLE_BYTES >> 20} MiB"
        )
    if inst.n == 0:
        return CsctSolution(())
    if m == 0:
        return None
    import numpy as np  # loaded only once the DP runs, as in `core._read_kept`

    # Reorder so sets of the same color appear consecutively; remember the
    # original indices for the reconstructed answer.
    order = sorted(range(m), key=lambda j: (inst.sets[j][0], j))
    colors = [inst.sets[j][0] for j in order]
    masks = [
        sum(1 << e for e in set(inst.sets[j][1])) for j in order
    ]
    assert all(colors[i] <= colors[i + 1] for i in range(m - 1))

    size = 1 << inst.n
    universe = np.arange(size, dtype=np.int64)
    take = np.zeros((m, size), dtype=bool)

    # Base case: only S_1 available.  Covering the empty set needs no set at
    # all, which the stated base would report as 1; start it at 0 instead so
    # later same-color additions are not over-counted.
    col = np.full(size, _INF, dtype=np.int32)
    covered = (universe & ~np.int64(masks[0])) == 0
    col[covered] = 1
    take[0, covered] = True
    col[0] = 0
    take[0, 0] = False

    for j in range(1, m):
        sub = universe & ~np.int64(masks[j])
        prev_sub = col[sub]
        if colors[j] != colors[j - 1]:
            # First set of a new color class: previous counts reset to 0/inf.
            feasible_prev = col < _INF
            new = np.full(size, _INF, dtype=np.int32)
            new[feasible_prev] = 0
            add = (~feasible_prev) & (prev_sub < _INF)
            new[add] = 1
            take[j] = add
            col = new
        else:
            a = inst.thresholds[colors[j]]
            added = np.where(prev_sub < a, prev_sub + 1, _INF).astype(np.int32)
            take[j] = added < col
            col = np.minimum(col, added)

    if col[size - 1] >= _INF:
        return None

    chosen: List[int] = []
    u = size - 1
    for j in range(m - 1, -1, -1):
        if take[j, u]:
            chosen.append(order[j])
            u &= ~masks[j]
    assert u == 0
    return CsctSolution(tuple(sorted(chosen)))
