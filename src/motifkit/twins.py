"""The twin search of `core.parse_reduced`: which vertices of a large
instance file no solution needs.

It runs inside the block reader, on its NumPy arrays, and is imported only
once a file is large enough to be searched: without cached bytecode, every
import compiles the module, and a run that reduces nothing should not pay
for it.
"""

from __future__ import annotations

import numpy as np


def weights(n: int):
    """A 64-bit hash weight per vertex: splitmix64's finaliser of its id."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(factor)
    return z ^ (z >> np.uint64(31))


def twins_kept(n: int, keys, c_rec, m_rec):
    """Mask of the vertices `core.parse_reduced` keeps, from the edge keys
    `core._edge_keys` makes and the `c` and `m` records.

    A class of twins has one colour and one degree, and its members one sum
    of `weights` over N(v) (false twins) or over N[v] (true twins).
    Only a class of more than m_c members drops any.  Each of its members'
    rows, with the vertex itself put in place for true twins, is then
    compared entry by entry with the row of the class's lowest member, so a
    hash collision is caught; a class with a row that differs keeps all.
    """
    color = np.empty(n, np.int64)
    color[c_rec[0]] = c_rec[1]
    motif_colors, mults = m_rec[:, np.argsort(m_rec[0])]
    at = np.searchsorted(motif_colors, color).clip(max=len(motif_colors) - 1)
    cap = np.where(motif_colors[at] == color, mults[at], 0)
    # Row v, N(v), is dst[cuts[v]:cuts[v + 1]], ascending.
    every = np.arange(n)
    cuts = np.searchsorted(keys, np.append(every, n) * n)
    degree = np.diff(cuts)
    dst = keys - np.repeat(every * n, degree)
    weight = weights(n)
    # The sums over the rows that have entries, each ending where the next
    # of them starts.
    open_sum = np.zeros(n, np.uint64)
    open_sum[degree > 0] = np.add.reduceat(weight[dst], cuts[:-1][degree > 0])
    keep = cap > 0
    on = np.flatnonzero(keep)
    for closed in (False, True):
        h = open_sum + weight if closed else open_sum
        # Each class as a run of `order`, lowest id first.
        order = on[np.lexsort((on, h[on], degree[on], color[on]))]
        first = np.ones(len(order), bool)
        for key in (h, degree, color):
            first[1:] &= key[order[1:]] == key[order[:-1]]
        first[1:] = ~first[1:]
        starts = np.flatnonzero(first)
        cls = np.cumsum(first) - 1
        rank = np.arange(len(order)) - starts[cls]
        surplus = np.diff(np.append(starts, len(order)))[cls] > cap[order]
        checked = surplus & (rank > 0)
        failed = np.zeros(len(starts), bool)
        if checked.any():
            row, start = dst, cuts
            if closed:
                row = np.insert(dst, np.searchsorted(keys, every * (n + 1)), every)
                start = cuts + np.append(every, n)
            where = np.full(n, -1)
            where[order] = cls
            x, lowest = order[checked], order[starts[cls[checked]]]
            failed[where[_rows_differ(row, start, x, lowest, where)]] = True
        keep[order[surplus & (rank >= cap[order]) & ~failed[cls]]] = False
    return keep


def _rows_differ(row, start, x, lowest, where):
    """The vertices of `x` whose row, `row[start[v]:start[v + 1]]`, differs
    from the row of their class's lowest vertex (`lowest`), with the class
    of each vertex in `where`.

    A member whose predecessor x - 1 is of its class has its row right after
    that one's, and equal to it if the two are twins.  The members of one
    row length with such a predecessor, where they fill at least half their
    span of `row`, compare with it as two slices; any other member compares
    with its lowest through gathered indices.  Equality is transitive, so
    every member's row then equals its lowest's.
    """
    length = start[x + 1] - start[x]
    chained = (where[x - 1] == where[x]) & (length > 0)
    sliced = np.zeros(len(x), bool)
    differ = []
    for size in set(length[chained].tolist()):
        run = chained & (length == size)
        lo, hi = x[run].min(), x[run].max() + 1
        if start[hi] - start[lo] > 2 * size * np.count_nonzero(run):
            continue
        sliced |= run
        mine = np.zeros(hi - lo, bool)
        mine[x[run] - lo] = True
        pairs = row[start[lo] : start[hi]] != row[start[lo] - size : start[hi] - size]
        pairs &= np.repeat(mine, np.diff(start[lo : hi + 1]))
        differ.append(start[lo] + np.flatnonzero(pairs))
    x, lowest, length = x[~sliced], lowest[~sliced], length[~sliced]
    ends = np.cumsum(length)
    at = np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - length - start[x], length)
    pairs = row[at] != row[at + np.repeat(start[lowest] - start[x], length)]
    differ.append(at[pairs])
    return np.searchsorted(start, np.concatenate(differ), "right") - 1
