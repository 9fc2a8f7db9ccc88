import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motifkit
from motifkit.core import CapacityError, InputError
from motifkit.csct import CsctInstance, CsctSolution, solve_csct
from oracles import check_csct_solution


def oracle(inst: CsctInstance):
    """Exhaustive 2^m search for a feasible cover, smallest family first."""
    universe = set(range(inst.n))
    m = len(inst.sets)
    for size in range(m + 1):
        for chosen in combinations(range(m), size):
            covered = set()
            used = {}
            ok = True
            for idx in chosen:
                color, elements = inst.sets[idx]
                covered |= set(elements)
                used[color] = used.get(color, 0) + 1
                if used[color] > inst.thresholds.get(color, 0):
                    ok = False
                    break
            if ok and covered == universe:
                return chosen
    return None


# The table DP that `solve_csct` replaced: T[U, j] at every subset U for
# every set j, in NumPy arrays.  The sparse DP fills the same recurrence at
# the entries its read-out can reach, so it must choose the same sets.
MAX_TABLE_BYTES = 1 << 30
_BYTES_PER_SUBSET = 48
_INF = (1 << 30) - 1  # half the int32 maximum, so _INF + 1 does not overflow


def ref_solve_csct(inst: CsctInstance) -> Optional[CsctSolution]:
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


@st.composite
def csct_instances(draw):
    n = draw(st.integers(0, 8))
    m = draw(st.integers(0, 10))
    sets = []
    for _ in range(m):
        color = draw(st.integers(0, 2))
        elements = draw(st.sets(st.integers(0, max(0, n - 1)), max_size=n)) if n else set()
        sets.append((color, tuple(sorted(elements))))
    thresholds = {c: draw(st.integers(1, 4)) for c in range(3)}
    return CsctInstance(n, tuple(sets), thresholds)


class TestSolveCsct:
    def test_empty_universe_needs_nothing(self):
        inst = CsctInstance(0, ((0, ()),), {0: 1})
        solution = solve_csct(inst)
        assert solution is not None and solution.chosen == ()

    def test_no_sets_no_cover(self):
        assert solve_csct(CsctInstance(3, (), {0: 5})) is None

    def test_threshold_blocks_cover(self):
        sets = ((0, (0,)), (0, (1,)))
        assert solve_csct(CsctInstance(2, sets, {0: 1})) is None
        assert solve_csct(CsctInstance(2, sets, {0: 2})) is not None

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(InputError):
            CsctInstance(1, ((0, (0,)),), {0: 0})

    def test_universe_cap(self):
        with pytest.raises(CapacityError):
            solve_csct(CsctInstance(40, ((0, (0,)),), {0: 1}))

    def test_memory_cap_raises_before_allocating(self):
        # n = 30 needs 8 GiB for the subset ids alone.  The address space is
        # capped at 1 GiB, so allocating first would raise MemoryError.
        script = (
            "import resource\n"
            "from motifkit.core import CapacityError\n"
            "from motifkit.csct import CsctInstance, solve_csct\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "try:\n"
            "    solve_csct(CsctInstance(30, ((0, (0,)),), {0: 1}))\n"
            "except CapacityError:\n"
            "    print('capacity')\n"
        )
        src = str(Path(motifkit.__file__).resolve().parent.parent)
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1"),
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "capacity\n"), proc.stderr

    @given(csct_instances())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_exhaustive_oracle(self, inst):
        solution = solve_csct(inst)
        expected = oracle(inst)
        assert (solution is None) == (expected is None)
        if solution is not None:
            assert check_csct_solution(inst, solution)

    @given(csct_instances())
    @settings(max_examples=500, deadline=None)
    def test_chooses_what_the_table_reference_chooses(self, inst):
        # The same sets, not only the same verdict: dist-clique's witness is
        # built from them.  Few colors and small universes draw repeated
        # colors, repeated sets and infeasible instances often.
        solution, expected = solve_csct(inst), ref_solve_csct(inst)
        assert (solution and solution.chosen) == (expected and expected.chosen)


class TestCheckSolution:
    def test_detects_uncovered_element(self):
        inst = CsctInstance(2, ((0, (0,)),), {0: 1})
        from motifkit.csct import CsctSolution

        assert not check_csct_solution(inst, CsctSolution((0,)))
