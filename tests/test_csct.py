import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motifkit
from motifkit.core import CapacityError, InputError
from motifkit.csct import CsctInstance, solve_csct
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


class TestCheckSolution:
    def test_detects_uncovered_element(self):
        inst = CsctInstance(2, ((0, (0,)),), {0: 1})
        from motifkit.csct import CsctSolution

        assert not check_csct_solution(inst, CsctSolution((0,)))
