"""Sliding-window color-count matching on a sequence (motif search on paths)."""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence, Tuple

from ..core import Motif


def solve_on_path(word: Sequence[int], motif: Motif) -> Optional[Tuple[int, int]]:
    """Leftmost window [i, j] whose color counts equal the motif, or None."""
    k = motif.total
    n = len(word)
    if k > n:
        return None
    target = motif.as_counter()
    window = Counter(word[:k])
    mismatches = sum(1 for c in set(target) | set(window) if window[c] != target[c])
    if mismatches == 0:
        return (0, k - 1)
    for i in range(1, n - k + 1):
        out_c, in_c = word[i - 1], word[i + k - 1]
        for c, delta in ((out_c, -1), (in_c, +1)):
            if window[c] == target[c]:
                mismatches += 1
            window[c] += delta
            if window[c] == target[c]:
                mismatches -= 1
        if mismatches == 0:
            return (i, i + k - 1)
    return None
