"""Vertex-colored graphs, motifs and the solution verifier.

All vertex ids are 0..n-1, colors are dense nonnegative integers.
Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class InputError(ValueError):
    """Malformed instance, witness, cover, or source-problem data."""


class CapacityError(RuntimeError):
    """Instance exceeds a hard size cap of an exact algorithm."""


class Graph:
    """Simple undirected graph with sorted, duplicate-free adjacency rows."""

    __slots__ = ("n", "adjacency", "_masks")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()):
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        adj: List[set] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adjacency: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in adj
        )
        self._masks: Optional[Tuple[int, ...]] = None

    @classmethod
    def _from_rows(cls, n: int, rows: Tuple[Tuple[int, ...], ...]) -> "Graph":
        """A graph from finished rows: sorted, duplicate-free and symmetric."""
        g = cls.__new__(cls)
        g.n, g.adjacency, g._masks = n, rows, None
        return g

    def has_edge(self, u: int, v: int) -> bool:
        row = self.adjacency[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def neighbour_masks(self) -> Tuple[int, ...]:
        """Bitmask of each vertex's neighbours: n^2 bits, built on first call."""
        if self._masks is None:
            bits = [1 << w for w in range(self.n)]
            self._masks = tuple(
                sum(map(bits.__getitem__, row)) for row in self.adjacency
            )
        return self._masks

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> List[Tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def num_edges(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def induced(self, vertices: Sequence[int]) -> Tuple["Graph", Dict[int, int]]:
        """Induced subgraph plus the old-id -> new-id map."""
        keep = sorted(set(vertices))
        remap = {v: i for i, v in enumerate(keep)}
        rows = tuple(
            tuple(remap[v] for v in self.adjacency[u] if v in remap) for u in keep
        )
        return Graph._from_rows(len(keep), rows), remap

    def complement(self) -> "Graph":
        everyone = range(self.n)
        rows = []
        for u, row in enumerate(self.adjacency):
            skip = {u, *row}
            rows.append(tuple(v for v in everyone if v not in skip))
        return Graph._from_rows(self.n, tuple(rows))

    def is_clique(self, vertices: Sequence[int]) -> bool:
        members = set(vertices)
        k = len(vertices)
        return len(members) == k and all(
            len(members.intersection(self.adjacency[v])) == k - 1 for v in members
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.adjacency == other.adjacency

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges()})"


class Motif:
    """Multiset of colors with positive multiplicities."""

    __slots__ = ("multiplicities", "total")

    def __init__(self, multiplicities: Dict[int, int]):
        for color, mult in multiplicities.items():
            if color < 0:
                raise InputError(f"negative color id {color}")
            if mult < 1:
                raise InputError(f"multiplicity of color {color} must be >= 1")
        if not multiplicities:
            raise InputError("empty motif is not a valid input")
        self.multiplicities: Dict[int, int] = dict(multiplicities)
        self.total = sum(multiplicities.values())

    def count(self, color: int) -> int:
        return self.multiplicities.get(color, 0)

    def colors(self) -> List[int]:
        return sorted(self.multiplicities)

    def contains(self, colors: Iterable[int]) -> bool:
        """True iff the given color multiset is a sub-multiset of this motif."""
        return all(
            cnt <= self.count(c) for c, cnt in Counter(colors).items()
        )

    def minus(self, colors: Iterable[int]) -> Counter:
        """Remaining multiplicities after removing a color multiset (clamped at 0)."""
        rem = Counter(self.multiplicities)
        rem.subtract(Counter(colors))
        return Counter({c: m for c, m in rem.items() if m > 0})

    def matches(self, colors: Iterable[int]) -> bool:
        return Counter(colors) == Counter(self.multiplicities)

    def as_counter(self) -> Counter:
        return Counter(self.multiplicities)

    def __eq__(self, other) -> bool:
        return isinstance(other, Motif) and self.multiplicities == other.multiplicities

    def __repr__(self) -> str:
        inner = ", ".join(f"{c}x{m}" for c, m in sorted(self.multiplicities.items()))
        return f"Motif({inner})"


@dataclass(frozen=True)
class Instance:
    """A graph, a vertex coloring, and a motif."""

    graph: Graph
    coloring: Tuple[int, ...]
    motif: Motif

    def __post_init__(self):
        if len(self.coloring) != self.graph.n:
            raise InputError(
                f"coloring has {len(self.coloring)} entries for {self.graph.n} vertices"
            )
        object.__setattr__(self, "coloring", tuple(self.coloring))


@dataclass(frozen=True)
class SolveOutcome:
    """Either No, or Yes with a sorted witness vertex set."""

    witness: Optional[Tuple[int, ...]] = None

    @classmethod
    def yes(cls, witness: Iterable[int]) -> "SolveOutcome":
        return cls(tuple(sorted(witness)))

    @classmethod
    def no(cls) -> "SolveOutcome":
        return cls(None)

    @property
    def is_yes(self) -> bool:
        return self.witness is not None

    def __bool__(self) -> bool:
        return self.is_yes


def witness_failure(inst: Instance, r: Iterable[int]) -> Optional[str]:
    """None if r is a solution, else "multiset" (a repeated vertex, or colors
    other than the motif's) or "connectivity" (G[r] is disconnected).  A
    vertex out of range raises `InputError`."""
    vertices = list(r)
    for v in vertices:
        if not (0 <= v < inst.graph.n):
            raise InputError(f"witness vertex {v} out of range")
    if len(set(vertices)) != len(vertices) or not inst.motif.matches(
        inst.coloring[v] for v in vertices
    ):
        return "multiset"
    if len(connected_components(inst.graph, vertices)) != 1:
        return "connectivity"
    return None


def verify_solution(inst: Instance, r: Iterable[int]) -> bool:
    """Check that r is nonempty, G[r] is connected, and c(r) equals the motif."""
    return witness_failure(inst, r) is None


def connected_components(g: Graph, s: Iterable[int]) -> List[List[int]]:
    """Components of G[s], each sorted, ordered by smallest vertex id."""
    inside = set(s)
    for v in inside:
        if not (0 <= v < g.n):
            raise InputError(f"vertex {v} out of range")
    seen: set = set()
    comps: List[List[int]] = []
    for start in sorted(inside):
        if start in seen:
            continue
        comp = []
        queue = deque([start])
        seen.add(start)
        while queue:
            u = queue.popleft()
            comp.append(u)
            for w in g.adjacency[u]:
                if w in inside and w not in seen:
                    seen.add(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


# `parse_instance` tries `_read_blocks` on files whose header promises at
# least this many edges.  Below it the reader's fixed NumPy cost, about
# 0.2 ms, outweighs what it saves: the line parser takes 0.1 ms at 28 edges
# and 0.55 ms at 300, the block reader 0.2 and 0.3 ms.
BLOCK_READER_MIN_EDGES = 100

# Maps the record tags to spaces, leaving only the integers of a block body.
_BLANK_TAGS = bytes.maketrans(b"ecm", b"   ")


def parse_instance(text: str) -> Instance:
    """Read the canonical line-oriented instance format.

    `p gm <n> <m>` header, then `e <u> <v>`, `c <v> <color>`, and
    `m <color> <mult>` lines; `#` starts a comment.  Sparse external color
    ids are re-mapped to dense 0-based ids.
    """
    return _read_blocks(text) or _parse_lines(text)


def _read_blocks(
    text: str, min_edges: int = BLOCK_READER_MIN_EDGES
) -> Optional[Instance]:
    """The instance in `text`, read a block at a time with NumPy, or None.

    Reads only the layout `format_instance` writes: `#` lines, the header,
    then the `e`, `c` and `m` blocks in that order, one record of at most
    22 bytes per line, its tag and two integers apart by single spaces.
    Returns None when the header promises fewer than `min_edges` edges and
    on anything unexpected (another character, a count other than the
    header's, an out-of-range vertex, a self-loop, a repeated `c` or `m`
    record, a multiplicity below 1), so that `_parse_lines` reads the file
    or reports its error.
    """
    start = 0
    while text.startswith("#", start):
        start = text.find("\n", start) + 1
        if start == 0:
            return None
    end = text.find("\n", start)
    line = text[start:end]
    head = line.split()
    if (
        end < 0
        or len(text[:start].splitlines()) != text.count("\n", 0, start)
        or not (line.isascii() and line.isprintable())
        or len(head) != 4
        or head[:2] != ["p", "gm"]
        or not (head[2].isdigit() and head[3].isdigit())
    ):
        return None
    n, m = int(head[2]), int(head[3])
    if m < min_edges:
        return None

    import numpy as np

    body = text[end + 1 :].encode()
    if not body.endswith(b"\n"):
        body += b"\n"
    if (
        body.translate(None, b"0123456789 \necm")
        or b"  " in body
        or b" \n" in body
        or len(body) - len(body.translate(None, b"ecm")) != body.count(b"\n")
    ):
        return None
    # Each line starts with its tag, the only letter on it, and has two
    # spaces, neither next to the other nor at its end: so at least two
    # integers follow the tag, and the count of all of them rules out a third.
    b = np.frombuffer(body, dtype=np.uint8)
    ends = np.flatnonzero(b == 10)
    starts = np.concatenate(([0], ends[:-1] + 1))
    records = len(ends)
    kinds = b[starts]
    ne, nc, nm = (int(np.count_nonzero(kinds == ord(t))) for t in "ecm")
    if (
        (ne, nc) != (m, n)
        or nm == 0
        or ne + nc + nm != records
        or (kinds[:ne] != ord("e")).any()
        or (kinds[ne : ne + nc] != ord("c")).any()
        or (np.add.reduceat(b == 32, starts, dtype=np.intp) != 2).any()
        # At most 22 bytes, so neither integer has more than 18 digits.
        or (ends - starts > 22).any()
    ):
        return None
    values = np.fromstring(body.translate(_BLANK_TAGS), dtype=np.int64, sep=" ")
    if values.size != 2 * records:
        return None
    e_rec, c_rec, m_rec = np.split(values.reshape(records, 2), [ne, ne + nc])
    u, v = e_rec.T
    if (
        (e_rec >= n).any()
        or (u == v).any()
        or (c_rec[:, 0] >= n).any()
        or not (np.bincount(c_rec[:, 0], minlength=n) == 1).all()
        or (m_rec[:, 1] < 1).any()
    ):
        return None
    colors, mults = dict(c_rec.tolist()), dict(m_rec.tolist())
    if len(mults) != nm:
        return None

    # Both directions of every edge as one sorted, duplicate-free key list.
    keys = np.concatenate((u * n + v, v * n + u))
    keys.sort()
    keys = keys[np.diff(keys, prepend=-1) != 0]
    cuts = [0, *np.searchsorted(keys, np.arange(1, n + 1) * n).tolist()]
    nbrs = tuple((keys % n).tolist())
    rows = tuple(nbrs[a:z] for a, z in zip(cuts, cuts[1:]))
    return Instance(Graph._from_rows(n, rows), *_dense_colors(n, colors, mults))


def _parse_lines(text: str) -> Instance:
    """The line parser: reads any valid file and names each error's line."""
    header: Optional[Tuple[int, int]] = None
    edges: List[Tuple[int, int]] = []
    colors: Dict[int, int] = {}
    mults: Dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        tag = fields[0]
        if tag == "p":
            if header is not None:
                raise InputError(f"line {lineno}: duplicate header")
            if len(fields) != 4 or fields[1] != "gm":
                raise InputError(f"line {lineno}: header must be 'p gm <n> <m>'")
            try:
                header = (int(fields[2]), int(fields[3]))
            except ValueError:
                raise InputError(f"line {lineno}: non-integer header field") from None
            continue
        if tag not in ("e", "c", "m"):
            raise InputError(f"line {lineno}: unknown record {tag!r}")
        if len(fields) != 3:
            raise InputError(f"line {lineno}: expected 2 fields")
        try:
            a, b = int(fields[1]), int(fields[2])
        except ValueError:
            raise InputError(f"line {lineno}: non-integer field") from None
        if tag == "e":
            edges.append((a, b))
        elif tag == "c":
            if a in colors:
                raise InputError(f"line {lineno}: vertex {a} colored twice")
            if b < 0:
                raise InputError(f"line {lineno}: negative color")
            colors[a] = b
        else:
            if a in mults:
                raise InputError(f"line {lineno}: motif color {a} repeated")
            if b < 1:
                raise InputError(f"line {lineno}: multiplicity must be >= 1")
            mults[a] = b
    if header is None:
        raise InputError("missing 'p gm' header")
    n, m = header
    # Count first: a huge n in the header must not allocate anything.
    if len(colors) != n or any(not 0 <= v < n for v in colors):
        raise InputError("every vertex 0..n-1 needs exactly one 'c' line")
    if len(edges) != m:
        raise InputError(f"header promises {m} edges, found {len(edges)}")
    coloring, motif = _dense_colors(n, colors, mults)
    return Instance(Graph(n, edges), coloring, motif)


def _dense_colors(
    n: int, colors: Dict[int, int], mults: Dict[int, int]
) -> Tuple[Tuple[int, ...], Motif]:
    """The coloring and motif with colour ids re-mapped to dense 0-based ids."""
    dense = {c: i for i, c in enumerate(sorted(set(colors.values()) | set(mults)))}
    coloring = tuple(dense[colors[v]] for v in range(n))
    return coloring, Motif({dense[c]: mult for c, mult in mults.items()})


def format_instance(inst: Instance, comment: str = "") -> str:
    """Serialize an instance in the canonical format."""
    lines = []
    if comment:
        lines.extend(f"# {line}" for line in comment.splitlines())
    edges = inst.graph.edges()
    lines.append(f"p gm {inst.graph.n} {len(edges)}")
    lines.extend(f"e {u} {v}" for u, v in edges)
    lines.extend(f"c {v} {inst.coloring[v]}" for v in range(inst.graph.n))
    lines.extend(
        f"m {c} {mult}" for c, mult in sorted(inst.motif.multiplicities.items())
    )
    return "\n".join(lines) + "\n"


def parse_witness(text: str) -> List[int]:
    """Whitespace-separated vertex ids; `#` starts a comment."""
    ids = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0]
        for field in line.split():
            try:
                ids.append(int(field))
            except ValueError:
                raise InputError(f"bad witness token {field!r}") from None
    return ids


def format_witness(vertices: Iterable[int]) -> str:
    return " ".join(str(v) for v in sorted(vertices)) + "\n"


def restrict(inst: Instance, vertices: Sequence[int]) -> Tuple[Instance, List[int]]:
    """The sub-instance induced by `vertices`, with the same motif.

    Also returns `ids`, where `ids[i]` is the original id of new vertex `i`
    (ids ascend), so a witness `w` of the sub-instance lifts back to
    `[ids[v] for v in w]`.  When `vertices` are all of 0..n-1, `inst`
    itself is returned.
    """
    ids = sorted(set(vertices))
    if ids == list(range(inst.graph.n)):
        return inst, ids
    sub, _ = inst.graph.induced(ids)
    return Instance(sub, tuple(inst.coloring[v] for v in ids), inst.motif), ids


def prune_wrong_colors(inst: Instance) -> Tuple[Instance, List[int]]:
    """Drop vertices whose color has zero multiplicity in the motif.

    Returns `restrict` on the remaining vertices.  The answer never changes,
    since off-color vertices cannot be part of any solution.
    """
    return restrict(
        inst,
        [v for v in range(inst.graph.n) if inst.motif.count(inst.coloring[v]) > 0],
    )
