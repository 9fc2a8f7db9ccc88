"""Hard-instance generators with structural certificates.

Each generator turns a small source problem (exact cover, hitting set,
dominating set, multicolored clique, ...) into a Graph Motif instance whose
answer provably equals the source's answer.  Alongside the instance it emits
a certificate mapping source objects to vertex ids, and a set of claimed
structural parameters that are re-checked at generation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .core import Graph, InputError, Instance, Motif, connected_components


# ---------------------------------------------------------------------------
# Source-problem types


@dataclass(frozen=True)
class X3cInstance:
    """Exact cover by 3-sets over a universe of 3q elements."""

    q: int
    triples: Tuple[Tuple[int, int, int], ...]

    def __post_init__(self):
        if self.q < 1:
            raise InputError("q must be >= 1")
        norm = []
        for triple in self.triples:
            if len(set(triple)) != 3:
                raise InputError(f"triple {triple} must have 3 distinct elements")
            for e in triple:
                if not 0 <= e < 3 * self.q:
                    raise InputError(f"element {e} out of universe [0,{3 * self.q})")
            norm.append(tuple(sorted(triple)))
        object.__setattr__(self, "triples", tuple(norm))

    @property
    def universe(self) -> int:
        return 3 * self.q

    def has_exact_cover(self) -> bool:
        """Source-side brute force, for round-trip tests."""
        for chosen in combinations(self.triples, self.q):
            if len({e for t in chosen for e in t}) == self.universe:
                return True
        return False


@dataclass(frozen=True)
class SetSystem:
    """A family of sets over [0,n) with a selection budget."""

    n: int
    sets: Tuple[Tuple[int, ...], ...]
    budget: int

    def __post_init__(self):
        if self.n < 0 or self.budget < 0:
            raise InputError("n and budget must be nonnegative")
        norm = []
        for s in self.sets:
            for e in s:
                if not 0 <= e < self.n:
                    raise InputError(f"element {e} out of range [0,{self.n})")
            norm.append(tuple(sorted(set(s))))
        object.__setattr__(self, "sets", tuple(norm))

    def has_hitting_set(self) -> bool:
        elems = range(self.n)
        for size in range(min(self.budget, self.n) + 1):
            for chosen in combinations(elems, size):
                if all(set(chosen) & set(s) for s in self.sets):
                    return True
        return False

    def has_set_cover(self) -> bool:
        universe = set(range(self.n))
        for size in range(min(self.budget, len(self.sets)) + 1):
            for chosen in combinations(self.sets, size):
                if set().union(*chosen) >= universe if chosen else not universe:
                    return True
        return False


@dataclass(frozen=True)
class PartitionedGraph:
    """k classes of t vertices each; global ids 0..kt-1, class(v) = v // t.

    When a pattern is given, edges may only run between pattern pairs, and
    only those pairs get encoded (the subgraph-isomorphism variant).
    """

    k: int
    t: int
    edges: Tuple[Tuple[int, int], ...]
    pattern: Optional[FrozenSet[Tuple[int, int]]] = None

    def __post_init__(self):
        if self.k < 2 or self.t < 1:
            raise InputError("need k >= 2 classes of t >= 1 vertices")
        n = self.k * self.t
        norm = []
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range")
            if u // self.t == v // self.t:
                raise InputError(f"edge ({u},{v}) inside one class")
            norm.append((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", tuple(sorted(set(norm))))
        if self.pattern is not None:
            pat = frozenset(
                (min(i, j), max(i, j)) for i, j in self.pattern
            )
            for i, j in pat:
                if not (0 <= i < j < self.k):
                    raise InputError(f"pattern pair ({i},{j}) out of range")
            for u, v in self.edges:
                if (u // self.t, v // self.t) not in pat:
                    raise InputError(
                        f"edge ({u},{v}) joins classes outside the pattern"
                    )
            object.__setattr__(self, "pattern", pat)

    def pairs(self) -> List[Tuple[int, int]]:
        if self.pattern is not None:
            return sorted(self.pattern)
        return [(i, j) for i in range(self.k) for j in range(i + 1, self.k)]

    def class_vertices(self, i: int) -> range:
        return range(i * self.t, (i + 1) * self.t)

    def has_pattern_clique(self) -> bool:
        """One vertex per class, adjacent along every required pair."""
        es = set(self.edges)
        pairs = self.pairs()

        def ok(chosen: List[int], v: int) -> bool:
            i = len(chosen)
            return all((chosen[a], v) in es for a, b in pairs if b == i)

        def rec(chosen: List[int]) -> bool:
            if len(chosen) == self.k:
                return True
            return any(
                rec(chosen + [v])
                for v in self.class_vertices(len(chosen))
                if ok(chosen, v)
            )

        return rec([])


@dataclass(frozen=True)
class GeneratedInstance:
    """An emitted instance plus its certificate and verified claims."""

    instance: Instance
    certificate: Dict[str, int]
    claims: Dict[str, object]
    warnings: Tuple[str, ...] = ()

    def __post_init__(self):
        n = self.instance.graph.n
        for token, vid in self.certificate.items():
            if not 0 <= vid < n:
                raise InputError(f"certificate id {vid} for {token} out of range")


def format_certificate(generated: GeneratedInstance) -> str:
    """Sidecar file: `map <token> <vertex-id>` and `claim <param> <value>` lines."""
    lines = [
        f"map {token} {vid}"
        for token, vid in sorted(generated.certificate.items())
    ]
    lines.extend(
        f"claim {name} {value}" for name, value in sorted(generated.claims.items())
    )
    lines.extend(f"# warning: {w}" for w in generated.warnings)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Structural-claim helpers


def _check(condition: bool, claim: str) -> None:
    if not condition:
        raise RuntimeError(f"structural claim failed at generation time: {claim}")


def _is_path_component(g: Graph, comp: Sequence[int]) -> bool:
    degs = sorted(len([u for u in g.adjacency[v] if u in set(comp)]) for v in comp)
    if len(comp) == 1:
        return degs == [0]
    return degs[:2] == [1, 1] and all(d == 2 for d in degs[2:])


def _components_after_removal(g: Graph, removed: int) -> List[List[int]]:
    rest = [v for v in range(g.n) if v != removed]
    return connected_components(g, rest)


# ---------------------------------------------------------------------------
# Exact cover constructions


def gen_x3c_paths(x3c: X3cInstance) -> GeneratedInstance:
    """Root with a long and a short path per set; colorful motif.

    Choosing a set means walking its long path (collecting its three element
    colors); rejecting it means taking the short path.  Both consume the
    set's head and tail colors, so exactly the exact covers survive.
    """
    m = len(x3c.triples)
    q = x3c.q
    if m == 0:
        raise InputError("need at least one triple")
    root_color = 2 * m + 3 * q
    edges: List[Tuple[int, int]] = []
    coloring: List[int] = [root_color]
    certificate: Dict[str, int] = {"root": 0}

    def add_vertex(color: int) -> int:
        coloring.append(color)
        return len(coloring) - 1

    for i, triple in enumerate(x3c.triples):
        head1 = add_vertex(i)
        edges.append((0, head1))
        prev = head1
        for e in triple:
            ev = add_vertex(2 * m + e)
            edges.append((prev, ev))
            prev = ev
        tail1 = add_vertex(m + i)
        edges.append((prev, tail1))
        head2 = add_vertex(i)
        tail2 = add_vertex(m + i)
        edges.extend([(0, head2), (head2, tail2)])
        certificate[f"set:{i}:long"] = head1
        certificate[f"set:{i}:short"] = head2

    graph = Graph(len(coloring), edges)
    motif = Motif({c: 1 for c in range(root_color + 1)})
    inst = Instance(graph, tuple(coloring), motif)

    comps = _components_after_removal(graph, 0)
    _check(len(comps) == 2 * m, "root removal leaves two paths per set")
    _check(
        all(_is_path_component(graph, comp) for comp in comps),
        "every root-free component is a path",
    )
    claims = {
        "distance-to-disjoint-paths": 1,
        "paths-after-root-removal": 2 * m,
        "colors": root_color + 1,
    }
    return GeneratedInstance(inst, certificate, claims)


def gen_x3c_comb(x3c: X3cInstance) -> GeneratedInstance:
    """Comb-shaped variant: the root is unrolled into a freshly colored spine.

    Every spine vertex carries a unique color, so the whole spine is forced
    into any solution and plays the root's role.  The certificate carries a
    vertex numbering witnessing bandwidth at most 6.
    """
    m = len(x3c.triples)
    q = x3c.q
    if m == 0:
        raise InputError("need at least one triple")
    edges: List[Tuple[int, int]] = []
    coloring: List[int] = []
    certificate: Dict[str, int] = {}

    def add_vertex(color: int) -> int:
        coloring.append(color)
        return len(coloring) - 1

    numbering: Dict[int, int] = {}
    counter = 0

    def number(v: int) -> None:
        nonlocal counter
        numbering[v] = counter
        counter += 1

    prev_spine = None
    for i, triple in enumerate(x3c.triples):
        spine1 = add_vertex(2 * m + 3 * q + 2 * i)
        spine2 = add_vertex(2 * m + 3 * q + 2 * i + 1)
        edges.append((spine1, spine2))
        if prev_spine is not None:
            edges.append((prev_spine, spine1))
        prev_spine = spine2
        # Long tooth on spine1, short tooth on spine2.
        head1 = add_vertex(i)
        edges.append((spine1, head1))
        prev = head1
        tooth1 = [head1]
        for e in triple:
            ev = add_vertex(2 * m + e)
            edges.append((prev, ev))
            prev = ev
            tooth1.append(ev)
        tail1 = add_vertex(m + i)
        edges.append((prev, tail1))
        tooth1.append(tail1)
        head2 = add_vertex(i)
        tail2 = add_vertex(m + i)
        edges.extend([(spine2, head2), (head2, tail2)])
        certificate[f"set:{i}:spine1"] = spine1
        certificate[f"set:{i}:spine2"] = spine2
        certificate[f"set:{i}:long"] = head1
        certificate[f"set:{i}:short"] = head2
        # Bandwidth witness: number each tooth outside-in, then its spine
        # vertex, one tooth after the other.
        for v in reversed(tooth1):
            number(v)
        number(spine1)
        number(tail2)
        number(head2)
        number(spine2)

    graph = Graph(len(coloring), edges)
    motif = Motif({c: 1 for c in range(4 * m + 3 * q)})
    inst = Instance(graph, tuple(coloring), motif)

    gap = max(abs(numbering[u] - numbering[v]) for u, v in graph.edges())
    _check(gap <= 6, "bandwidth witness has gap <= 6")
    spine = [certificate[f"set:{i}:spine{j}"] for i in range(m) for j in (1, 2)]
    _check(
        all(graph.has_edge(spine[a], spine[a + 1]) for a in range(len(spine) - 1)),
        "spine is a path",
    )
    claims = {
        "bandwidth-witness-gap": gap,
        "spine-length": 2 * m,
        "colors": 4 * m + 3 * q,
    }
    for v, num in numbering.items():
        certificate[f"order:{num}"] = v
    return GeneratedInstance(inst, certificate, claims)


def gen_x3c_superstar_cliques(x3c: X3cInstance) -> GeneratedInstance:
    """Root attached to one clique per set; distance 1 to cluster.

    Each clique holds a head (all heads share one color, q of which the
    motif demands) and one vertex per element of the set.  Any element
    vertex can only reach the root through its head, so the chosen heads
    must form an exact cover.
    """
    m = len(x3c.triples)
    q = x3c.q
    if m == 0:
        raise InputError("need at least one triple")
    head_color = 3 * q
    root_color = 3 * q + 1
    edges: List[Tuple[int, int]] = []
    coloring: List[int] = [root_color]
    certificate: Dict[str, int] = {"root": 0}
    for i, triple in enumerate(x3c.triples):
        base = len(coloring)
        coloring.append(head_color)
        for e in triple:
            coloring.append(e)
        members = list(range(base, len(coloring)))
        edges.append((0, base))
        edges.extend(
            (members[a], members[b])
            for a in range(len(members))
            for b in range(a + 1, len(members))
        )
        certificate[f"set:{i}:head"] = base

    graph = Graph(len(coloring), edges)
    motif = Motif(
        {root_color: 1, head_color: q, **{e: 1 for e in range(3 * q)}}
    )
    inst = Instance(graph, tuple(coloring), motif)

    comps = _components_after_removal(graph, 0)
    _check(
        all(graph.is_clique(comp) for comp in comps),
        "root removal leaves a cluster graph",
    )
    _check(len(comps) == m, "one clique per set")
    claims = {
        "distance-to-cluster": 1,
        "cliques-after-root-removal": m,
        "max-clique-size": max(len(t) for t in x3c.triples) + 1,
    }
    return GeneratedInstance(inst, certificate, claims)


# ---------------------------------------------------------------------------
# Dominating-set constructions


def gen_domset_gadget(inst: Instance, root: int) -> GeneratedInstance:
    """Wrap a rooted instance so the result has a dominating set of size 2.

    A universal vertex u plus a pendant path s-t hanging off the root force
    any solution to pass through the root, so the wrapped answer equals the
    rooted answer of the source.
    """
    g = inst.graph
    if not 0 <= root < g.n:
        raise InputError(f"root {root} out of range")
    x = 1 + max(max(inst.coloring, default=0), max(inst.motif.multiplicities))
    y = x + 1
    u, s, t = g.n, g.n + 1, g.n + 2
    edges = g.edges()
    edges.extend((u, v) for v in range(g.n))
    edges.extend([(s, t), (t, root)])
    coloring = tuple(inst.coloring) + (x, y, x)
    motif = Motif({**inst.motif.multiplicities, x: 1, y: 1})
    graph = Graph(g.n + 3, edges)
    out = Instance(graph, coloring, motif)

    dominated = {u, t} | set(graph.adjacency[u]) | set(graph.adjacency[t])
    _check(dominated == set(range(graph.n)), "{u,t} is a dominating set")
    certificate = {"u": u, "s": s, "t": t, "root": root}
    claims = {"dominating-set-size": 2}
    return GeneratedInstance(out, certificate, claims)


def gen_domset_reduction(
    h: Graph, t: int, variant: str = "cluster"
) -> GeneratedInstance:
    """Dominating set of size t in h, as a motif instance.

    Per vertex v a gadget over N[v]: a special-colored anchor plus one
    vertex per closed neighbor's color, forming a clique (or a star around
    the anchor for the tree variant).  A hub z joins all anchors; the motif
    asks for t+1 special vertices and every vertex color once.
    """
    if variant not in ("cluster", "tree"):
        raise InputError(f"unknown variant {variant!r}")
    if not 1 <= t <= h.n:
        raise InputError("budget must satisfy 1 <= t <= |V(h)|")
    special = 0
    edges: List[Tuple[int, int]] = []
    coloring: List[int] = [special]  # z is vertex 0
    certificate: Dict[str, int] = {"z": 0}
    for v in range(h.n):
        base = len(coloring)
        coloring.append(special)
        for w in sorted(set(h.adjacency[v]) | {v}):
            coloring.append(w + 1)
        members = list(range(base, len(coloring)))
        edges.append((0, base))
        if variant == "cluster":
            edges.extend(
                (members[a], members[b])
                for a in range(len(members))
                for b in range(a + 1, len(members))
            )
        else:
            edges.extend((base, w) for w in members[1:])
        certificate[f"vertex:{v}:anchor"] = base

    graph = Graph(len(coloring), edges)
    motif = Motif({special: t + 1, **{v + 1: 1 for v in range(h.n)}})
    inst = Instance(graph, tuple(coloring), motif)

    if variant == "cluster":
        comps = _components_after_removal(graph, 0)
        _check(
            all(graph.is_clique(comp) for comp in comps),
            "hub removal leaves a cluster graph",
        )
        claims: Dict[str, object] = {
            "distance-to-cluster": 1,
            "cliques-after-hub-removal": h.n,
        }
    else:
        _check(
            graph.num_edges() == graph.n - 1
            and len(connected_components(graph, range(graph.n))) == 1,
            "tree variant emits a tree",
        )
        claims = {"is-tree": 1}
    return GeneratedInstance(inst, certificate, claims)


def domset_brute(h: Graph, t: int) -> bool:
    """Source-side oracle: does h have a dominating set of size <= t?"""
    closed = [set(h.adjacency[v]) | {v} for v in range(h.n)]
    everything = set(range(h.n))
    for size in range(min(t, h.n) + 1):
        for chosen in combinations(range(h.n), size):
            covered = set()
            for v in chosen:
                covered |= closed[v]
            if covered == everything:
                return True
    return False


# ---------------------------------------------------------------------------
# Split-graph constructions


def gen_hitting_set_split(s: SetSystem) -> GeneratedInstance:
    """Hitting set as a split graph: element clique vs. independent sets.

    Element vertices (color 1) form a clique and are a vertex cover; set
    vertices (color 2) are independent.  The motif asks for t elements and
    all m set vertices.
    """
    n, m, t = s.n, len(s.sets), s.budget
    if t > n:
        raise InputError("budget exceeds the number of elements")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for j, members in enumerate(s.sets):
        edges.extend((e, n + j) for e in members)
    coloring = tuple([1] * n + [2] * m)
    mults = {c: v for c, v in ((1, t), (2, m)) if v > 0}
    if not mults:
        raise InputError("zero budget and empty family give an empty motif")
    graph = Graph(n + m, edges)
    inst = Instance(graph, coloring, Motif(mults))

    _check(graph.is_clique(range(n)), "element side is a clique")
    _check(
        all(
            not graph.has_edge(n + a, n + b)
            for a in range(m)
            for b in range(a + 1, m)
        ),
        "set side is independent",
    )
    _check(
        all(u < n or v < n for u, v in graph.edges()),
        "element side is a vertex cover",
    )
    certificate = {f"element:{i}": i for i in range(n)}
    certificate.update({f"set:{j}": n + j for j in range(m)})
    claims = {"vertex-cover-size": n, "split-graph": 1}
    return GeneratedInstance(inst, certificate, claims)


def gen_set_cover_split(s: SetSystem) -> GeneratedInstance:
    """Set cover as the mirror split graph: set clique vs. element side.

    Removing the independent element side (color 1) leaves the set clique,
    so the distance to clique is at most n.  The motif asks for every
    element and t sets.
    """
    n, m, t = s.n, len(s.sets), s.budget
    if t > m:
        raise InputError("budget exceeds the number of sets")
    edges = [(n + i, n + j) for i in range(m) for j in range(i + 1, m)]
    for j, members in enumerate(s.sets):
        edges.extend((e, n + j) for e in members)
    coloring = tuple([1] * n + [2] * m)
    mults = {c: v for c, v in ((1, n), (2, t)) if v > 0}
    if not mults:
        raise InputError("empty universe and zero budget give an empty motif")
    graph = Graph(n + m, edges)
    inst = Instance(graph, coloring, Motif(mults))

    _check(graph.is_clique(range(n, n + m)), "set side is a clique")
    _check(
        all(
            not graph.has_edge(a, b) for a in range(n) for b in range(a + 1, n)
        ),
        "element side is independent",
    )
    certificate = {f"element:{i}": i for i in range(n)}
    certificate.update({f"set:{j}": n + j for j in range(m)})
    claims = {"distance-to-clique": n, "split-graph": 1}
    return GeneratedInstance(inst, certificate, claims)


# ---------------------------------------------------------------------------
# Subdivided-star construction


def gen_mcc_star(p: PartitionedGraph) -> GeneratedInstance:
    """Multicolored-clique (or pattern) search on a subdivided star.

    Every leg is tiled by blocks that start with a begin-colored vertex and
    end with an end-colored vertex; solutions must stop at block ends.  Per
    class a leg whose stopping point picks a vertex, per (pattern) pair a
    leg whose block lengths encode the complemented edge codes, plus one
    alternating slack leg.
    """
    k, t = p.k, p.t
    if t < 2:
        raise InputError("classes of size 1 leave nothing to encode; need t >= 2")
    pairs = p.pairs()
    pair_color = {pair: 3 + idx for idx, pair in enumerate(pairs)}
    c0, cb, ce = 0, 1, 2
    s = k * (t - 1) + len(pairs) * t * t
    edge_set = set(p.edges)

    edges: List[Tuple[int, int]] = []
    coloring: List[int] = [c0]
    certificate: Dict[str, int] = {"center": 0}
    warnings: List[str] = []
    leg_ends: List[int] = []

    def add_leg(colors: Sequence[int]) -> List[int]:
        ids = []
        prev = 0
        for color in colors:
            coloring.append(color)
            v = len(coloring) - 1
            edges.append((prev, v))
            prev = v
            ids.append(v)
        leg_ends.append(ids[-1])
        return ids

    def block(internal: Sequence[int]) -> List[int]:
        return [cb] + sorted(internal) + [ce]

    # Slack leg: s empty blocks.
    slack = add_leg([cb, ce] * s)
    certificate["slack:first"] = slack[0]

    # One leg per class: t-1 copies of the class block.
    for i in range(k):
        internal = [
            pair_color[(l, i)] for l in range(i) if (l, i) in pair_color
        ]
        for j in range(i + 1, k):
            if (i, j) in pair_color:
                internal.extend([pair_color[(i, j)]] * t)
        ids = add_leg(block(internal) * (t - 1))
        block_len = len(internal) + 2
        for q in range(2, t + 1):
            certificate[f"stop:{i}:{q}"] = ids[(q - 1) * block_len - 1]

    # One leg per pair: block lengths encode complemented edge codes.
    for (i, j) in pairs:
        color = pair_color[(i, j)]
        codes = sorted(
            qi * t + qj
            for qi in range(t)
            for qj in range(t)
            if (i * t + qi, j * t + qj) in edge_set
        )
        if not codes:
            warnings.append(
                f"pair ({i},{j}) has no edges; the instance has no solution"
            )
            continue
        complemented = sorted(t * t - x for x in codes)
        deltas = [complemented[0]] + [
            complemented[h] - complemented[h - 1]
            for h in range(1, len(complemented))
        ]
        colors: List[int] = []
        for d in deltas:
            colors.extend(block([color] * d))
        ids = add_leg(colors)
        pos = 0
        for h, d in enumerate(deltas):
            pos += d + 2
            code = t * t - complemented[h]
            certificate[f"edge:{i}:{j}:{code}"] = ids[pos - 1]

    graph = Graph(len(coloring), edges)
    mults = {c0: 1, cb: s, ce: s}
    mults.update({pair_color[pair]: t * t for pair in pairs})
    inst = Instance(graph, tuple(coloring), Motif(mults))

    # Alternating property: walking any leg outward, begin- and end-colored
    # vertices strictly alternate starting with begin, ending with end.
    for first in graph.adjacency[0]:
        walk = [0, first]
        while True:
            nxt = [u for u in graph.adjacency[walk[-1]] if u != walk[-2]]
            if not nxt:
                break
            walk.append(nxt[0])
        marks = [coloring[v] for v in walk[1:] if coloring[v] in (cb, ce)]
        _check(
            marks[0] == cb
            and marks[-1] == ce
            and all(a != b for a, b in zip(marks, marks[1:])),
            "legs are tiled by begin/end blocks",
        )
    leaves = sum(1 for v in range(graph.n) if graph.degree(v) == 1)
    _check(leaves == len(leg_ends), "one leaf per leg")
    claims = {
        "max-leaf": leaves,
        "legs": len(leg_ends),
        "slack-length": 2 * s,
        "colors": 3 + len(pairs),
    }
    return GeneratedInstance(inst, certificate, claims, tuple(warnings))


# ---------------------------------------------------------------------------
# OR-composition


def gen_or_composition(
    instances: Sequence[X3cInstance], colorful: bool = False
) -> GeneratedInstance:
    """Disjunction of same-shape exact-cover instances in one motif instance.

    Selector vertices (one per source instance) attach to subset vertices,
    one per 3-subset of the shared universe; element vertices hang below.
    An exact cover uses pairwise disjoint subsets, so the lone selector is
    the only thing that can glue them together — forcing all chosen subsets
    to belong to a single source instance.
    """
    if not instances:
        raise InputError("need at least one instance")
    q = instances[0].q
    m = len(instances[0].triples)
    for x in instances:
        if x.q != q or len(x.triples) != m:
            raise InputError("instances must share q and the number of triples")
    t = len(instances)
    subsets = list(combinations(range(3 * q), 3))
    subset_index = {s: i for i, s in enumerate(subsets)}
    layers = q if colorful else 1

    edges: List[Tuple[int, int]] = []
    coloring: List[int] = []
    certificate: Dict[str, int] = {}

    if colorful:
        layer_color = list(range(q))
        elem_color = [q + j for j in range(3 * q)]
        selector_color = 4 * q
    else:
        selector_color, subset_color, element_color = 1, 2, 3

    selector_ids = list(range(t))
    coloring.extend([selector_color] * t)
    subset_ids: Dict[Tuple[int, int], int] = {}
    for layer in range(layers):
        for idx, sub in enumerate(subsets):
            coloring.append(layer_color[layer] if colorful else subset_color)
            subset_ids[(layer, idx)] = len(coloring) - 1
    element_ids = []
    for j in range(3 * q):
        coloring.append(elem_color[j] if colorful else element_color)
        element_ids.append(len(coloring) - 1)

    for i, x in enumerate(instances):
        certificate[f"instance:{i}"] = selector_ids[i]
        for triple in x.triples:
            idx = subset_index[triple]
            for layer in range(layers):
                edges.append((selector_ids[i], subset_ids[(layer, idx)]))
    for idx, sub in enumerate(subsets):
        for layer in range(layers):
            for j in sub:
                edges.append((subset_ids[(layer, idx)], element_ids[j]))

    graph = Graph(len(coloring), sorted(set(edges)))
    if colorful:
        mults = {selector_color: 1}
        mults.update({layer_color[l]: 1 for l in range(q)})
        mults.update({elem_color[j]: 1 for j in range(3 * q)})
    else:
        mults = {selector_color: 1, subset_color: q, element_color: 3 * q}
    inst = Instance(graph, tuple(coloring), Motif(mults))

    _check(
        all(
            not graph.has_edge(a, b)
            for a in range(t)
            for b in range(a + 1, t)
        ),
        "selector vertices are independent",
    )
    sub_vertices = sorted(subset_ids.values())
    _check(
        all(
            not graph.has_edge(u, v)
            for a, u in enumerate(sub_vertices)
            for v in sub_vertices[a + 1 :]
        ),
        "subset vertices are independent",
    )
    claims = {
        "instances": t,
        "subset-vertices": len(subsets) * layers,
        "colorful": int(colorful),
    }
    return GeneratedInstance(inst, certificate, claims)
