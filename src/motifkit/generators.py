"""Hard-instance generators with structural certificates.

Each generator turns a small source problem (exact cover, hitting set,
dominating set, multicolored clique, ...) into a Graph Motif instance whose
answer provably equals the source's answer.  Alongside the instance it emits
a certificate mapping source objects to vertex ids, and a set of claimed
structural parameters that are re-checked at generation time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

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
# Construction and structural-claim helpers


class _Builder:
    """The coloring, edge list and certificate of an instance being built.

    Vertex ids are handed out in creation order, so a generator fixes its
    numbering by the order in which it creates vertices.
    """

    def __init__(self) -> None:
        self.coloring: List[int] = []
        self.edges: List[Tuple[int, int]] = []
        self.certificate: Dict[str, int] = {}

    def vertex(self, color: int) -> int:
        self.coloring.append(color)
        return len(self.coloring) - 1

    def path(self, start: Optional[int], colors: Iterable[int]) -> List[int]:
        """New vertices of these colors, chained one to the next from start
        (no edge in front of the first if start is None); their ids."""
        ids = []
        for color in colors:
            v = self.vertex(color)
            if start is not None:
                self.edges.append((start, v))
            ids.append(v)
            start = v
        return ids

    def clique(self, colors: Iterable[int]) -> List[int]:
        ids = [self.vertex(color) for color in colors]
        self.edges.extend(combinations(ids, 2))
        return ids

    def instance(self, mults: Dict[int, int]) -> Instance:
        graph = Graph(len(self.coloring), self.edges)
        return Instance(graph, tuple(self.coloring), Motif(mults))


def _check(condition: bool, claim: str) -> None:
    if not condition:
        raise RuntimeError(f"structural claim failed at generation time: {claim}")


def _independent(g: Graph, vertices: Sequence[int]) -> bool:
    members = set(vertices)
    return all(members.isdisjoint(g.adjacency[v]) for v in members)


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


def _teeth(
    b: _Builder, x3c: X3cInstance, i: int, long_from: int, short_from: int
) -> Tuple[List[int], List[int]]:
    """Set i's long tooth (head, its three elements, tail) hung from
    long_from, then its short tooth (head, tail) hung from short_from.

    Heads take color i and tails color m + i; element e takes 2m + e.
    """
    m = len(x3c.triples)
    long = b.path(long_from, [i, *(2 * m + e for e in x3c.triples[i]), m + i])
    short = b.path(short_from, [i, m + i])
    b.certificate[f"set:{i}:long"] = long[0]
    b.certificate[f"set:{i}:short"] = short[0]
    return long, short


def gen_x3c_paths(x3c: X3cInstance) -> GeneratedInstance:
    """Root with a long and a short path per set; colorful motif.

    Choosing a set means walking its long path (collecting its three element
    colors); rejecting it means taking the short path.  Both consume the
    set's head and tail colors, so exactly the exact covers survive.
    """
    m = len(x3c.triples)
    if m == 0:
        raise InputError("need at least one triple")
    root_color = 2 * m + 3 * x3c.q
    b = _Builder()
    b.certificate["root"] = b.vertex(root_color)
    for i in range(m):
        _teeth(b, x3c, i, 0, 0)
    inst = b.instance({c: 1 for c in range(root_color + 1)})
    graph = inst.graph

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
    return GeneratedInstance(inst, b.certificate, claims)


def gen_x3c_comb(x3c: X3cInstance) -> GeneratedInstance:
    """Comb-shaped variant: the root is unrolled into a freshly colored spine.

    Every spine vertex carries a unique color, so the whole spine is forced
    into any solution and plays the root's role.  The certificate carries a
    vertex numbering witnessing bandwidth at most 6.
    """
    m = len(x3c.triples)
    if m == 0:
        raise InputError("need at least one triple")
    spine_color = 2 * m + 3 * x3c.q
    b = _Builder()
    order: List[int] = []  # the bandwidth witness, vertex ids by number
    spine: List[int] = []
    for i in range(m):
        spine1, spine2 = b.path(
            spine[-1] if spine else None,
            [spine_color + 2 * i, spine_color + 2 * i + 1],
        )
        spine.extend([spine1, spine2])
        b.certificate[f"set:{i}:spine1"] = spine1
        b.certificate[f"set:{i}:spine2"] = spine2
        long, short = _teeth(b, x3c, i, spine1, spine2)
        # Number each tooth outside-in, then its spine vertex, one tooth
        # after the other.
        order.extend([*reversed(long), spine1, *reversed(short), spine2])
    inst = b.instance({c: 1 for c in range(4 * m + 3 * x3c.q)})
    graph = inst.graph

    number = {v: k for k, v in enumerate(order)}
    gap = max(abs(number[u] - number[v]) for u, v in graph.edges())
    _check(gap <= 6, "bandwidth witness has gap <= 6")
    _check(
        all(graph.has_edge(spine[a], spine[a + 1]) for a in range(len(spine) - 1)),
        "spine is a path",
    )
    claims = {
        "bandwidth-witness-gap": gap,
        "spine-length": 2 * m,
        "colors": 4 * m + 3 * x3c.q,
    }
    b.certificate.update((f"order:{k}", v) for k, v in enumerate(order))
    return GeneratedInstance(inst, b.certificate, claims)


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
    b = _Builder()
    b.certificate["root"] = b.vertex(root_color)
    for i, triple in enumerate(x3c.triples):
        head = b.clique([head_color, *triple])[0]
        b.edges.append((0, head))
        b.certificate[f"set:{i}:head"] = head
    inst = b.instance({root_color: 1, head_color: q, **{e: 1 for e in range(3 * q)}})
    graph = inst.graph

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
    return GeneratedInstance(inst, b.certificate, claims)


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
    b = _Builder()
    b.coloring.extend(inst.coloring)
    b.edges.extend(g.edges())
    u = b.vertex(x)
    s, t = b.path(None, [y, x])
    b.edges.extend((u, v) for v in range(g.n))
    b.edges.append((t, root))
    out = b.instance({**inst.motif.multiplicities, x: 1, y: 1})
    graph = out.graph

    dominated = {u, t} | set(graph.adjacency[u]) | set(graph.adjacency[t])
    _check(dominated == set(range(graph.n)), "{u,t} is a dominating set")
    b.certificate.update(u=u, s=s, t=t, root=root)
    claims = {"dominating-set-size": 2}
    return GeneratedInstance(out, b.certificate, claims)


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
    b = _Builder()
    b.certificate["z"] = b.vertex(special)
    for v in range(h.n):
        colors = [w + 1 for w in sorted({v, *h.adjacency[v]})]
        if variant == "cluster":
            anchor = b.clique([special, *colors])[0]
        else:
            anchor = b.vertex(special)
            for color in colors:
                b.path(anchor, [color])
        b.edges.append((0, anchor))
        b.certificate[f"vertex:{v}:anchor"] = anchor
    inst = b.instance({special: t + 1, **{v + 1: 1 for v in range(h.n)}})
    graph = inst.graph

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
    return GeneratedInstance(inst, b.certificate, claims)


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


def _split_graph(
    s: SetSystem, clique_side: str, mults: Dict[int, int], empty: str, claim: str
) -> GeneratedInstance:
    """Element vertices 0..n-1 (color 1), then one vertex per set (color 2)
    joined to its elements; clique_side, "element" or "set", is a clique and
    the other side is independent.  `claim` names the parameter n bounds.
    """
    b = _Builder()
    sides = {
        "element": [b.vertex(1) for _ in range(s.n)],
        "set": [b.vertex(2) for _ in s.sets],
    }
    other_side = "set" if clique_side == "element" else "element"
    clique, other = sides[clique_side], sides[other_side]
    b.edges.extend(combinations(clique, 2))
    for j, members in enumerate(s.sets):
        b.edges.extend((e, sides["set"][j]) for e in members)
    mults = {c: v for c, v in mults.items() if v > 0}
    if not mults:
        raise InputError(empty)
    inst = b.instance(mults)
    graph = inst.graph

    _check(graph.is_clique(clique), f"{clique_side} side is a clique")
    # The two sides partition V, so this also makes the clique side a vertex cover.
    _check(_independent(graph, other), f"{other_side} side is independent")
    b.certificate.update((f"element:{i}", v) for i, v in enumerate(sides["element"]))
    b.certificate.update((f"set:{j}", v) for j, v in enumerate(sides["set"]))
    claims = {claim: s.n, "split-graph": 1}
    return GeneratedInstance(inst, b.certificate, claims)


def gen_hitting_set_split(s: SetSystem) -> GeneratedInstance:
    """Hitting set as a split graph: element clique vs. independent sets.

    Element vertices (color 1) form a clique and are a vertex cover; set
    vertices (color 2) are independent.  The motif asks for t elements and
    all m set vertices.
    """
    if s.budget > s.n:
        raise InputError("budget exceeds the number of elements")
    return _split_graph(
        s,
        "element",
        {1: s.budget, 2: len(s.sets)},
        "zero budget and empty family give an empty motif",
        "vertex-cover-size",
    )


def gen_set_cover_split(s: SetSystem) -> GeneratedInstance:
    """Set cover as the mirror split graph: set clique vs. element side.

    Removing the independent element side (color 1) leaves the set clique,
    so the distance to clique is at most n.  The motif asks for every
    element and t sets.
    """
    if s.budget > len(s.sets):
        raise InputError("budget exceeds the number of sets")
    return _split_graph(
        s,
        "set",
        {1: s.n, 2: s.budget},
        "empty universe and zero budget give an empty motif",
        "distance-to-clique",
    )


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

    b = _Builder()
    b.certificate["center"] = b.vertex(c0)
    warnings: List[str] = []

    # Slack leg: s empty blocks.
    b.certificate["slack:first"] = b.path(0, [cb, ce] * s)[0]

    # One leg per class: t-1 copies of the class block.
    for i in range(k):
        internal = [
            pair_color[(l, i)] for l in range(i) if (l, i) in pair_color
        ]
        for j in range(i + 1, k):
            if (i, j) in pair_color:
                internal.extend([pair_color[(i, j)]] * t)
        ids = b.path(0, [cb, *sorted(internal), ce] * (t - 1))
        block_len = len(internal) + 2
        for q in range(2, t + 1):
            b.certificate[f"stop:{i}:{q}"] = ids[(q - 1) * block_len - 1]

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
        ids = b.path(0, [c for d in deltas for c in [cb, *[color] * d, ce]])
        pos = 0
        for h, d in enumerate(deltas):
            pos += d + 2
            code = t * t - complemented[h]
            b.certificate[f"edge:{i}:{j}:{code}"] = ids[pos - 1]

    mults = {c0: 1, cb: s, ce: s}
    mults.update({pair_color[pair]: t * t for pair in pairs})
    inst = b.instance(mults)
    graph = inst.graph

    # Alternating property: walking any leg outward, begin- and end-colored
    # vertices strictly alternate starting with begin, ending with end.
    for first in graph.adjacency[0]:
        walk = [0, first]
        while True:
            nxt = [u for u in graph.adjacency[walk[-1]] if u != walk[-2]]
            if not nxt:
                break
            walk.append(nxt[0])
        marks = [b.coloring[v] for v in walk[1:] if b.coloring[v] in (cb, ce)]
        _check(
            marks[0] == cb
            and marks[-1] == ce
            and all(x != y for x, y in zip(marks, marks[1:])),
            "legs are tiled by begin/end blocks",
        )
    legs = graph.degree(0)
    leaves = sum(1 for v in range(graph.n) if graph.degree(v) == 1)
    _check(leaves == legs, "one leaf per leg")
    claims = {
        "max-leaf": leaves,
        "legs": legs,
        "slack-length": 2 * s,
        "colors": 3 + len(pairs),
    }
    return GeneratedInstance(inst, b.certificate, claims, tuple(warnings))


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
    subsets = list(combinations(range(3 * q), 3))
    subset_index = {s: i for i, s in enumerate(subsets)}

    # The colorful variant gives each of q layers of subset vertices, and
    # each element, a color of its own.
    if colorful:
        selector_color, layer_colors = 4 * q, list(range(q))
        element_colors = [q + j for j in range(3 * q)]
    else:
        selector_color, layer_colors, element_colors = 1, [2], [3] * (3 * q)

    b = _Builder()
    selectors = [b.vertex(selector_color) for _ in instances]
    layers = [[b.vertex(c) for _ in subsets] for c in layer_colors]
    elements = [b.vertex(c) for c in element_colors]
    for i, x in enumerate(instances):
        b.certificate[f"instance:{i}"] = selectors[i]
        for triple in x.triples:
            idx = subset_index[triple]
            b.edges.extend((selectors[i], layer[idx]) for layer in layers)
    for layer in layers:
        for idx, sub in enumerate(subsets):
            b.edges.extend((layer[idx], elements[j]) for j in sub)
    # One selector, q subset vertices spread evenly over the layers, and
    # every element.
    chosen = [selector_color, *layer_colors * (q // len(layers)), *element_colors]
    inst = b.instance(Counter(chosen))
    graph = inst.graph

    _check(_independent(graph, selectors), "selector vertices are independent")
    _check(
        _independent(graph, [v for layer in layers for v in layer]),
        "subset vertices are independent",
    )
    claims = {
        "instances": len(instances),
        "subset-vertices": len(subsets) * len(layers),
        "colorful": int(colorful),
    }
    return GeneratedInstance(inst, b.certificate, claims)
