"""Finite simple undirected graphs with stable string labels.

Graphs are immutable values: every mutation-like operation returns a new
graph, so they can be hashed, memoized and shared freely.  What a graph derives
is kept as cached properties, its greedy pass over the dominated-vertex mask
kernel among them, so that kernel lives here too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence


class GraphError(ValueError):
    """Structurally invalid graph data or an unknown label."""


class UnknownVertexError(GraphError):
    pass


class UnknownEdgeError(GraphError):
    pass


class BudgetExceededError(RuntimeError):
    """An enumeration or search outgrew its configured cap."""


DEFAULT_CLIQUE_CAP = 1_000_000
DEFAULT_ISO_CAP = 256


def edge_key(a: str, b: str) -> frozenset[str]:
    if a == b:
        raise GraphError(f"self-loop on {a!r}")
    return frozenset((a, b))


def sorted_pair(e: Iterable[str]) -> tuple[str, str]:
    ends = sorted(e)
    if len(ends) != 2 or ends[0] == ends[1]:
        raise GraphError(f"{ends} is not a pair of distinct labels")
    return ends[0], ends[1]


def subset_label(members: Iterable[str]) -> str:
    """Deterministic label for a set of labels: sorted, comma-joined, bracketed."""
    return "[" + ",".join(sorted(members)) + "]"


def fresh_labels(taken: Iterable[str], count: int, stem: str = "_x") -> list[str]:
    """`count` labels of the form `<stem><n>` not colliding with `taken`."""
    seen = set(taken)
    out: list[str] = []
    i = 0
    while len(out) < count:
        i += 1
        cand = f"{stem}{i}"
        if cand not in seen:
            out.append(cand)
            seen.add(cand)
    return out


class Masks(NamedTuple):
    """A graph on bitmasks: bit i stands for the i-th of its sorted labels.

    `bit` maps each label to its one-bit mask, and `closed` maps those bits,
    in label order, to the closed neighbourhoods' masks.  A mask's lowest bit
    is its least label.
    """

    labels: tuple[str, ...]
    bit: dict[str, int]
    closed: dict[int, int]

    def label_set(self, mask: int) -> frozenset[str]:
        return frozenset(self.labels[b.bit_length() - 1] for b in _bits(mask))


def _masks_of(adj: Mapping[str, Iterable[str]], vertices: Iterable[str]) -> Masks:
    """The Masks of the subgraph that `vertices` induce in the adjacency adj."""
    labels = tuple(sorted(vertices))
    bit = {v: 1 << i for i, v in enumerate(labels)}
    closed = {}
    for v, b in bit.items():
        for u in adj[v]:
            b |= bit.get(u, 0)
        closed[bit[v]] = b
    return Masks(labels, bit, closed)


@dataclass(frozen=True)
class Graph:
    vertices: frozenset[str]
    edges: frozenset[frozenset[str]]

    @staticmethod
    def make(vertices: Iterable[str] = (), edges: Iterable[Iterable[str]] = ()) -> "Graph":
        """Validated constructor; rejects loops and undeclared endpoints."""
        vs = frozenset(vertices)
        for v in vs:
            if not isinstance(v, str):
                raise GraphError(f"vertex label {v!r} is not a string")
        es: set[frozenset[str]] = set()
        for e in edges:
            pair = tuple(e)
            if len(pair) != 2 or pair[0] == pair[1]:
                raise GraphError(f"edge {pair!r} is not an unordered pair of distinct vertices")
            for end in pair:
                if end not in vs:
                    raise UnknownVertexError(f"edge endpoint {end!r} is not a declared vertex")
            es.add(frozenset(pair))
        return Graph(vs, frozenset(es))

    @cached_property
    def adjacency(self) -> dict[str, frozenset[str]]:
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for e in self.edges:
            a, b = e
            adj[a].add(b)
            adj[b].add(a)
        return {v: frozenset(s) for v, s in adj.items()}

    @cached_property
    def _masks(self) -> Masks:
        return _masks_of(self.adjacency, self.vertices)

    @cached_property
    def _greedy(self) -> tuple[int, tuple]:
        """`_mask_core` of the graph: its core's vertex mask and the steps."""
        core, steps = _mask_core(dict(self._masks.closed))
        return sum(core), steps

    @cached_property
    def _cliques(self) -> tuple[frozenset[str], ...]:
        """Every complete subgraph, by size and then labels, decoded from the
        `clique_masks` levels of `_masks`; raises BudgetExceededError at the
        level that takes the count past DEFAULT_CLIQUE_CAP, and keeps nothing."""
        labels, _, closed = self._masks
        out: list[frozenset[str]] = []
        prefix = {0: frozenset()}  # the last level's members by mask
        for level in _clique_levels(closed):
            if len(out) + len(level) > DEFAULT_CLIQUE_CAP:
                raise BudgetExceededError(f"more than {DEFAULT_CLIQUE_CAP} complete subgraphs")
            prefix = {c: prefix[c ^ (1 << top)] | {labels[top]}
                      for c in level for top in (c.bit_length() - 1,)}
            out.extend(prefix.values())
        return tuple(out)

    @cached_property
    def _clique_order(self) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
        """`inclusion_order` of the complete subgraphs, as tuples."""
        labels, pairs = inclusion_order(self._cliques)
        return tuple(labels), tuple(pairs)

    @cached_property
    def _barycentric(self) -> "Graph":
        return _order_graph(*self._clique_order)

    def __contains__(self, v: str) -> bool:
        return v in self.vertices

    def _require(self, v: str) -> None:
        if v not in self.vertices:
            raise UnknownVertexError(f"unknown vertex {v!r}")

    def _require_all(self, vs: frozenset[str]) -> None:
        missing = vs - self.vertices
        if missing:
            raise UnknownVertexError(f"unknown vertex {min(missing)!r}")

    def neighbors(self, v: str) -> frozenset[str]:
        self._require(v)
        return self.adjacency[v]

    def closed_neighborhood(self, v: str) -> frozenset[str]:
        return self.neighbors(v) | {v}

    def has_edge(self, a: str, b: str) -> bool:
        return edge_key(a, b) in self.edges

    def _require_edge(self, e: Iterable[str]) -> tuple[str, str]:
        """e's endpoints in label order; raises unless e is an edge."""
        a, b = sorted_pair(e)
        if not self.has_edge(a, b):
            raise UnknownEdgeError(f"unknown edge {a!r}-{b!r}")
        return a, b

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    def sorted_vertices(self) -> list[str]:
        return sorted(self.vertices)

    def sorted_edges(self) -> list[tuple[str, str]]:
        return sorted(sorted_pair(e) for e in self.edges)

    def induced(self, subset: Iterable[str]) -> "Graph":
        sub = frozenset(subset)
        self._require_all(sub)
        return Graph(sub, frozenset(e for e in self.edges if e <= sub))

    def open_neighborhood_subgraph(self, v: str) -> "Graph":
        return self.induced(self.neighbors(v))

    def without_vertices(self, subset: Iterable[str]) -> "Graph":
        """The graph less the vertices in subset and their edges.  Its
        adjacency is derived from this graph's and cached with it: only the
        removed vertices' neighbours change, and the rest share their sets.
        The slot is written by hand so the child never rebuilds it from edges."""
        gone = frozenset(subset)
        self._require_all(gone)
        adj = self.adjacency
        kept = dict(adj)
        for v in gone:
            del kept[v]
        for u in {u for v in gone for u in adj[v]} - gone:
            kept[u] = adj[u] - gone
        child = Graph(self.vertices - gone,
                      self.edges - {frozenset((v, u)) for v in gone for u in adj[v]})
        child.__dict__["adjacency"] = kept
        return child

    def without_vertex(self, v: str) -> "Graph":
        return self.without_vertices((v,))

    def without_edge(self, a: str, b: str) -> "Graph":
        e = edge_key(a, b)
        if e not in self.edges:
            raise UnknownEdgeError(f"unknown edge {a!r}-{b!r}")
        return Graph(self.vertices, self.edges - {e})

    def with_vertex(self, v: str, attachment: Iterable[str] = ()) -> "Graph":
        if v in self.vertices:
            raise GraphError(f"vertex {v!r} already present")
        att = frozenset(attachment)
        self._require_all(att)
        return Graph(self.vertices | {v}, self.edges | {edge_key(v, u) for u in att})

    def with_edge(self, a: str, b: str) -> "Graph":
        self._require(a)
        self._require(b)
        e = edge_key(a, b)
        if e in self.edges:
            raise GraphError(f"edge {a!r}-{b!r} already present")
        return Graph(self.vertices, self.edges | {e})

    def is_complete_set(self, subset: Iterable[str]) -> bool:
        sub = frozenset(subset)
        self._require_all(sub)
        return all(self.has_edge(a, b) for a, b in itertools.combinations(sub, 2))

    def suspension(self) -> "Graph":
        """Two fresh non-adjacent apexes, each joined to every existing vertex."""
        x, y = fresh_labels(self.vertices, 2, stem="_apex")
        edges = set(self.edges)
        for v in self.vertices:
            edges.add(frozenset((x, v)))
            edges.add(frozenset((y, v)))
        return Graph(self.vertices | {x, y}, frozenset(edges))


def complete_graph(labels: Iterable[str]) -> Graph:
    ls = sorted(set(labels))
    return Graph.make(ls, itertools.combinations(ls, 2))


def cycle_graph(labels: Iterable[str]) -> Graph:
    ls = list(labels)
    if len(ls) < 3:
        raise GraphError("a cycle needs at least three vertices")
    return Graph.make(ls, [(ls[i], ls[(i + 1) % len(ls)]) for i in range(len(ls))])


def path_graph(labels: Iterable[str]) -> Graph:
    ls = list(labels)
    return Graph.make(ls, [(ls[i], ls[i + 1]) for i in range(len(ls) - 1)])


def edgeless_graph(labels: Iterable[str]) -> Graph:
    return Graph.make(labels, ())


# ---------------------------------------------------------------------------
# complete subgraph enumeration


@dataclass(frozen=True)
class CliqueFamily:
    parent: Graph
    mode: str  # "all" | "maximal"
    cliques: tuple[frozenset[str], ...]

    def validate(self) -> str | None:
        """Invariant check; returns a failure description or None."""
        for c in self.cliques:
            if not c:
                return "empty member set"
            if not self.parent.is_complete_set(c):
                return f"{subset_label(c)} is not complete"
        have = set(self.cliques)
        maximal = set(maximal_cliques(self.parent))
        if self.mode == "maximal":
            if have != maximal:
                return "maximal family does not match the inclusion-maximal complete subgraphs"
        elif self.mode == "all":
            for c in self.cliques:
                for v in c:
                    if len(c) > 1 and (c - {v}) not in have:
                        return f"not closed under subsets at {subset_label(c)}"
            for m in maximal:
                if m not in have:
                    return f"missing maximal member {subset_label(m)}"
        else:
            return f"unknown mode {self.mode!r}"
        return None


def maximal_cliques(g: Graph) -> list[frozenset[str]]:
    """All inclusion-maximal complete subgraphs (pivoting branch and bound);
    raises BudgetExceededError after building at most DEFAULT_CLIQUE_CAP + 1."""
    found = list(itertools.islice(_maximal(g), DEFAULT_CLIQUE_CAP + 1))
    if len(found) > DEFAULT_CLIQUE_CAP:
        raise BudgetExceededError(f"more than {DEFAULT_CLIQUE_CAP} maximal complete subgraphs")
    return sorted(found, key=lambda c: tuple(sorted(c)))


def _maximal(g: Graph) -> Iterator[frozenset[str]]:
    """The maximal cliques of g, each as it is found, so a caller that stops
    early builds no more of them."""
    adj = g.adjacency

    def expand(r: set[str], p: set[str], x: set[str]) -> Iterator[frozenset[str]]:
        if not p and not x:
            yield frozenset(r)
            return
        pivot = max(sorted(p | x), key=lambda u: len(adj[u] & p))
        for v in sorted(p - adj[pivot]):
            yield from expand(r | {v}, p & adj[v], x & adj[v])
            p.discard(v)
            x.add(v)

    if g.vertices:
        yield from expand(set(), set(g.vertices), set())


def _bits(mask: int) -> Iterator[int]:
    """The set bits of mask, lowest first, each as a one-bit mask."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def clique_masks(adj: Mapping[str, Iterable[str]]) -> Iterator[list[int]]:
    """The complete subgraphs of an adjacency as bitmasks over its sorted
    labels (bit i stands for the i-th label), one list per size, smallest
    first: list d holds the ones with d + 1 vertices, the d-faces of the
    clique complex.  Each clique is its prefix, the clique less its top bit,
    grown by a greater label, so every list is in lexicographic order."""
    return _clique_levels(_masks_of(adj, adj).closed)


def _clique_levels(closed: Mapping[int, int]) -> Iterator[list[int]]:
    """clique_masks from the closed-neighbourhood masks of a graph's vertex
    bits, which need not be consecutive."""
    later = {b: closed[b] & -(b << 1) for b in sorted(closed)}  # the greater neighbours
    level = list(later.items())  # (clique, the greater vertices adjacent to all of it)
    while level:
        yield [c for c, _ in level]
        level = [(c | b, grow & later[b]) for c, grow in level for b in _bits(grow)]


def complete_subgraphs(g: Graph) -> list[frozenset[str]]:
    """A fresh list of `g._cliques`, the clique family g lists once and keeps."""
    return list(g._cliques)


def enumerate_complete_subgraphs(g: Graph, mode: str = "all") -> CliqueFamily:
    listing = {"all": complete_subgraphs, "maximal": maximal_cliques}.get(mode)
    if listing is None:
        raise GraphError(f"unknown enumeration mode {mode!r}")
    return CliqueFamily(g, mode, tuple(listing(g)))


def inclusion_order(family: Iterable[frozenset[str]]) -> tuple[list[str], list[tuple[str, str]]]:
    """The labels of a family's members, in its order, and the (subset,
    superset) label pairs of every strict inclusion in the family, each once.

    The family must be closed under nonempty subsets.  Each label gets one bit
    and each member the mask of its labels' bits, so a member's strict
    down-set is the nonempty proper submasks of its mask, walked as
    `sub = (sub - 1) & m`, and nothing is built per subset but its pair.  Two
    members with one label raise GraphError naming both.
    """
    bit: dict[str, int] = {}
    member: dict[int, frozenset[str]] = {}
    for s in family:
        m = 0
        for v in s:
            b = bit.get(v)
            if b is None:
                b = bit[v] = 1 << len(bit)
            m |= b
        member[m] = s
    label = {m: subset_label(s) for m, s in member.items()}
    if len(set(label.values())) < len(label):
        seen: dict[str, frozenset[str]] = {}
        for s in sorted(member.values(), key=_size_then_labels):
            first = seen.setdefault(subset_label(s), s)
            if first is not s:
                raise GraphError(f"members {sorted(first)} and {sorted(s)} share the "
                                 f"label {subset_label(s)}")
    out = []
    append = out.append
    for m, hi in label.items():
        sub = (m - 1) & m
        while sub:
            append((label[sub], hi))
            sub = (sub - 1) & m
    return list(label.values()), out


def _size_then_labels(s: frozenset[str]) -> tuple[int, list[str]]:
    return len(s), sorted(s)


def _order_graph(labels: Sequence[str], pairs: Sequence[tuple[str, str]]) -> Graph:
    """The graph of an `inclusion_order`, built unvalidated: its pairs join
    distinct labels of the family, since a strict superset's label is longer."""
    return Graph(frozenset(labels), frozenset(map(frozenset, pairs)))


def barycentric_graph(g: Graph) -> Graph:
    """Vertices are the complete subgraphs of g, edges the strict inclusions.
    Kept with g as `g._barycentric`, so every call on g returns the same Graph."""
    return g._barycentric


# ---------------------------------------------------------------------------
# dominated vertices on bitmasks
#
# A mask state maps each vertex's bit to its closed neighbourhood's mask, as
# Graph._masks does, over the sorted labels.  w dominates v, N[v] <= N[w],
# exactly when w lies in the closed neighbourhood of every vertex of N[v], so
# v's dominators are the bits of the AND of those masks less v's own, and the
# least dominator is the lowest of them.


def _dominator_mask(cl: dict[int, int], b: int) -> int:
    """The vertices dominating b in the mask state cl, as a mask."""
    common = m = cl[b]
    while m and common != b:
        low = m & -m
        common &= cl[low]
        m ^= low
    return common ^ b


def _mask_step(cl: dict[int, int], b: int) -> tuple[int, int] | None:
    d = _dominator_mask(cl, b)
    return (b, d & -d) if d else None


def _mask_delete(cl: dict[int, int], step: tuple[int, int]) -> dict[int, int]:
    b = step[0]
    m = cl.pop(b) ^ b
    while m:
        low = m & -m
        cl[low] ^= b
        m ^= low
    return cl


def _mask_core(cl: dict[int, int], keep: int = 0) -> tuple[dict[int, int], tuple]:
    """Delete the least dominated vertex outside `keep` against its least
    dominator until none is left, updating the mask state cl: (cl, steps).

    Deleting v changes N[x] only for neighbors x of v, and no other vertex
    has v in its closed neighborhood, so only N(v) can gain or lose a dominator.
    """
    return greedy_core(cl, [b for b in cl if not b & keep], _mask_step, _mask_delete,
                       lambda c, step: _bits(c[step[0]] & ~(keep | step[0])))


def greedy_core(state, elements: Iterable, step_of: Callable, remove: Callable,
                touched: Callable) -> tuple[object, tuple]:
    """Remove the least element that has a step until none has: (residue, steps).

    `remove` updates the state in place.  A removal can change the step of
    only the elements `touched(state, step)` names before it, so only those
    are examined again; every other element keeps the step found earlier.
    """
    found = {x: s for x in elements if (s := step_of(state, x)) is not None}
    steps = []
    while found:
        step = found.pop(min(found))
        steps.append(step)
        again = touched(state, step)
        state = remove(state, step)
        for y in again:
            s = step_of(state, y)
            if s is None:
                found.pop(y, None)
            else:
                found[y] = s
    return state, tuple(steps)


# ---------------------------------------------------------------------------
# mod-2 homology


def reduced_betti(faces: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """The reduced mod-2 Betti numbers b̃_0, b̃_1, ... of a nonempty simplicial
    complex, up to the last nonzero one, so an acyclic complex gives ().

    `faces[d]` lists the d-faces as bitmasks of d + 1 bits, and every
    nonempty subset of a face is a face.  b̃_d is the number of d-faces less
    the ranks of the boundary maps ∂_d and ∂_{d+1}, where ∂_0 is the
    augmentation, of rank 1.  Each rank comes from Gaussian elimination over
    GF(2), one dimension at a time: a face's boundary is a Python int over
    the indices of the faces below, and the pivot rows are kept in a dict
    keyed by their highest bit.  The image of ∂_d lies in the kernel of
    ∂_{d-1}, so the elimination stops once its rank fills that kernel.
    Vanishing numbers are dropped from the end because they depend on the
    dimension, not on the homotopy type.
    """
    faces = list(faces)
    ranks = [1]
    for below, here in zip(faces, faces[1:]):
        index = {f: 1 << i for i, f in enumerate(below)}
        room = len(below) - ranks[-1]
        pivots: dict[int, int] = {}
        for f in here:
            if len(pivots) == room:
                break
            row = 0
            for b in _bits(f):
                row |= index[f ^ b]
            while row:
                top = row.bit_length()
                if top not in pivots:
                    pivots[top] = row
                    break
                row ^= pivots[top]
        ranks.append(len(pivots))
    ranks.append(0)
    betti = [len(f) - ranks[d] - ranks[d + 1] for d, f in enumerate(faces)]
    while betti and not betti[-1]:
        betti.pop()
    return tuple(betti)


# ---------------------------------------------------------------------------
# isomorphism via canonical labeling (refinement + backtracking)


@dataclass(frozen=True)
class IsoWitness:
    """Vertex bijection between two graphs, stored as sorted (first, second) pairs."""

    mapping: tuple[tuple[str, str], ...]

    def as_dict(self) -> dict[str, str]:
        return dict(self.mapping)

    def error(self, g1: Graph, g2: Graph) -> str | None:
        fwd = self.as_dict()
        if set(fwd) != set(g1.vertices) or set(fwd.values()) != set(g2.vertices):
            return "mapping is not a bijection between the vertex sets"
        if len(fwd) != len(self.mapping):
            return "mapping lists a vertex twice"
        if len(set(fwd.values())) != len(fwd):
            return "mapping is not injective"
        if {frozenset((fwd[a], fwd[b])) for a, b in g1.edges} == g2.edges:
            return None
        # A bijection that moves some edge off g2 breaks adjacency at some
        # pair; the sorted scan names the first one.
        return next(f"adjacency of {a!r},{b!r} not preserved"
                    for a, b in itertools.combinations(sorted(g1.vertices), 2)
                    if g1.has_edge(a, b) != g2.has_edge(fwd[a], fwd[b]))


def _refine(adj: Sequence[Sequence[int]], part: dict[int, set[int]], colour: list[int],
            raised: Iterable[int] | None) -> None:
    """Refine, in place, the partition `part` of the vertices 0, 1, ... of adj
    to the coarsest equitable partition finer than it.

    `part` maps the first position of each cell in the order of cells to its
    members, and colour[v] is the first position of v's cell. Rounds are
    synchronous: a round splits each cell by its members' signatures, the
    sorted colours of their neighbours, and keeps the parts in that order, so
    a split raises the colours of all parts but the first (McKay and Piperno,
    "Practical graph isomorphism, II", J. Symb. Comput. 60, 2014).

    `raised` lists the vertices whose colours rose before the first round, or
    is None to count every vertex as risen. Given a list, each cell's members
    shared their signature before the rise, and each risen vertex rose from
    its cell's first position to a later one in that cell's span, as in a
    child of `_canonical`; every round leaves the same for the next. So a
    round looks only at the members next to a risen vertex: their signatures
    exceed the one the rest of the cell keeps, and two of them have equal
    signatures exactly when their risen neighbours' colours are equal as
    multisets, as each colour's span tells the first position it rose from.
    The rest stays as the first part, the others are grouped by those
    colours, and one member of each group is signed only to order several
    groups, so a lone hit member splits off unsigned. Given None, a member's
    risen colours are its whole signature, and the members no vertex touches
    are the isolated ones, whose empty signature is the least: they keep the
    first part, where a sort of the whole cell would put them.
    """
    get = colour.__getitem__
    if raised is None:
        raised = range(len(adj))
    while True:
        risen, touched = {}, {}  # vertex -> its risen neighbours' colours
        for x in raised:
            c = colour[x]
            for u in adj[x]:
                if u in risen:
                    risen[u].append(c)
                else:
                    risen[u] = [c]
                    touched.setdefault(colour[u], []).append(u)
        splits = []
        for s, members in touched.items():
            cell = part[s]
            if len(cell) == 1:
                continue
            if len(members) == 1:
                parts = [members]
            else:
                groups: dict[tuple, list[int]] = {}
                for v in members:
                    groups.setdefault(tuple(sorted(risen[v])), []).append(v)
                parts = list(groups.values())
                if len(parts) > 1:
                    parts.sort(key=lambda p: sorted(map(get, adj[p[0]])))
            if len(members) < len(cell):
                cell.difference_update(members)
            elif len(parts) > 1:
                part[s] = set(parts.pop(0))
            else:
                continue
            splits.append((s + len(part[s]), parts))
        if not splits:
            return
        raised = []
        for at, parts in splits:
            for p in parts:
                part[at] = set(p)
                for v in p:
                    colour[v] = at
                raised += p
                at += len(p)


def _find(parent: dict[int, int], v: int) -> int:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _canonical(adj: Sequence[Sequence[int]]) -> tuple[tuple, list[int]]:
    """The least leaf encoding of the individualisation-refinement tree of the
    graph on the vertices 0, 1, ... of adj, and the discrete colouring of the
    first leaf in depth-first order reaching it.

    A node is a partition refined by `_refine`, kept as cells by first
    position. Children are the sorted members of the first non-singleton
    cell: a child is its parent's partition with one of them, v, moved to a
    cell of its own at the last position of the cell, refined from v's rise;
    a leaf's partition is discrete, so its colours number the vertices. Two
    prunings skip only subtrees whose leaves are automorphic images, with
    equal encodings, of leaves met earlier in that order, so they never skip
    the leaf returned (McKay and Piperno, "Practical graph isomorphism, II",
    J. Symb. Comput. 60, 2014):

    - a leaf encoded like the first or the best leaf gives the automorphism
      ref⁻¹ ∘ leaf, and the search resumes at the two paths' deepest common
      ancestor;
    - a child in the same orbit as an explored sibling is skipped, the orbits
      coming from the automorphisms found so far that fix the node's
      individualised vertices.
    """
    n = len(adj)
    first = best = None  # (encoding, colouring, path) of a leaf
    autos: list[list[int]] = []

    def visit(part: dict[int, set[int]], colour: list[int], path: tuple[int, ...],
              raised: list[int] | None) -> int | None:
        # Returns the depth to resume at after a leaf automorphism, else None.
        nonlocal first, best
        _refine(adj, part, colour, raised)
        if len(part) == n:
            enc = (n, tuple(sorted((colour[v], colour[u]) for v in range(n)
                                   for u in adj[v] if colour[v] < colour[u])))
            for ref in (first, best):
                if ref is not None and enc == ref[0]:
                    inv = [0] * n
                    for u, i in enumerate(ref[1]):
                        inv[i] = u
                    autos.append([inv[i] for i in colour])
                    return next(d for d, (a, b) in enumerate(zip(path, ref[2])) if a != b)
            if best is None or enc < best[0]:
                best = (enc, colour, path)
                first = first or best
            return None
        split = min(s for s, c in part.items() if len(c) > 1)
        cell = sorted(part[split])
        last = split + len(cell) - 1
        orbit = {v: v for v in cell}
        seen, explored = 0, set()  # the orbits of the explored children, by root
        for v in cell:
            if seen < len(autos):
                for a in autos[seen:]:
                    if all(a[p] == p for p in path):
                        for u in cell:
                            orbit[_find(orbit, u)] = _find(orbit, a[u])
                seen = len(autos)
                explored = {_find(orbit, x) for x in explored}
            root = _find(orbit, v)
            if root in explored:
                continue
            child = {s: c.copy() for s, c in part.items()}
            child[split].discard(v)
            child[last] = {v}
            recolour = colour.copy()
            recolour[v] = last
            back = visit(child, recolour, path + (v,), [v])
            if back is not None and back < len(path):
                return back
            explored.add(root)
        return None

    visit({0: set(range(n))}, [0] * n, (), None)
    return best[0], best[1]


def _canonical_full(g: Graph) -> tuple[tuple, tuple[tuple[str, int], ...]]:
    """_canonical of g with its vertices indexed in sorted label order, and
    each label paired with its leaf colour."""
    if not g.vertices:
        return (0, ()), ()
    labels = g.sorted_vertices()
    index = {v: i for i, v in enumerate(labels)}
    enc, colour = _canonical(tuple(tuple(index[u] for u in g.adjacency[v]) for v in labels))
    return enc, tuple(zip(labels, colour))


def canonical_form(g: Graph) -> tuple:
    """Hashable key shared by exactly the graphs isomorphic to g."""
    return _canonical_full(g)[0]


def are_isomorphic(g1: Graph, g2: Graph) -> IsoWitness | None:
    """A witness bijection if one exists, else None. Deterministic; raises
    BudgetExceededError past DEFAULT_ISO_CAP vertices."""
    if max(len(g1.vertices), len(g2.vertices)) > DEFAULT_ISO_CAP:
        raise BudgetExceededError(f"isomorphism test capped at {DEFAULT_ISO_CAP} vertices")
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return None
    if sorted(len(g1.adjacency[v]) for v in g1.vertices) != \
            sorted(len(g2.adjacency[v]) for v in g2.vertices):
        return None
    enc1, perm1 = _canonical_full(g1)
    enc2, perm2 = _canonical_full(g2)
    if enc1 != enc2:
        return None
    inv2 = {i: v for v, i in perm2}
    return IsoWitness(tuple(sorted((v, inv2[i]) for v, i in perm1)))
