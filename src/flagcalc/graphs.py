"""Finite simple undirected graphs with stable string labels.

Graphs are immutable values: every mutation-like operation returns a new
graph, so they can be hashed, memoized and shared freely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping, Sequence


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

    def __contains__(self, v: str) -> bool:
        return v in self.vertices

    def _require(self, v: str) -> None:
        if v not in self.vertices:
            raise UnknownVertexError(f"unknown vertex {v!r}")

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
        for v in sub:
            self._require(v)
        return Graph(sub, frozenset(e for e in self.edges if e <= sub))

    def open_neighborhood_subgraph(self, v: str) -> "Graph":
        return self.induced(self.neighbors(v))

    def without_vertices(self, subset: Iterable[str]) -> "Graph":
        """The graph less the vertices in subset and their edges.  Its
        adjacency is derived from this graph's and cached with it: only the
        removed vertices' neighbours change, and the rest share their sets."""
        gone = frozenset(subset)
        for v in gone:
            self._require(v)
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
        for u in att:
            self._require(u)
        return Graph(self.vertices | {v}, self.edges | {edge_key(v, u) for u in att})

    def with_edge(self, a: str, b: str) -> "Graph":
        self._require(a)
        self._require(b)
        e = edge_key(a, b)
        if e in self.edges:
            raise GraphError(f"edge {a!r}-{b!r} already present")
        return Graph(self.vertices, self.edges | {e})

    def is_complete_set(self, subset: Iterable[str]) -> bool:
        sub = sorted(set(subset))
        for v in sub:
            self._require(v)
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
    """All inclusion-maximal complete subgraphs (pivoting branch and bound)."""
    adj = g.adjacency
    out: list[frozenset[str]] = []

    def expand(r: set[str], p: set[str], x: set[str]) -> None:
        if not p and not x:
            out.append(frozenset(r))
            return
        pivot = max(sorted(p | x), key=lambda u: len(adj[u] & p))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p.discard(v)
            x.add(v)

    if g.vertices:
        expand(set(), set(g.vertices), set())
    return sorted(out, key=lambda c: tuple(sorted(c)))


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
    index = {v: 1 << i for i, v in enumerate(sorted(adj))}
    later = {bit: 0 for bit in index.values()}  # each vertex's greater neighbours
    for v, bit in index.items():
        for u in adj[v]:
            if index[u] > bit:
                later[bit] |= index[u]
    level = list(later.items())  # (clique, the greater vertices adjacent to all of it)
    while level:
        yield [c for c, _ in level]
        level = [(c | b, grow & later[b]) for c, grow in level for b in _bits(grow)]


def complete_subgraphs(g: Graph, cap: int = DEFAULT_CLIQUE_CAP) -> list[frozenset[str]]:
    """Every nonempty vertex set inducing a complete subgraph, by size and then
    lexicographically, decoded from `clique_masks`; raises BudgetExceededError
    at the level that takes the count past `cap`, before listing a larger one."""
    labels = g.sorted_vertices()
    out: list[frozenset[str]] = []
    prefix = {0: frozenset()}  # the last level's members by mask
    for level in clique_masks(g.adjacency):
        if len(out) + len(level) > cap:
            raise BudgetExceededError(f"more than {cap} complete subgraphs")
        prefix = {c: prefix[c ^ (1 << top)] | {labels[top]}
                  for c in level for top in (c.bit_length() - 1,)}
        out.extend(prefix.values())
    return out


def enumerate_complete_subgraphs(g: Graph, mode: str = "all") -> CliqueFamily:
    if mode == "maximal":
        found = maximal_cliques(g)
        if len(found) > DEFAULT_CLIQUE_CAP:
            raise BudgetExceededError(
                f"more than {DEFAULT_CLIQUE_CAP} maximal complete subgraphs")
    elif mode == "all":
        found = complete_subgraphs(g)
    else:
        raise GraphError(f"unknown enumeration mode {mode!r}")
    return CliqueFamily(g, mode, tuple(found))


def inclusion_order(family: Iterable[frozenset[str]]) -> tuple[list[str], list[tuple[str, str]]]:
    """The labels of a family's members, in its order, and the (subset,
    superset) label pairs of every strict inclusion in the family, each once.

    The family must be closed under nonempty subsets.  Each member is labelled
    once, and members are taken in size order, so a member's strict down-set is
    the union of its facets' down-sets and the facets' labels: no subset is
    listed or labelled again.  A member missing one of its facets raises
    GraphError naming that facet.
    """
    label = {s: subset_label(s) for s in family}
    below: dict[frozenset[str], set[str]] = {}
    out = []
    for top in sorted(label, key=len):
        down = below[top] = set()
        if len(top) > 1:
            for v in top:
                facet = top - {v}
                if facet not in label:
                    raise GraphError(f"{label[top]} is in the family but its facet "
                                     f"{subset_label(facet)} is not")
                down.add(label[facet])
                down |= below[facet]
        hi = label[top]
        out.extend((lo, hi) for lo in down)
    return list(label.values()), out


def _order_graph(labels: list[str], pairs: list[tuple[str, str]]) -> Graph:
    """The graph of an `inclusion_order`, built unvalidated: its pairs join
    distinct labels of the family, since a strict superset's label is longer."""
    return Graph(frozenset(labels), frozenset(map(frozenset, pairs)))


def barycentric_graph(g: Graph) -> Graph:
    """Vertices are the complete subgraphs of g, edges the strict inclusions."""
    return _order_graph(*inclusion_order(complete_subgraphs(g)))


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
        if len(set(fwd.values())) != len(fwd):
            return "mapping is not injective"
        if {frozenset((fwd[a], fwd[b])) for a, b in g1.edges} == g2.edges:
            return None
        # A bijection that moves some edge off g2 breaks adjacency at some
        # pair; the sorted scan names the first one.
        return next(f"adjacency of {a!r},{b!r} not preserved"
                    for a, b in itertools.combinations(sorted(g1.vertices), 2)
                    if g1.has_edge(a, b) != g2.has_edge(fwd[a], fwd[b]))


def _refine(adj: dict[str, frozenset[str]], colors: dict[str, int],
            hit: Iterable[str]) -> dict[str, int]:
    """The coarsest equitable refinement of `colors`, numbered 0, 1, ... in order.

    Rounds are synchronous: a round splits each cell by the sorted colours of
    its members' neighbours and keeps the parts in that order. While refining,
    a cell's colour is its first position in the order of cells, so a split
    raises the colours of all parts but the first. The first round looks only
    at the vertices in `hit`, a later one only at the vertices next to one
    whose colour rose in the round before (McKay and Piperno, "Practical
    graph isomorphism, II", J. Symb. Comput. 60, 2014). The other members of
    their cells keep the sorted neighbour colours that the whole cell shared,
    and a member with a risen neighbour colour now has greater ones, so the
    others stay together as the first part; a cell with no such member
    cannot split. So `hit` holds every vertex, unless `colors` is equitable
    but for one vertex v moved to a cell of its own just after the rest of
    its cell: that raises v's colour alone, and N(v) suffices.
    """
    cells: dict[int, list[str]] = {}
    for v, c in colors.items():
        cells.setdefault(c, []).append(v)
    colour: dict[str, int] = {}
    part: dict[int, list[str]] = {}  # first position -> members
    first = 0
    for c in sorted(cells):
        part[first] = cells[c]
        colour.update(dict.fromkeys(cells[c], first))
        first += len(cells[c])
    while dirty := [s for s in {colour[u] for u in hit} if len(part[s]) > 1]:
        splits = []
        for s in dirty:
            groups: dict[tuple, list[str]] = {}
            rest = []
            for v in part[s]:
                if v in hit:
                    groups.setdefault(tuple(sorted(map(colour.__getitem__, adj[v]))),
                                      []).append(v)
                else:
                    rest.append(v)
            keys = sorted(groups)
            if rest:
                part[s] = rest
            elif len(keys) > 1:
                part[s] = groups[keys.pop(0)]
            else:
                continue
            splits.append((s, [groups[k] for k in keys]))
        raised = []
        for s, parts in splits:
            at = s + len(part[s])
            for p in parts:
                part[at] = p
                colour.update(dict.fromkeys(p, at))
                raised += p
                at += len(p)
        hit = {u for x in raised for u in adj[x]}
    rank = {s: i for i, s in enumerate(sorted(part))}
    return {v: rank[s] for v, s in colour.items()}


def _find(parent: dict[str, str], v: str) -> str:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _canonical(adj: dict[str, frozenset[str]],
               colors: dict[str, int]) -> tuple[tuple, dict[str, int]]:
    """The least leaf encoding of the individualisation-refinement tree, and
    the discrete colouring of the first leaf in depth-first order reaching it.

    Children are the sorted members of the first non-singleton cell. Two
    prunings skip only subtrees whose leaves are automorphic images, with equal
    encodings, of leaves met earlier in that order, so they never skip the
    leaf returned (McKay and Piperno, "Practical graph isomorphism, II",
    J. Symb. Comput. 60, 2014):

    - a leaf encoded like the first or the best leaf gives the automorphism
      ref⁻¹ ∘ leaf, and the search resumes at the two paths' deepest common
      ancestor;
    - a child in the same orbit as an explored sibling is skipped, the orbits
      coming from the automorphisms found so far that fix the node's
      individualised vertices.
    """
    first = best = None  # (encoding, colouring, path) of a leaf
    autos: list[dict[str, str]] = []

    def visit(colors: dict[str, int], path: tuple[str, ...]) -> int | None:
        # Returns the depth to resume at after a leaf automorphism, else None.
        nonlocal first, best
        colors = _refine(adj, colors, adj[path[-1]] if path else adj)
        cells: dict[int, list[str]] = {}
        for v, c in colors.items():
            cells.setdefault(c, []).append(v)
        split = next((c for c in sorted(cells) if len(cells[c]) > 1), None)
        if split is None:
            enc = (len(adj), tuple(sorted((colors[v], colors[u]) for v in adj
                                          for u in adj[v] if colors[v] < colors[u])))
            for ref in (first, best):
                if ref is not None and enc == ref[0]:
                    inv = {i: u for u, i in ref[1].items()}
                    autos.append({u: inv[colors[u]] for u in adj})
                    return next(d for d, (a, b) in enumerate(zip(path, ref[2])) if a != b)
            if best is None or enc < best[0]:
                best = (enc, colors, path)
                first = first or best
            return None
        cell = sorted(cells[split])
        orbit = {v: v for v in cell}
        seen, explored = 0, []
        for v in cell:
            for a in autos[seen:]:
                if all(a[p] == p for p in path):
                    for u in cell:
                        orbit[_find(orbit, u)] = _find(orbit, a[u])
            seen = len(autos)
            if any(_find(orbit, v) == _find(orbit, x) for x in explored):
                continue
            # v moves to a cell of its own, just after the rest of its cell
            back = visit({u: c + (c > split or u == v) for u, c in colors.items()},
                         path + (v,))
            if back is not None and back < len(path):
                return back
            explored.append(v)
        return None

    visit(colors, ())
    return best[0], best[1]


@lru_cache(maxsize=65536)
def _canonical_full(g: Graph) -> tuple[tuple, tuple[tuple[str, int], ...]]:
    if not g.vertices:
        return (0, ()), ()
    enc, perm = _canonical(g.adjacency, {v: 0 for v in g.vertices})
    return enc, tuple(sorted(perm.items()))


def canonical_form(g: Graph) -> tuple:
    """Hashable key shared by exactly the graphs isomorphic to g."""
    return _canonical_full(g)[0]


def are_isomorphic(g1: Graph, g2: Graph, cap: int = DEFAULT_ISO_CAP) -> IsoWitness | None:
    """A witness bijection if one exists, else None. Deterministic."""
    if max(len(g1.vertices), len(g2.vertices)) > cap:
        raise BudgetExceededError(f"isomorphism test capped at {cap} vertices")
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
