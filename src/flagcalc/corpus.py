"""Built-in fixture structures with self-validating assertions.

Each fixture is constructed in code (no data files) and gated by the
structural properties it is known to satisfy; `verify_corpus` replays every
gate and reports per-assertion outcomes.  Fixtures marked optional are figure
transcriptions whose gates double as transcription checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .graphs import (
    Graph,
    are_isomorphic,
    barycentric_graph,
    clique_masks,
    maximal_cliques,
    path_graph,
    reduced_betti,
    subset_label,
)
from .dismantling import (
    Outcome,
    check_certificate,
    dominated_vertices,
    is_dismantlable,
    s_collapse_search,
    s_dismantlable_edges,
    s_dismantlable_vertices,
    subdivision_certificate,
    ws_reduction_search,
)
from .simplicial import (
    CollapsePair,
    clique_complex,
    collapse,
    collapse_pair_error,
    free_pairs,
    is_flag,
)
from .posets import Poset, comparability_graph, order_complex
from . import textio


# ---------------------------------------------------------------------------
# fixture structures


def six_regular_graph() -> Graph:
    """6-regular graph on ten vertices built from its ten triangles.

    Every edge lies in exactly one of the triangles and exactly one of the
    five 4-cliques, so no free edge survives collapsing the 4-cliques.
    """
    tris = six_regular_triangles()
    edges = set()
    for t in tris:
        ts = sorted(t)
        edges.update(((ts[0], ts[1]), (ts[0], ts[2]), (ts[1], ts[2])))
    vertices = {v for t in tris for v in t}
    return Graph.make(vertices, edges)


def six_regular_triangles() -> list[frozenset[str]]:
    raw = ["123", "156", "246", "189", "279", "345", "378", "x58", "x69", "x47"]
    return [frozenset(s) for s in raw]


def six_regular_tetrahedra() -> list[frozenset[str]]:
    raw = ["1358", "1269", "2347", "x456", "x789"]
    return [frozenset(s) for s in raw]


def prism_graph() -> Graph:
    """Two triangles joined by a perfect matching; 3-regular, not dismantlable."""
    return Graph.make(
        "a1 a2 a3 b1 b2 b3".split(),
        [("a1", "a2"), ("a2", "a3"), ("a1", "a3"),
         ("b1", "b2"), ("b2", "b3"), ("b1", "b3"),
         ("a1", "b1"), ("a2", "b2"), ("a3", "b3")])


def edge_link_graph() -> Graph:
    """Three vertices and one edge; nonempty but not dismantlable."""
    return Graph.make("m1 m2 m3".split(), [("m1", "m2")])


def s_collapsible_rigid_graph() -> Graph:
    """Eight-vertex graph with no dominated vertex that still s-collapses.

    An inner square with one diagonal sits inside an outer square, each outer
    corner seeing two adjacent inner corners.
    """
    edges = [
        ("f", "g"), ("f", "e"), ("e", "h"), ("g", "h"), ("g", "e"),
        ("c", "b"), ("b", "a"), ("a", "d"), ("d", "c"),
        ("g", "b"), ("f", "b"), ("f", "a"), ("e", "a"),
        ("e", "d"), ("h", "d"), ("h", "c"), ("g", "c"),
    ]
    return Graph.make("abcdefgh", edges)


def stuck_graph() -> Graph:
    """Seven-vertex graph with no s-removable vertex but one s-removable edge."""
    edges = [("f", "g"), ("g", "c"), ("c", "a"), ("a", "d"), ("d", "e"),
             ("e", "b"), ("b", "a"), ("a", "f"), ("b", "c")]
    return Graph.make("abcdefg", edges)


def stuck_graph_reduced() -> Graph:
    return stuck_graph().without_edge("b", "c")


def subdivision_demo_graph() -> Graph:
    """A square, a bridge and a triangle: 16 complete subgraphs in all."""
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
             ("c", "e"), ("e", "f"), ("f", "g"), ("g", "e")]
    return Graph.make("abcdefg", edges)


def dunce_hat_graph() -> Graph:
    """17-vertex graph whose clique complex triangulates the dunce hat."""
    edges = [
        ("1", "2"), ("1", "3"), ("2", "4"), ("3", "4"),
        # ring around the center
        ("e", "f"), ("f", "g"), ("g", "h"), ("h", "i"), ("i", "q"), ("q", "n"),
        ("n", "m"), ("m", "l"), ("l", "k"), ("k", "j"), ("j", "o"), ("o", "e"),
        # center spokes
        ("p", "e"), ("p", "f"), ("p", "g"), ("p", "h"), ("p", "i"), ("p", "j"),
        ("p", "k"), ("p", "l"), ("p", "m"), ("p", "n"), ("p", "o"), ("p", "q"),
        # axis remnants and long diagonals
        ("4", "q"), ("o", "1"), ("1", "m"), ("f", "4"), ("1", "h"), ("k", "4"),
        # side chains
        ("3", "g"), ("g", "4"), ("4", "e"), ("e", "2"),
        ("2", "l"), ("l", "4"), ("4", "j"), ("j", "3"),
        ("2", "n"), ("n", "4"), ("4", "i"), ("i", "3"),
        # corner spokes
        ("i", "1"), ("1", "g"), ("n", "1"), ("1", "l"), ("e", "1"), ("1", "j"),
    ]
    return Graph.make("1 2 3 4 e f g h i j k l m n o p q".split(), edges)


def dunce_hat_poset() -> Poset:
    """Three-level poset whose comparability graph matches dunce_hat_graph."""
    covers = []
    covers += [("b1", m) for m in ("m4", "m5", "m6", "m7", "m8")]
    covers += [("b4", m) for m in ("m1", "m2", "m3", "m4", "m5")]
    covers += [("b0", m) for m in ("m1", "m2", "m3", "m6", "m7", "m8")]
    covers += [("m4", t) for t in ("t1", "t2", "t6")]
    covers += [("m5", t) for t in ("t3", "t4", "t5")]
    covers += [("m1", "t1"), ("m1", "t4"), ("m8", "t4"), ("m8", "t3"),
               ("m3", "t3"), ("m3", "t6"), ("m7", "t6"), ("m7", "t2"),
               ("m2", "t2"), ("m2", "t5"), ("m6", "t5"), ("m6", "t1")]
    elements = {x for pair in covers for x in pair}
    return Poset.make(elements, covers)


# ---------------------------------------------------------------------------
# assertions


@dataclass(frozen=True)
class Assertion:
    fixture: str
    label: str
    passed: bool
    detail: Optional[str] = None

    def line(self) -> str:
        head = "PASS" if self.passed else "FAIL"
        tail = f" :: {self.detail}" if self.detail else ""
        return f"{head} {self.fixture} {self.label}{tail}"


def _check_six_regular() -> list[Assertion]:
    name = "six-regular-10"
    g = six_regular_graph()
    out = [
        Assertion(name, "10-vertices", len(g.vertices) == 10),
        Assertion(name, "30-edges", len(g.edges) == 30),
        Assertion(name, "6-regular", all(g.degree(v) == 6 for v in g.vertices)),
    ]
    expected = set(six_regular_triangles()) | set(six_regular_tetrahedra())
    out.append(Assertion(name, "maximal-cliques-exact",
                         set(maximal_cliques(g)) == expected))
    prism = prism_graph()
    out.append(Assertion(
        name, "vertex-links-are-prisms",
        all(are_isomorphic(g.open_neighborhood_subgraph(v), prism) is not None
            and not is_dismantlable(g.open_neighborhood_subgraph(v))
            for v in g.vertices)))
    elink = edge_link_graph()
    out.append(Assertion(
        name, "edge-links-are-split",
        all(are_isomorphic(g.induced(g.neighbors(a) & g.neighbors(b)), elink) is not None
            for a, b in g.sorted_edges())))
    out.append(Assertion(name, "no-s-moves",
                         not s_dismantlable_vertices(g) and not s_dismantlable_edges(g)))
    out.append(Assertion(name, "ws-search-says-no",
                         ws_reduction_search(g).outcome is Outcome.NO))

    k = clique_complex(g)
    for tet in six_regular_tetrahedra():
        pair = next(p for p in free_pairs(k) if p.sigma == tet)
        k = collapse(k, pair)
    flag, witness = is_flag(k)
    out.append(Assertion(name, "stuck-after-five-collapses",
                         not free_pairs(k) and not flag,
                         None if witness is None else subset_label(witness)))
    return out


def _check_rigid() -> list[Assertion]:
    name = "rigid-s-collapsible-8"
    g = s_collapsible_rigid_graph()
    sdv = s_dismantlable_vertices(g)
    return [
        Assertion(name, "8-vertices", len(g.vertices) == 8),
        Assertion(name, "no-dominated-vertex", not dominated_vertices(g)),
        Assertion(name, "four-s-removable-vertices", sdv == ["a", "b", "c", "d"]),
        Assertion(name, "corner-link-is-a-path",
                  are_isomorphic(g.open_neighborhood_subgraph("a"),
                                 path_graph("wxyz")) is not None),
        Assertion(name, "s-collapses",
                  s_collapse_search(g).outcome is Outcome.YES),
        Assertion(name, "dismantlable-after-one-removal",
                  is_dismantlable(g.without_vertex("a"))),
    ]


def _check_stuck() -> list[Assertion]:
    name = "stuck-7-vertex"
    g = stuck_graph()
    h = stuck_graph_reduced()
    out = [
        Assertion(name, "no-s-removable-vertex", not s_dismantlable_vertices(g)),
        Assertion(name, "bc-edge-s-removable",
                  frozenset(("b", "c")) in s_dismantlable_edges(g)),
        Assertion(name, "ws-search-reaches-reduction",
                  ws_reduction_search(g, h).outcome is Outcome.YES),
    ]
    kk = clique_complex(g)
    pair = CollapsePair(frozenset("abc"), frozenset("bc"))
    ok = collapse_pair_error(kk, pair) is None and collapse(kk, pair) == clique_complex(h)
    out.append(Assertion(name, "one-collapse-pair-reaches-reduction", ok))
    return out


def _check_subdivision_demo() -> list[Assertion]:
    name = "subdivision-demo-7"
    g = subdivision_demo_graph()
    bd = barycentric_graph(g)
    cert = subdivision_certificate(g)
    return [
        Assertion(name, "7-vertices-8-edges",
                  len(g.vertices) == 7 and len(g.edges) == 8),
        Assertion(name, "16-complete-subgraphs", len(bd.vertices) == 16),
        Assertion(name, "moves-reach-subdivision",
                  bool(check_certificate(cert)) and cert.end == bd),
    ]


def _check_dunce_graph() -> list[Assertion]:
    name = "dunce-hat-graph"
    g = dunce_hat_graph()
    k = clique_complex(g)
    triangles = sum(1 for s in k.simplices if len(s) == 3)
    betti = reduced_betti(clique_masks(g.adjacency))
    euler = 1 + sum((-1) ** d * b for d, b in enumerate(betti))
    return [
        Assertion(name, "17-vertices-52-edges",
                  len(g.vertices) == 17 and len(g.edges) == 52),
        Assertion(name, "two-dimensional-36-triangles",
                  k.dimension() == 2 and triangles == 36),
        Assertion(name, "euler-characteristic-1", euler == 1,
                  detail=str(euler)),
        Assertion(name, "no-free-pair", not free_pairs(k)),
    ]


def _check_dunce_poset() -> list[Assertion]:
    name = "dunce-hat-poset"
    p = dunce_hat_poset()
    comp = comparability_graph(p)
    return [
        Assertion(name, "17-elements", len(p.elements) == 17),
        Assertion(name, "comparability-matches-dunce-graph",
                  are_isomorphic(comp, dunce_hat_graph()) is not None),
        Assertion(name, "order-complex-is-clique-complex",
                  order_complex(p) == clique_complex(comp)),
    ]


@dataclass(frozen=True)
class Fixture:
    name: str
    kind: str  # a key of textio.TEXT_FORMS
    builder: Callable[[], object]
    checker: Callable[[], list[Assertion]]
    optional: bool = False

    def payload(self) -> str:
        return textio.TEXT_FORMS[self.kind].format(self.builder())


FIXTURES: dict[str, Fixture] = {
    f.name: f for f in (
        Fixture("six-regular-10", "graph", six_regular_graph, _check_six_regular),
        Fixture("rigid-s-collapsible-8", "graph", s_collapsible_rigid_graph, _check_rigid),
        Fixture("stuck-7-vertex", "graph", stuck_graph, _check_stuck),
        Fixture("stuck-7-vertex-reduced", "graph", stuck_graph_reduced, lambda: []),
        Fixture("subdivision-demo-7", "graph", subdivision_demo_graph,
                _check_subdivision_demo),
        Fixture("prism-6", "graph", prism_graph, lambda: []),
        Fixture("edge-link-3", "graph", edge_link_graph, lambda: []),
        Fixture("dunce-hat-graph", "graph", dunce_hat_graph, _check_dunce_graph,
                optional=True),
        Fixture("dunce-hat-poset", "poset", dunce_hat_poset, _check_dunce_poset,
                optional=True),
    )
}


def verify_corpus() -> list[Assertion]:
    return [a for name in sorted(FIXTURES) for a in FIXTURES[name].checker()]
