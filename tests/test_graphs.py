import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from flagcalc import (
    BudgetExceededError,
    Graph,
    GraphError,
    UnknownVertexError,
    are_isomorphic,
    canonical_form,
    complete_graph,
    complete_subgraphs,
    cycle_graph,
    edgeless_graph,
    enumerate_complete_subgraphs,
    maximal_cliques,
    path_graph,
    subset_label,
)
from flagcalc import graphs as graphs_module
from flagcalc.graphs import fresh_labels


@st.composite
def graphs(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_n, max_n))
    labels = list("abcdefgh"[:n])
    pairs = list(itertools.combinations(labels, 2))
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.make(labels, [p for p, keep in zip(pairs, picks) if keep])


def test_construction_rejects_bad_data():
    with pytest.raises(GraphError):
        Graph.make(["a"], [("a", "a")])
    with pytest.raises(UnknownVertexError):
        Graph.make(["a"], [("a", "b")])
    with pytest.raises(GraphError):
        Graph.make([1], [])


def test_closed_neighborhood_examples():
    assert complete_graph("abc").closed_neighborhood("a") == frozenset("abc")
    assert cycle_graph("abcd").closed_neighborhood("a") == frozenset("abd")
    assert edgeless_graph("ab").closed_neighborhood("a") == frozenset("a")
    with pytest.raises(UnknownVertexError):
        complete_graph("abc").closed_neighborhood("z")


def test_open_neighborhood_subgraph_examples():
    k4 = complete_graph("abcd")
    assert are_isomorphic(k4.open_neighborhood_subgraph("a"), complete_graph("xyz"))
    c4 = cycle_graph("abcd")
    nb = c4.open_neighborhood_subgraph("a")
    assert nb.vertices == frozenset("bd") and not nb.edges


def test_deletions():
    k3 = complete_graph("abc")
    assert k3.without_vertex("a") == complete_graph("bc")
    assert k3.without_edge("a", "b") == Graph.make("abc", [("a", "c"), ("b", "c")])
    c4 = cycle_graph("abcd")
    two = c4.without_vertices("ac")
    assert two.vertices == frozenset("bd") and not two.edges
    with pytest.raises(UnknownVertexError):
        k3.without_vertex("z")


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=8), st.data())
def test_chained_deletions_derive_the_adjacency_of_the_filtered_graph(g, data):
    """Each deletion derives its adjacency from its parent's; after any chain
    of them the graph and its adjacency are those the kept edges give."""
    cur, keep = g, g.vertices
    for _ in range(data.draw(st.integers(1, 4))):
        gone = data.draw(st.sets(st.sampled_from(g.sorted_vertices()), max_size=3))
        if gone - keep:  # one of them is already deleted
            with pytest.raises(UnknownVertexError):
                cur.without_vertices(gone)
            continue
        if len(gone) == 1 and data.draw(st.booleans()):
            cur = cur.without_vertex(*gone)
        else:
            cur = cur.without_vertices(gone)
        keep -= gone
        assert cur == Graph(keep, frozenset(e for e in g.edges if e <= keep))
        assert cur.adjacency == Graph(cur.vertices, cur.edges).adjacency
        with pytest.raises(UnknownVertexError):
            cur.without_vertex("z")
    assert g.adjacency == Graph(g.vertices, g.edges).adjacency


def test_suspension_point_and_k2():
    pt = Graph.make(["p"])
    spt = pt.suspension()
    assert are_isomorphic(spt, path_graph("xyz"))
    sk2 = complete_graph("ab").suspension()
    k4 = complete_graph("wxyz")
    missing = k4.without_edge("w", "x")
    assert are_isomorphic(sk2, missing)


def test_suspension_of_square_is_octahedron():
    # direct construction: three pairs of antipodes, all cross pairs joined
    octa = Graph.make(
        "a c b d x y".split(),
        [(u, v) for u, v in itertools.combinations("abcdxy", 2)
         if {u, v} not in ({"a", "c"}, {"b", "d"}, {"x", "y"})])
    s = cycle_graph("abcd").suspension()
    assert len(s.vertices) == 6 and len(s.edges) == 12
    assert are_isomorphic(s, octa)


def test_suspension_counts_and_empty():
    s = Graph.make([]).suspension()
    assert len(s.vertices) == 2 and not s.edges


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_suspension_degree_law(g):
    s = g.suspension()
    apexes = s.vertices - g.vertices
    assert len(apexes) == 2
    for v in g.vertices:
        assert s.degree(v) == g.degree(v) + 2
    for x in apexes:
        assert s.degree(x) == len(g.vertices)
        assert s.neighbors(x) == g.vertices


@settings(max_examples=40, deadline=None)
@given(graphs(), st.data())
def test_open_neighborhood_is_induced_closed_minus_vertex(g, data):
    v = data.draw(st.sampled_from(g.sorted_vertices()))
    assert g.open_neighborhood_subgraph(v) == g.induced(g.closed_neighborhood(v) - {v})


def test_enumerate_examples():
    assert len(complete_subgraphs(complete_graph("abc"))) == 7
    fam = enumerate_complete_subgraphs(cycle_graph("abcd"), "all")
    assert len(fam.cliques) == 8
    assert fam.validate() is None
    maxi = enumerate_complete_subgraphs(cycle_graph("abcd"), "maximal")
    assert len(maxi.cliques) == 4 and maxi.validate() is None


@pytest.mark.parametrize("cap,count", [(0, None), (8, None), (36, None), (254, None), (255, 255)])
def test_enumeration_budget(monkeypatch, cap, count):
    """K8 has 255 complete subgraphs, 8 + 28 = 36 of them with at most two
    vertices: the cap raises iff there are more than DEFAULT_CLIQUE_CAP."""
    monkeypatch.setattr(graphs_module, "DEFAULT_CLIQUE_CAP", cap)
    if count is None:
        with pytest.raises(BudgetExceededError, match=f"^more than {cap} complete subgraphs$"):
            complete_subgraphs(complete_graph("abcdefgh"))
    else:
        assert len(complete_subgraphs(complete_graph("abcdefgh"))) == count


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_enumeration_closure_properties(g):
    listed = complete_subgraphs(g)
    allc = set(listed)
    maxi = maximal_cliques(g)
    for c in allc:
        for v in c:
            if len(c) > 1:
                assert (c - {v}) in allc
        assert any(c <= m for m in maxi)
    assert set(maxi) <= allc
    assert listed == sorted(listed, key=lambda c: (len(c), sorted(c)))
    assert allc == {frozenset(s) for m in maxi
                    for k in range(1, len(m) + 1) for s in itertools.combinations(m, k)}


def test_isomorphism_examples():
    c4 = cycle_graph("abcd")
    w = are_isomorphic(c4, cycle_graph("wxyz"))
    assert w is not None and w.error(c4, cycle_graph("wxyz")) is None
    split = Graph.make("abcd", [("a", "b"), ("b", "c"), ("a", "c")])
    assert are_isomorphic(c4, split) is None


def test_isomorphism_cap(monkeypatch):
    monkeypatch.setattr(graphs_module, "DEFAULT_ISO_CAP", 8)
    small = edgeless_graph(str(i) for i in range(8))
    assert are_isomorphic(small, small) is not None
    big = edgeless_graph(str(i) for i in range(9))
    with pytest.raises(BudgetExceededError, match="^isomorphism test capped at 8 vertices$"):
        are_isomorphic(big, big)


@settings(max_examples=30, deadline=None)
@given(graphs(max_n=5), st.integers(0, 10_000))
def test_isomorphism_is_label_independent(g, seed):
    rng = random.Random(seed)
    perm = g.sorted_vertices()
    rng.shuffle(perm)
    relabel = dict(zip(g.sorted_vertices(), perm))
    h = Graph.make(perm, [(relabel[a], relabel[b]) for a, b in g.sorted_edges()])
    assert canonical_form(g) == canonical_form(h)
    w = are_isomorphic(g, h)
    assert w is not None and w.error(g, h) is None


@settings(max_examples=20, deadline=None)
@given(st.lists(graphs(max_n=5), min_size=2, max_size=4))
def test_isomorphism_behaves_like_an_equivalence(batch):
    for g in batch:
        assert are_isomorphic(g, g) is not None
    for g, h in itertools.combinations(batch, 2):
        assert (are_isomorphic(g, h) is None) == (are_isomorphic(h, g) is None)
    for g, h, k in itertools.permutations(batch, 3):
        if are_isomorphic(g, h) and are_isomorphic(h, k):
            assert are_isomorphic(g, k) is not None


def test_subset_label_and_fresh_labels():
    assert subset_label(["b", "a"]) == "[a,b]"
    assert subset_label([]) == "[]"
    assert fresh_labels({"_x1", "a"}, 2) == ["_x2", "_x3"]


def test_regular_non_isomorphic_pairs_are_distinguished():
    c6 = cycle_graph("abcdef")
    two_triangles = Graph.make(
        "abcdef", [("a", "b"), ("b", "c"), ("a", "c"),
                   ("d", "e"), ("e", "f"), ("d", "f")])
    assert are_isomorphic(c6, two_triangles) is None

    # the classic strongly regular pair: same parameters, different graphs
    verts = [f"{i}{j}" for i in range(4) for j in range(4)]
    rook = Graph.make(verts, [(a, b) for a, b in itertools.combinations(verts, 2)
                              if a[0] == b[0] or a[1] == b[1]])
    diffs = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    shrikhande = Graph.make(verts, [
        (a, b) for a, b in itertools.combinations(verts, 2)
        if ((int(a[0]) - int(b[0])) % 4, (int(a[1]) - int(b[1])) % 4) in diffs])
    assert all(rook.degree(v) == 6 for v in verts)
    assert all(shrikhande.degree(v) == 6 for v in verts)
    assert are_isomorphic(rook, shrikhande) is None


def _brute_force_isomorphic(g, h):
    import itertools as it
    if len(g.vertices) != len(h.vertices):
        return False
    gs, hs = g.sorted_vertices(), h.sorted_vertices()
    for perm in it.permutations(hs):
        m = dict(zip(gs, perm))
        if all(h.has_edge(m[a], m[b]) == g.has_edge(a, b)
               for a, b in it.combinations(gs, 2)):
            return True
    return False


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=5), graphs(max_n=5))
def test_isomorphism_matches_brute_force(g, h):
    assert (are_isomorphic(g, h) is not None) == _brute_force_isomorphic(g, h)
