import random

import pytest
from hypothesis import given, settings, strategies as st

from flagcalc import (
    CertificateError,
    DismantlingOrder,
    Graph,
    GraphError,
    GraphMove,
    IContractibility,
    MoveCertificate,
    MoveKind,
    NormalizationError,
    Outcome,
    apply_move,
    are_isomorphic,
    check_certificate,
    complete_graph,
    cycle_graph,
    dismantles_onto,
    dismantling_core,
    dominated_vertices,
    is_dismantlable,
    is_s_dismantlable_edge,
    is_s_dismantlable_vertex,
    normalize_certificate,
    path_graph,
    realize_edge_deletion,
    realize_s_neighborhood_deletion,
    s_collapse_search,
    s_dismantlable_edges,
    s_dismantlable_vertices,
    ws_reduction_search,
)
from flagcalc.corpus import prism_graph, s_collapsible_rigid_graph
from flagcalc.dismantling import replay_moves
from flagcalc.identities import random_graph
from flagcalc.simplicial import (
    clique_complex,
    free_pairs,
    inclusion_graph_moves_for_collapse,
    skeleton_move_for_collapse,
)

from .helpers import (
    exhaustive_graph_dismantlable,
    random_copwin_graph,
    random_vertex_move_certificate,
)


def test_dominated_vertices_examples():
    assert len(dominated_vertices(complete_graph("abc"))) == 6
    assert dominated_vertices(cycle_graph("abcd")) == []
    for v, w in dominated_vertices(complete_graph("abcd")):
        assert complete_graph("abcd").has_edge(v, w)


def test_dismantling_core():
    residual, order = dismantling_core(complete_graph("abcde"))
    assert len(residual.vertices) == 1 and len(order.steps) == 4
    c5 = cycle_graph("abcde")
    residual, order = dismantling_core(c5)
    assert residual == c5 and not order.steps
    prism = prism_graph()
    residual, order = dismantling_core(prism)
    assert residual == prism and not order.steps
    with pytest.raises(GraphError):
        dismantling_core(Graph.make([]))


def test_is_dismantlable_examples():
    cone = Graph.make("abcd", [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c")])
    assert is_dismantlable(cone)
    two = Graph.make("ab", [])
    assert not is_dismantlable(two)
    assert is_dismantlable(path_graph("abcd"))
    with pytest.raises(GraphError):
        is_dismantlable(Graph.make([]))


def test_dismantles_onto():
    k3 = complete_graph("abc")
    k1 = k3.induced("a")
    assert dismantles_onto(k3, k1).outcome is Outcome.YES
    c4 = cycle_graph("abcd")
    verdict = dismantles_onto(c4, c4)
    assert verdict.outcome is Outcome.YES and not verdict.certificate.moves
    g1 = s_collapsible_rigid_graph()
    assert dismantles_onto(g1, g1.without_vertex("a")).outcome is Outcome.NO
    with pytest.raises(GraphError):
        dismantles_onto(k3, Graph.make("ab", []))  # not induced


def test_s_dismantlable_vertex_examples():
    k4 = complete_graph("abcd")
    assert all(is_s_dismantlable_vertex(k4, v) for v in k4.vertices)
    lonely = Graph.make("ab", [])
    assert not is_s_dismantlable_vertex(lonely, "a")
    g1 = s_collapsible_rigid_graph()
    assert is_s_dismantlable_vertex(g1, "a")
    assert not is_s_dismantlable_vertex(g1, "e")


def test_s_dismantlable_edge_examples():
    k4 = complete_graph("abcd")
    assert is_s_dismantlable_edge(k4, ("a", "b"))
    c4 = cycle_graph("abcd")
    assert not is_s_dismantlable_edge(c4, ("a", "b"))


def test_apply_move_examples():
    k4 = complete_graph("abcd")
    move = GraphMove(MoveKind.REMOVE_VERTEX, "a",
                     witness=DismantlingOrder((("b", "c"), ("c", "d"))))
    assert apply_move(k4, move) == complete_graph("bcd")

    c4 = cycle_graph("abcd")
    pendant = GraphMove(MoveKind.ADD_VERTEX, "x", witness=DismantlingOrder(()),
                        attachment=frozenset("a"))
    out = apply_move(c4, pendant)
    assert out.neighbors("x") == frozenset("a")

    drop = GraphMove(MoveKind.REMOVE_EDGE, frozenset(("a", "b")),
                     witness=DismantlingOrder((("c", "d"),)))
    assert apply_move(k4, drop) == k4.without_edge("a", "b")


def test_apply_move_rejects_bad_witness():
    k4 = complete_graph("abcd")
    bad = GraphMove(MoveKind.REMOVE_VERTEX, "a",
                    witness=DismantlingOrder((("b", "b"),)))
    with pytest.raises(CertificateError):
        apply_move(k4, bad)


def test_check_certificate_examples():
    k4 = complete_graph("abcd")
    assert check_certificate(MoveCertificate(k4, (), k4)).ok

    moves = []
    cur = k4
    for v, rest in (("a", "bcd"), ("b", "cd"), ("c", "d")):
        order = tuple((x, rest[-1]) for x in rest[:-1])
        moves.append(GraphMove(MoveKind.REMOVE_VERTEX, v,
                               witness=DismantlingOrder(order)))
        cur = cur.without_vertex(v)
    cert = MoveCertificate(k4, tuple(moves), cur)
    assert check_certificate(cert).ok

    tampered = MoveCertificate(
        k4, (GraphMove(MoveKind.REMOVE_VERTEX, "a",
                       witness=DismantlingOrder((("b", "b"),))),) + tuple(moves[1:]), cur)
    report = check_certificate(tampered)
    assert not report.ok and report.failed_at == 0


def test_normalize_swaps_remove_then_add():
    k4 = complete_graph("abcd")
    m1 = GraphMove(MoveKind.REMOVE_VERTEX, "a",
                   witness=DismantlingOrder((("b", "c"), ("c", "d"))))
    g2 = apply_move(k4, m1)
    m2 = GraphMove(MoveKind.ADD_VERTEX, "z", witness=DismantlingOrder((("b", "c"),)),
                   attachment=frozenset("bc"))
    g3 = apply_move(g2, m2)
    cert = MoveCertificate(k4, (m1, m2), g3)
    norm = normalize_certificate(cert)
    assert [m.kind for m in norm.moves] == [MoveKind.ADD_VERTEX, MoveKind.REMOVE_VERTEX]
    assert norm.end == cert.end and check_certificate(norm).ok
    assert normalize_certificate(norm).moves == norm.moves


def test_normalize_rejects_edge_moves_and_label_reuse():
    k4 = complete_graph("abcd")
    edge_cert = realize_edge_deletion(k4, ("a", "b"))
    drop = GraphMove(MoveKind.REMOVE_EDGE, frozenset(("a", "b")),
                     witness=DismantlingOrder((("c", "d"),)))
    with pytest.raises(NormalizationError):
        normalize_certificate(MoveCertificate(k4, (drop,), k4.without_edge("a", "b")))

    # remove a then re-add the same label: legal to replay, not to reorder
    m1 = GraphMove(MoveKind.REMOVE_VERTEX, "a",
                   witness=DismantlingOrder((("b", "c"), ("c", "d"))))
    g2 = apply_move(k4, m1)
    m2 = GraphMove(MoveKind.ADD_VERTEX, "a", witness=DismantlingOrder(()),
                   attachment=frozenset("b"))
    g3 = apply_move(g2, m2)
    with pytest.raises(NormalizationError):
        normalize_certificate(MoveCertificate(k4, (m1, m2), g3))
    assert check_certificate(edge_cert).ok


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_normalize_random_certificates_revalidate(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 6), rng.choice((0.3, 0.5, 0.7)))
    cert = random_vertex_move_certificate(rng, g, 6)
    norm = normalize_certificate(cert)
    assert check_certificate(norm).ok
    assert norm.end == cert.end
    kinds = [m.kind for m in norm.moves]
    assert kinds == sorted(kinds, key=lambda k: k is MoveKind.REMOVE_VERTEX)
    assert sorted(m.describe() for m in norm.moves) == \
        sorted(m.describe() for m in cert.moves)


def test_realize_edge_deletion_examples():
    k4 = complete_graph("abcd")
    cert = realize_edge_deletion(k4, ("a", "b"))
    assert len(cert.moves) == 2 and check_certificate(cert).ok
    assert are_isomorphic(cert.end, k4.without_edge("a", "b"))

    k3 = complete_graph("abc")
    cert = realize_edge_deletion(k3, ("a", "b"))
    assert are_isomorphic(cert.end, path_graph("xyz"))

    with pytest.raises(CertificateError):
        realize_edge_deletion(cycle_graph("abcd"), ("a", "b"))


def test_realize_s_neighborhood_deletion_apex():
    g1 = s_collapsible_rigid_graph()
    sg = g1.suspension()
    apex = sorted(sg.vertices - g1.vertices)[0]
    verdict = realize_s_neighborhood_deletion(sg, apex)
    assert verdict.outcome is Outcome.YES
    assert check_certificate(verdict.certificate).ok
    assert verdict.certificate.end == sg.without_vertex(apex)


def test_realize_s_neighborhood_deletion_k4():
    k4 = complete_graph("abcd")
    verdict = realize_s_neighborhood_deletion(k4, "a")
    assert verdict.outcome is Outcome.YES
    assert verdict.certificate.end == complete_graph("bcd")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_realize_s_neighborhood_deletion_random_expansion_witnesses(seed):
    rng = random.Random(seed)
    for _ in range(30):
        g = random_graph(rng, rng.randint(3, 7), rng.choice((0.4, 0.6)))
        v = rng.choice(g.sorted_vertices())
        nb = g.open_neighborhood_subgraph(v)
        if not nb.vertices:
            continue
        prefix = random_vertex_move_certificate(rng, nb, rng.randint(1, 2))
        if not any(m.kind is MoveKind.ADD_VERTEX for m in prefix.moves):
            continue
        tail = s_collapse_search(prefix.end)
        if tail.outcome is not Outcome.YES:
            continue
        witness = MoveCertificate(nb, prefix.moves + tail.certificate.moves,
                                  tail.certificate.end)
        verdict = realize_s_neighborhood_deletion(g, v, witness=witness)
        assert verdict.outcome is Outcome.YES
        assert check_certificate(verdict.certificate).ok
        assert verdict.certificate.end == g.without_vertex(v)
        return


def test_realize_s_neighborhood_deletion_with_expansion_witness():
    host = Graph.make(["v", "y1", "y2"], [("v", "y1"), ("v", "y2"), ("y1", "y2")])
    nb = host.open_neighborhood_subgraph("v")
    w1 = GraphMove(MoveKind.ADD_VERTEX, "z", witness=DismantlingOrder((("y1", "y2"),)),
                   attachment=frozenset(("y1", "y2")))
    w2 = GraphMove(MoveKind.REMOVE_VERTEX, "y1", witness=DismantlingOrder((("y2", "z"),)))
    w3 = GraphMove(MoveKind.REMOVE_VERTEX, "y2", witness=DismantlingOrder(()))
    cur = nb
    for m in (w1, w2, w3):
        cur = apply_move(cur, m)
    witness = MoveCertificate(nb, (w1, w2, w3), cur)
    verdict = realize_s_neighborhood_deletion(host, "v", witness=witness)
    assert verdict.outcome is Outcome.YES
    assert check_certificate(verdict.certificate).ok
    assert verdict.certificate.end == host.without_vertex("v")


def test_s_collapse_search_examples():
    assert s_collapse_search(cycle_graph("abcde")).outcome is Outcome.NO
    verdict = s_collapse_search(s_collapsible_rigid_graph())
    assert verdict.outcome is Outcome.YES
    assert check_certificate(verdict.certificate).ok
    assert len(verdict.certificate.end.vertices) == 1
    with pytest.raises(GraphError):
        s_collapse_search(Graph.make([]))


def test_searches_are_deterministic():
    g = s_collapsible_rigid_graph()
    assert s_collapse_search(g) == s_collapse_search(g)
    assert ws_reduction_search(g) == ws_reduction_search(g)


def test_search_budget_reports_unknown():
    verdict = s_collapse_search(complete_graph("abcd"), budget=0)
    assert verdict.outcome is Outcome.UNKNOWN


def test_ws_reduction_search_examples():
    assert ws_reduction_search(complete_graph("abc")).outcome is Outcome.YES
    c5 = cycle_graph("abcde")
    assert ws_reduction_search(c5).outcome is Outcome.NO


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_dominated_vertices_are_s_dismantlable(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 7), rng.choice((0.3, 0.5, 0.7)))
    sdv = set(s_dismantlable_vertices(g))
    for v, _ in dominated_vertices(g):
        assert v in sdv


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_greedy_matches_exhaustive_dismantling(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 7), rng.choice((0.3, 0.5, 0.7)))
    assert is_dismantlable(g) == exhaustive_graph_dismantlable(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_dismantlable_iff_suspension_dismantlable(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 8), rng.choice((0.3, 0.5, 0.7)))
    assert is_dismantlable(g) == is_dismantlable(g.suspension())


def test_contractibility_checker():
    checker = IContractibility()
    assert checker.of(Graph.make(["a"])) == "yes"
    assert checker.of(complete_graph("abcd")) == "yes"
    assert checker.of(s_collapsible_rigid_graph()) == "yes"
    assert checker.vertex(Graph.make("ab", []), "a") == "no"
    with pytest.raises(GraphError):
        checker.of(Graph.make([]))


def test_dismantlable_graphs_are_contractible():
    from flagcalc import is_i_contractible

    rng = random.Random(11)
    checker = IContractibility()
    found = 0
    while found < 20:
        g = random_graph(rng, rng.randint(1, 6), rng.choice((0.5, 0.7)))
        if not is_dismantlable(g):
            continue
        assert is_i_contractible(g, checker) == "yes"
        found += 1


@pytest.mark.parametrize("seed", range(6))
def test_s_dismantlable_lists_match_the_exhaustive_oracle(seed):
    rng = random.Random(seed)
    for _ in range(8):
        g = random_graph(rng, rng.randint(1, 9), rng.choice((0.3, 0.5, 0.7)))
        assert s_dismantlable_vertices(g) == [
            v for v in g.sorted_vertices()
            if g.neighbors(v) and exhaustive_graph_dismantlable(g.open_neighborhood_subgraph(v))]
        commons = [(frozenset((a, b)), g.neighbors(a) & g.neighbors(b)) for a, b in g.sorted_edges()]
        assert s_dismantlable_edges(g) == [
            e for e, common in commons if common and exhaustive_graph_dismantlable(g.induced(common))]


def test_dismantlability_questions_build_no_induced_graph(monkeypatch):
    g = random_copwin_graph(random.Random(5), 9)
    k = clique_complex(random_copwin_graph(random.Random(2), 7))
    induced = Graph.induced
    calls = []
    monkeypatch.setattr(Graph, "induced", lambda self, subset: calls.append(1) or induced(self, subset))
    assert s_dismantlable_vertices(g) and s_dismantlable_edges(g)
    pairs = free_pairs(k)
    skeleton = [skeleton_move_for_collapse(k, pair) for pair in pairs]
    assert any(m is not None and m.kind is MoveKind.REMOVE_EDGE for m in skeleton)
    assert all(inclusion_graph_moves_for_collapse(k, pair) for pair in pairs)
    assert calls == []


@pytest.mark.parametrize("kind", [MoveKind.REMOVE_EDGE, MoveKind.ADD_EDGE])
@pytest.mark.parametrize("target", [frozenset("a"), frozenset("abc")],
                         ids=["one-label", "three-labels"])
def test_an_edge_move_without_two_endpoints_fails_the_check(kind, target):
    g = complete_graph("abc")
    move = GraphMove(kind, target, DismantlingOrder(()))
    report = check_certificate(MoveCertificate(g, (move,), g))
    assert not report and report.failed_at == 0
    assert report.reason == f"{kind.value} needs two distinct endpoints, not {sorted(target)}"
    assert replay_moves(g, [move]) == (g, report)
