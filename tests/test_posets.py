import random

import pytest
from hypothesis import given, settings, strategies as st

from flagcalc import (
    CertificateError,
    Graph,
    Poset,
    PosetError,
    antichain_poset,
    barycentric_complex,
    barycentric_graph,
    barycentric_poset,
    chain_poset,
    check_poset_certificate,
    clique_complex,
    clique_poset,
    comparability_graph,
    complete_graph,
    edgeless_graph,
    face_poset,
    full_simplex,
    inclusion_graph,
    irreducible_points,
    is_dismantlable,
    is_dismantlable_poset,
    is_s_dismantlable_vertex,
    join,
    order_complex,
    product_with_two_chain,
    subset_label,
    weak_point_cascade,
    weak_points,
)
from flagcalc.posets import (
    PosetDismantlingOrder,
    PosetMove,
    PosetMoveKind,
    PosetStep,
    StepKind,
    greedy_poset_dismantling,
    weak_point_witness,
    weak_points_via_join,
)
from flagcalc.identities import random_graph, random_poset
from flagcalc.posets import PosetCertificate

from .helpers import apply_poset_move_unchecked, exhaustive_poset_dismantlable


def test_poset_construction_and_closure():
    p = Poset.make("abc", [("a", "b"), ("b", "c")])
    assert p.less("a", "c")
    with pytest.raises(PosetError):
        Poset.make("ab", [("a", "b"), ("b", "a")])
    with pytest.raises(PosetError):
        Poset.make("a", [("a", "z")])


def test_unknown_element_errors():
    c = chain_poset("ab")
    with pytest.raises(PosetError):
        c.down_set("z")
    with pytest.raises(PosetError):
        c.up_set("z")


def test_down_and_up_sets():
    c = chain_poset("123")
    assert c.down_set("2").elements == frozenset("1")
    assert c.up_set("2").elements == frozenset("3")
    a = antichain_poset("xy")
    assert not a.down_set("x").elements and not a.up_set("x").elements
    ck2 = clique_poset(complete_graph("ab"))
    top = subset_label("ab")
    assert ck2.down_set(top).elements == frozenset({subset_label("a"), subset_label("b")})
    assert not ck2.down_set(top).relation
    assert not ck2.up_set(top).elements


def test_irreducible_points_examples():
    assert irreducible_points(chain_poset("abcd")) == list("abcd")
    assert irreducible_points(antichain_poset("ab")) == []


def test_is_dismantlable_poset_examples():
    assert is_dismantlable_poset(chain_poset("abc"))
    assert not is_dismantlable_poset(antichain_poset("ab"))
    with pytest.raises(PosetError):
        is_dismantlable_poset(Poset.make([]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_cone_clique_posets_dismantle(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 5), rng.choice((0.5, 0.7)))
    if is_dismantlable(g):
        assert is_dismantlable_poset(clique_poset(g))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_poset_dismantlability_matches_comparability_graph(seed):
    rng = random.Random(seed)
    p = random_poset(rng, rng.randint(1, 6), rng.choice((0.3, 0.5, 0.7)))
    assert is_dismantlable_poset(p) == is_dismantlable(comparability_graph(p))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_greedy_matches_exhaustive_poset_dismantling(seed):
    rng = random.Random(seed)
    p = random_poset(rng, rng.randint(1, 6), rng.choice((0.3, 0.5, 0.7)))
    assert is_dismantlable_poset(p) == exhaustive_poset_dismantlable(p)


def test_weak_points_examples():
    assert weak_points(chain_poset("abc")) == list("abc")
    assert weak_points(antichain_poset("ab")) == []


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_weak_points_three_way_agreement(seed):
    rng = random.Random(seed)
    p = random_poset(rng, rng.randint(1, 6), rng.choice((0.3, 0.5, 0.7)))
    direct = weak_points(p)
    assert direct == weak_points_via_join(p)
    comp = comparability_graph(p)
    assert direct == [x for x in p.sorted_elements() if is_s_dismantlable_vertex(comp, x)]


def test_join_examples():
    two = join(Poset.make("a"), Poset.make("b"))
    assert two.less("a", "b")
    p = chain_poset("xy")
    assert join(p, Poset.make([])) == p
    assert join(Poset.make([]), p) == p
    clash = join(Poset.make("a"), Poset.make("a"))
    assert clash.elements == frozenset({"a", "a'"}) and clash.less("a", "a'")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_join_dismantlable_iff_either_factor_is(seed):
    rng = random.Random(seed)
    p = random_poset(rng, rng.randint(1, 4), rng.choice((0.3, 0.5, 0.7)))
    q = random_poset(rng, rng.randint(1, 4), rng.choice((0.3, 0.5, 0.7)))
    expected = exhaustive_poset_dismantlable(p) or exhaustive_poset_dismantlable(q)
    assert exhaustive_poset_dismantlable(join(p, q)) == expected
    assert is_dismantlable_poset(join(p, q)) == expected


def test_product_with_two_chain():
    pt = product_with_two_chain(Poset.make("x"))
    assert pt.less("(x,a)", "(x,b)") and len(pt.elements) == 2
    sq = product_with_two_chain(chain_poset("xy"))
    assert len(sq.elements) == 4
    assert sorted(sq.relation) == [
        ("(x,a)", "(x,b)"), ("(x,a)", "(y,a)"), ("(x,a)", "(y,b)"),
        ("(x,b)", "(y,b)"), ("(y,a)", "(y,b)")]


def test_comparability_graph_examples():
    assert comparability_graph(chain_poset("abcd")) == complete_graph("abcd")
    assert comparability_graph(antichain_poset("abc")) == edgeless_graph("abc")


def test_clique_poset_examples():
    ck2 = clique_poset(complete_graph("ab"))
    assert ck2.maximum() == subset_label("ab")
    ac = clique_poset(edgeless_graph("abc"))
    assert len(ac.elements) == 3 and not ac.relation


def test_order_complex_examples():
    assert order_complex(chain_poset("abc")) == full_simplex("abc")
    iso = order_complex(antichain_poset("abc"))
    assert iso.dimension() == 0 and len(iso.simplices) == 3


def test_face_poset_examples():
    pt = face_poset(clique_complex(Graph.make("a")))
    assert len(pt.elements) == 1 and not pt.relation


def test_barycentric_poset_examples():
    assert barycentric_poset(Poset.make("x")) == Poset.make([subset_label("x")])
    vee = barycentric_poset(chain_poset("xy"))
    assert vee.maximum() == subset_label("xy")
    assert len(vee.elements) == 3


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_triangle_identities_label_exact(seed):
    rng = random.Random(seed)
    p = random_poset(rng, rng.randint(1, 5), rng.choice((0.3, 0.5, 0.7)))
    g = random_graph(rng, rng.randint(1, 5), rng.choice((0.3, 0.5, 0.7)))
    k = clique_complex(random_graph(rng, rng.randint(1, 4), 0.5))

    # subdivisions three ways
    assert face_poset(order_complex(p)) == clique_poset(comparability_graph(p)) \
        == barycentric_poset(p)
    assert order_complex(face_poset(k)) == clique_complex(inclusion_graph(k)) \
        == barycentric_complex(k)
    assert comparability_graph(clique_poset(g)) == inclusion_graph(clique_complex(g)) \
        == barycentric_graph(g)

    # commuting triangles
    assert order_complex(p) == clique_complex(comparability_graph(p))
    assert clique_poset(g) == face_poset(clique_complex(g))
    assert inclusion_graph(k) == comparability_graph(face_poset(k))

    # commuting triangles up to subdivision
    assert inclusion_graph(order_complex(p)) == barycentric_graph(comparability_graph(p))
    assert order_complex(clique_poset(g)) == barycentric_complex(clique_complex(g))
    assert clique_poset(inclusion_graph(k)) == barycentric_poset(face_poset(k))


def test_weak_point_cascade_k2():
    cert = weak_point_cascade(complete_graph("ab"), "a")
    assert [m.element for m in cert.moves] == [subset_label("a"), subset_label("ab")]
    assert check_poset_certificate(cert).ok
    assert cert.end == clique_poset(Graph.make("b"))


def test_weak_point_cascade_k3():
    cert = weak_point_cascade(complete_graph("abc"), "a")
    assert cert.moves[0].element == subset_label("a")
    assert check_poset_certificate(cert).ok
    assert cert.end == clique_poset(complete_graph("bc"))
    removed = {m.element for m in cert.moves}
    assert removed == {subset_label("a"), subset_label("ab"),
                       subset_label("ac"), subset_label("abc")}


def test_weak_point_cascade_requires_s_removable_vertex():
    with pytest.raises(CertificateError):
        weak_point_cascade(edgeless_graph("ab"), "a")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_weak_point_cascade_random(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 6), rng.choice((0.3, 0.5, 0.7)))
    candidates = [v for v in g.sorted_vertices() if is_s_dismantlable_vertex(g, v)]
    if not candidates:
        return
    v = rng.choice(candidates)
    cert = weak_point_cascade(g, v)
    assert check_poset_certificate(cert).ok
    assert cert.end == clique_poset(g.without_vertex(v))


def test_check_poset_certificate_examples():
    c = chain_poset("abc")
    assert check_poset_certificate(PosetCertificate(c, (), c)).ok

    wit = weak_point_witness(c, "c")
    assert wit is not None
    side, order = wit
    move = PosetMove(PosetMoveKind.REMOVE, "c", side, order)
    cert = PosetCertificate(c, (move,), c.without("c"))
    assert check_poset_certificate(cert).ok

    bad_order = PosetDismantlingOrder(
        (PosetStep("a", StepKind.MAX_BELOW, "b"),))
    bad = PosetMove(PosetMoveKind.REMOVE, "c", "below", bad_order)
    report = check_poset_certificate(PosetCertificate(c, (bad,), c.without("c")))
    assert not report.ok and report.failed_at == 0


def test_poset_certificate_addition_replays():
    c = chain_poset("ab")
    wit = weak_point_witness(c, "b")
    side, order = wit
    remove = PosetMove(PosetMoveKind.REMOVE, "b", side, order)
    shrunk = apply_poset_move_unchecked(c, remove)
    # witness orders on a singleton sub-poset need no steps
    add = PosetMove(PosetMoveKind.ADD, "b", "below",
                    PosetDismantlingOrder(()), lower=frozenset("a"))
    cert = PosetCertificate(c, (remove, add), c)
    assert check_poset_certificate(cert).ok


def test_greedy_poset_dismantling_records_witnessed_steps():
    c = chain_poset("abc")
    order = greedy_poset_dismantling(c)
    assert order is not None
    for step in order.steps:
        assert step.kind in (StepKind.MAX_BELOW, StepKind.MIN_ABOVE)
