import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from flagcalc import (
    BudgetExceededError,
    CertificateError,
    CollapsePair,
    ComplexError,
    Graph,
    MoveKind,
    Outcome,
    SimplicialComplex,
    apply_move,
    barycentric_complex,
    barycentric_graph,
    check_complex_certificate,
    clique_complex,
    collapse_search,
    complete_graph,
    cycle_graph,
    delete_open_star,
    domination_collapse,
    dominated_vertices,
    free_pairs,
    full_simplex,
    inclusion_graph,
    is_dismantlable,
    is_flag,
    link,
    one_skeleton,
    path_graph,
    star_collapse_certificate,
    subset_label,
)
from flagcalc.simplicial import (
    COLLAPSE,
    ComplexCertificate,
    apply_pair_unchecked,
    collapse,
    collapse_certificate_for_dismantlable,
    collapse_pair_error,
    inclusion_graph_moves_for_collapse,
    skeleton_move_for_collapse,
)
from flagcalc import graphs
from flagcalc.identities import random_complex, random_graph

from .helpers import brute_force_chains

HOLLOW = SimplicialComplex.from_maximal([("a", "b"), ("b", "c"), ("a", "c")])


def test_from_maximal_examples():
    assert len(SimplicialComplex.from_maximal([("a", "b", "c")]).simplices) == 7
    assert len(SimplicialComplex.from_maximal([("a", "b"), ("b", "c")]).simplices) == 5
    assert SimplicialComplex.from_maximal([]).simplices == frozenset()
    with pytest.raises(ComplexError):
        SimplicialComplex.from_maximal([()])
    with pytest.raises(ComplexError):
        SimplicialComplex.from_simplices([("a", "b")])  # not closed


def test_clique_complex_examples():
    assert clique_complex(complete_graph("abc")) == full_simplex("abc")
    c4 = clique_complex(cycle_graph("abcd"))
    assert c4.dimension() == 1 and len(c4.simplices) == 8


@pytest.mark.parametrize("cap,count", [(0, None), (8, None), (36, None), (254, None), (255, 255)])
def test_clique_complex_budget(monkeypatch, cap, count):
    """K8 has 255 complete subgraphs: the cap raises iff there are more."""
    monkeypatch.setattr(graphs, "DEFAULT_CLIQUE_CAP", cap)
    if count is None:
        with pytest.raises(BudgetExceededError):
            clique_complex(complete_graph("abcdefgh"))
    else:
        assert len(clique_complex(complete_graph("abcdefgh")).simplices) == count


def test_is_flag():
    ok, _ = is_flag(clique_complex(cycle_graph("abcde")))
    assert ok
    ok, witness = is_flag(HOLLOW)
    assert not ok and witness == frozenset("abc")
    # K4's 1-skeleton with three of its four triangles: both bcd and abcd are
    # missing, and only bcd has all its proper subsets present.
    k = SimplicialComplex.from_maximal(["abc", "abd", "acd", "bc", "bd", "cd"])
    ok, witness = is_flag(k)
    assert not ok and witness == frozenset("bcd")


def test_link_examples():
    tri = full_simplex("abc")
    assert link(tri, ("a",)) == SimplicialComplex.from_maximal([("b", "c")])
    sq = clique_complex(cycle_graph("abcd"))
    lk = link(sq, ("a",))
    assert lk.simplices == frozenset({frozenset("b"), frozenset("d")})
    with pytest.raises(ComplexError):
        link(tri, ("a", "z"))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_link_of_vertex_in_clique_complex(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 6), rng.choice((0.3, 0.5, 0.7)))
    k = clique_complex(g)
    for v in g.sorted_vertices():
        assert link(k, (v,)) == clique_complex(g.open_neighborhood_subgraph(v))
        assert delete_open_star(k, (v,)) == clique_complex(g.without_vertex(v))


def test_delete_open_star_examples():
    tri = full_simplex("abc")
    assert delete_open_star(tri, ("a", "b", "c")) == HOLLOW
    point = SimplicialComplex.from_maximal([("a",)])
    assert delete_open_star(point, ("a",)).simplices == frozenset()


def test_free_pairs_examples():
    pairs = free_pairs(full_simplex("abc"))
    assert [(sorted(p.sigma), sorted(p.tau)) for p in pairs] == [
        (["a", "b", "c"], ["a", "b"]),
        (["a", "b", "c"], ["a", "c"]),
        (["a", "b", "c"], ["b", "c"]),
    ]
    assert free_pairs(HOLLOW) == []


def test_collapse_pair_validation():
    tri = full_simplex("abc")
    good = CollapsePair(frozenset("abc"), frozenset("ab"))
    assert collapse_pair_error(tri, good) is None
    bad = CollapsePair(frozenset("abc"), frozenset("a"))
    assert collapse_pair_error(tri, bad) is not None
    with pytest.raises(CertificateError):
        collapse(tri, bad)


def test_star_collapse_on_k4():
    k4 = complete_graph("abcd")
    kk = clique_complex(k4)
    lc = collapse_certificate_for_dismantlable(k4.open_neighborhood_subgraph("a"))
    cert = star_collapse_certificate(kk, ("a",), lc)
    assert check_complex_certificate(cert).ok
    assert cert.end == clique_complex(complete_graph("bcd"))


def test_star_collapse_needs_a_closed_start():
    # abc lacks its facets ac and bc, so the counts would call a free in ab;
    # no complex holds such a family, so no star collapse can start from one
    with pytest.raises(ComplexError, match=r"not closed under deletion at \[a,b,c\]"):
        SimplicialComplex(frozenset(map(frozenset, ("a", "b", "ab", "abc"))))


def test_domination_collapse_examples():
    k2 = complete_graph("ab")
    cert = domination_collapse(k2, "a", "b")
    assert check_complex_certificate(cert).ok
    assert cert.end == SimplicialComplex.from_maximal([("b",)])

    k3 = complete_graph("abc")
    cert = domination_collapse(k3, "a", "b")
    assert len(cert.moves) == 2
    assert cert.end == SimplicialComplex.from_maximal([("b", "c")])

    with pytest.raises(CertificateError):
        domination_collapse(cycle_graph("abcd"), "a", "b")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_domination_collapse_random(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 8), rng.choice((0.3, 0.5, 0.7)))
    pairs = dominated_vertices(g)
    if not pairs:
        return
    v, w = rng.choice(pairs)
    cert = domination_collapse(g, v, w)
    assert check_complex_certificate(cert).ok
    assert cert.end == clique_complex(g.without_vertex(v))


def test_collapse_search_examples():
    assert collapse_search(full_simplex("abc")).outcome is Outcome.YES
    assert collapse_search(HOLLOW).outcome is Outcome.NO
    with pytest.raises(ComplexError):
        collapse_search(SimplicialComplex.from_maximal([]))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_reversed_collapses_replay_as_expansions(seed):
    from flagcalc.simplicial import ANTICOLLAPSE, ComplexCertificate

    rng = random.Random(seed)
    k = random_complex(rng, rng.randint(2, 5), rng.choice((0.3, 0.5, 0.7)))
    verdict = collapse_search(k)
    if verdict.outcome is not Outcome.YES or not verdict.certificate.moves:
        return
    forward = verdict.certificate
    backward = ComplexCertificate(
        forward.end,
        tuple((ANTICOLLAPSE, pair) for _, pair in reversed(forward.moves)),
        forward.start)
    assert check_complex_certificate(backward).ok


def test_collapse_search_follows_a_path_thousands_of_moves_deep():
    labels = [f"v{i:04d}" for i in range(1100)]
    verdict = collapse_search(clique_complex(path_graph(labels)))
    assert verdict.outcome is Outcome.YES
    assert len(verdict.certificate.moves) == 1099
    assert check_complex_certificate(verdict.certificate)


def test_collapse_search_with_target():
    k = clique_complex(complete_graph("abc"))
    target = SimplicialComplex.from_maximal([("b", "c")])
    verdict = collapse_search(k, target)
    assert verdict.outcome is Outcome.YES
    assert verdict.certificate.end == target


def test_collapse_search_to_a_target_outside_the_start_is_no_at_once():
    verdict = collapse_search(full_simplex("ab"), SimplicialComplex.from_maximal(["c"]))
    assert verdict.outcome is Outcome.NO and verdict.stats.nodes == 0


def test_collapse_search_refuses_a_family_not_closed_under_deletion():
    # The Betti vector, the free pairs and the replayed certificate all assume
    # every facet of a member is a member, so neither a start nor a target can
    # hold another family.
    for family in (("ab",), ("ab", "a")):
        with pytest.raises(ComplexError, match=r"not closed under deletion at \[a,b\]"):
            SimplicialComplex(frozenset(map(frozenset, family)))


@pytest.mark.parametrize("family,least", [
    (("ab", "a"), "[a,b]"),  # free_pairs offered (ab, b), and b is no member
    (("abc", "ab", "a", "b", "c"), "[a,b,c]"),  # maximal_simplices listed c
])
def test_free_faces_refuse_a_family_not_closed_under_deletion(family, least):
    # the refusal is the constructor's, so no complex reaches these functions
    message = rf"^family not closed under deletion at {re.escape(least)}$"
    for build in (SimplicialComplex, SimplicialComplex.from_simplices):
        with pytest.raises(ComplexError, match=message):
            build(frozenset(map(frozenset, family)))


def test_an_anticollapse_onto_the_empty_face_is_refused():
    # it would put the empty set into the replayed family
    from flagcalc.simplicial import ANTICOLLAPSE

    point = SimplicialComplex.from_maximal(["a"])
    move = (ANTICOLLAPSE, CollapsePair(frozenset("x"), frozenset()))
    report = check_complex_certificate(ComplexCertificate(point, (move,), point))
    assert (report.ok, report.failed_at, report.reason) == (False, 0, "pair is not a facet pair")


def test_a_certificate_ending_in_a_family_not_closed_is_a_mismatch():
    # such an end cannot be built, so no certificate holds one
    with pytest.raises(ComplexError, match=r"^family not closed under deletion at \[a,b\]$"):
        SimplicialComplex(frozenset(map(frozenset, ("ab", "a"))))


def test_barycentric_complex_small():
    edge = SimplicialComplex.from_maximal([("a", "b")])
    bd = barycentric_complex(edge)
    assert bd == SimplicialComplex.from_maximal(
        [(subset_label("a"), subset_label("ab")), (subset_label("b"), subset_label("ab"))])


def test_barycentric_complex_of_triangle_matches_brute_force():
    tri = full_simplex("abc")
    expected = {frozenset(subset_label(s) for s in chain)
                for chain in brute_force_chains(tri.sorted_simplices())}
    bd = barycentric_complex(tri)
    assert bd.simplices == frozenset(expected)
    assert len(bd.simplices) == 25
    counts = [sum(1 for s in bd.simplices if len(s) == d) for d in (1, 2, 3)]
    assert counts == [7, 12, 6]


def test_inclusion_graph_examples():
    point = SimplicialComplex.from_maximal([("a",)])
    assert inclusion_graph(point) == Graph.make([subset_label("a")])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_inclusion_graph_of_clique_complex_is_subdivision(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 6), rng.choice((0.3, 0.5, 0.7)))
    assert inclusion_graph(clique_complex(g)) == barycentric_graph(g)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_punctured_simplex_inclusion_graph_dismantles(dim):
    labels = [f"v{i}" for i in range(dim + 1)]
    k = full_simplex(labels)
    sigma = frozenset(labels)
    tau = sigma - {labels[0]}
    punctured = SimplicialComplex(k.simplices - {sigma, tau})
    gam = inclusion_graph(punctured)
    assert len(gam.vertices) == 2 ** (dim + 1) - 3
    assert is_dismantlable(gam)


def test_one_skeleton():
    assert one_skeleton(full_simplex("abc")) == complete_graph("abc")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_skeleton_of_clique_complex_is_identity(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 7), rng.choice((0.3, 0.5, 0.7)))
    assert one_skeleton(clique_complex(g)) == g


def test_skeleton_move_cases():
    # free vertex: remove it from the skeleton as a dominated vertex
    whisker = SimplicialComplex.from_maximal([("a", "b"), ("b", "c")])
    pair = CollapsePair(frozenset("ab"), frozenset("a"))
    move = skeleton_move_for_collapse(whisker, pair)
    assert move.kind is MoveKind.REMOVE_VERTEX and move.target == "a"
    assert apply_move(one_skeleton(whisker), move) == \
        one_skeleton(apply_pair_unchecked(whisker, COLLAPSE, pair))

    # free edge: remove it as an s-dismantlable edge
    tri = full_simplex("abc")
    pair = CollapsePair(frozenset("abc"), frozenset("ab"))
    move = skeleton_move_for_collapse(tri, pair)
    assert move.kind is MoveKind.REMOVE_EDGE
    assert apply_move(one_skeleton(tri), move) == \
        one_skeleton(apply_pair_unchecked(tri, COLLAPSE, pair))

    # higher pair: the skeleton is untouched
    k4 = clique_complex(complete_graph("wxyz"))
    pair = CollapsePair(frozenset("wxyz"), frozenset("xyz"))
    assert skeleton_move_for_collapse(k4, pair) is None
    assert one_skeleton(apply_pair_unchecked(k4, COLLAPSE, pair)) == one_skeleton(k4)


def test_skeleton_move_on_non_flag_complexes():
    # a-b is free, but a and b also share the neighbor d outside the triangle
    pair = CollapsePair(frozenset("abc"), frozenset("ab"))
    k = SimplicialComplex.from_maximal(["abc", "ad", "bd", "cd"])
    move = skeleton_move_for_collapse(k, pair)
    assert move.kind is MoveKind.REMOVE_EDGE and len(move.witness.steps) == 1
    assert apply_move(one_skeleton(k), move) == \
        one_skeleton(apply_pair_unchecked(k, COLLAPSE, pair))

    stuck = SimplicialComplex.from_maximal(["abc", "ad", "bd"])  # {c, d} has no edge
    with pytest.raises(CertificateError, match="'a'-'b'"):
        skeleton_move_for_collapse(stuck, pair)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_collapse_induces_valid_inclusion_graph_moves(seed):
    rng = random.Random(seed)
    k = random_complex(rng, rng.randint(2, 5), rng.choice((0.3, 0.5, 0.7)))
    for pair in free_pairs(k):
        first, second = inclusion_graph_moves_for_collapse(k, pair)
        gam = inclusion_graph(k)
        after = apply_move(apply_move(gam, first), second)
        assert after == inclusion_graph(apply_pair_unchecked(k, COLLAPSE, pair))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_flagness_of_clique_and_subdivision_complexes(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 5), rng.choice((0.3, 0.5, 0.7)))
    assert is_flag(clique_complex(g))[0]
    k = random_complex(rng, rng.randint(1, 4), 0.5)
    if k.simplices:
        assert is_flag(barycentric_complex(k))[0]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_free_pairs_match_definition(seed):
    rng = random.Random(seed)
    k = random_complex(rng, rng.randint(2, 5), rng.choice((0.3, 0.5, 0.7)))
    found = {(p.sigma, p.tau) for p in free_pairs(k)}
    for sigma in k.simplices:
        for tau in k.simplices:
            is_free = (tau < sigma and len(sigma) == len(tau) + 1
                       and all(not (tau < other) for other in k.simplices
                               if other != sigma))
            assert ((sigma, tau) in found) == is_free


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_operations_preserve_downward_closure(seed):
    rng = random.Random(seed)
    k = random_complex(rng, rng.randint(2, 5), 0.5)
    outputs = [barycentric_complex(k)]
    sims = k.sorted_simplices()
    if sims:
        outputs.append(delete_open_star(k, sims[-1]))
        outputs.append(link(k, sims[0]))
    for pair in free_pairs(k):
        outputs.append(apply_pair_unchecked(k, COLLAPSE, pair))
    for out in outputs:
        SimplicialComplex.from_simplices(out.simplices)  # raises if not closed
