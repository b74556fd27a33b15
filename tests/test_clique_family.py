"""A graph's clique family, its inclusion order and its barycentric graph are
computed once per Graph object and kept with it; the caps still hold, and a
graph that keeps them still pickles and deep-copies."""

import copy
import functools
import pickle

import pytest

from flagcalc import (
    BudgetExceededError,
    Graph,
    IContractibility,
    barycentric_graph,
    check_certificate,
    clique_complex,
    clique_poset,
    complete_subgraphs,
    cycle_graph,
    enumerate_complete_subgraphs,
    maximal_cliques,
    s_collapse_search,
    subdivision_certificate,
    ws_reduction_search,
)
from flagcalc import graphs
from flagcalc.dismantling import greedy_dismantling


def _sample() -> Graph:
    # A cop-win graph with a 4-clique, two triangles sharing an edge and a tail.
    return Graph.make("abcdefg", [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
                                  ("b", "d"), ("c", "d"), ("d", "e"), ("c", "e"),
                                  ("e", "f"), ("f", "g")])


def _fresh(g: Graph) -> Graph:
    return Graph.make(g.vertices, g.edges)


@pytest.fixture
def listings(monkeypatch):
    """The calls of graphs._clique_levels, the one clique lister, as a list."""
    calls = []
    levels = graphs._clique_levels

    def counted(closed):
        calls.append(closed)
        return levels(closed)

    monkeypatch.setattr(graphs, "_clique_levels", counted)
    return calls


def test_one_graph_lists_its_cliques_once(listings):
    g = _sample()
    family = complete_subgraphs(g)
    assert clique_complex(g).simplices == frozenset(family)
    assert len(clique_poset(g).elements) == len(family)
    bd = barycentric_graph(g)
    cert = subdivision_certificate(g)
    assert len(listings) == 1
    assert cert.end is bd and barycentric_graph(g) is bd
    assert check_certificate(cert)
    fresh = _fresh(g)
    assert bd == barycentric_graph(fresh) and cert == subdivision_certificate(fresh)


def test_a_listing_that_raised_keeps_nothing(monkeypatch):
    g = _sample()
    with monkeypatch.context() as m:
        m.setattr(graphs, "DEFAULT_CLIQUE_CAP", 5)
        with pytest.raises(BudgetExceededError, match="^more than 5 complete subgraphs$"):
            complete_subgraphs(g)
    assert complete_subgraphs(g) == complete_subgraphs(_fresh(g))


def test_a_returned_list_is_the_callers_own():
    g = _sample()
    expected = complete_subgraphs(_fresh(g))
    first = complete_subgraphs(g)
    first.append(frozenset("z"))
    second = complete_subgraphs(g)
    assert second == expected
    second.clear()
    assert complete_subgraphs(g) == expected


def test_derived_graphs_list_their_own_cliques():
    g = _sample()
    complete_subgraphs(g)
    barycentric_graph(g)
    for h in (g.without_vertex("d"), g.induced("abce")):
        fresh = _fresh(h)
        assert complete_subgraphs(h) == complete_subgraphs(fresh)
        assert clique_poset(h) == clique_poset(fresh)
        assert barycentric_graph(h) == barycentric_graph(fresh)


def _complement_of_triangles(k: int) -> Graph:
    """k disjoint triangles, complemented: 3^k maximal cliques, one vertex of
    each triangle."""
    vs = [f"t{i}{j}" for i in range(k) for j in range(3)]
    return Graph.make(vs, [(a, b) for a in vs for b in vs if a < b and a[1] != b[1]])


def _cliques_built_past_a_cap_of_100(monkeypatch, listing) -> int:
    """How many frozensets `listing` builds on 3^10 maximal cliques before it
    raises at a monkeypatched cap of 100."""
    g = _complement_of_triangles(10)
    g.adjacency  # built before the count starts
    built = []

    def counted(members=()):
        built.append(members)
        return frozenset(members)

    monkeypatch.setattr(graphs, "frozenset", counted, raising=False)
    monkeypatch.setattr(graphs, "DEFAULT_CLIQUE_CAP", 100)
    with pytest.raises(BudgetExceededError, match="^more than 100 maximal complete subgraphs$"):
        listing(g)
    return len(built)


def test_the_maximal_cap_bounds_the_cliques_built(monkeypatch):
    listing = functools.partial(enumerate_complete_subgraphs, mode="maximal")
    assert _cliques_built_past_a_cap_of_100(monkeypatch, listing) <= 101


def test_maximal_cliques_stops_past_the_cap(monkeypatch):
    assert _cliques_built_past_a_cap_of_100(monkeypatch, maximal_cliques) <= 101


def test_the_maximal_family_under_the_cap_is_unchanged():
    g = _complement_of_triangles(4)
    family = enumerate_complete_subgraphs(g, "maximal")
    assert len(family.cliques) == 81
    assert list(family.cliques) == maximal_cliques(g)
    assert list(family.cliques) == sorted(family.cliques, key=sorted)
    assert family.validate() is None


@pytest.mark.parametrize("g", [_sample(), cycle_graph("abcde")], ids=["cop-win", "C5"])
def test_a_graph_with_kept_values_pickles_and_deep_copies(g):
    def answers(h):
        return (greedy_dismantling(h), s_collapse_search(h), ws_reduction_search(h),
                complete_subgraphs(h), barycentric_graph(h), IContractibility().of(h))

    before = answers(g)
    for twin in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert twin == g and twin._greedy == g._greedy
        assert answers(twin) == before
