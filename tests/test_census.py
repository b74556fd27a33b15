"""Every graph with at most seven vertices, each classified by the library and
by the exhaustive oracles of tests/helpers.py.

The graphs come from canonical augmentation in its simplest form (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998): each graph on
n - 1 vertices gains a vertex joined to every subset of its vertices, and
`canonical_form` keeps one graph per isomorphism class.  The counts per n are
the numbers of graphs on n vertices, OEIS A000088, so on these inputs
`canonical_form` neither merges two non-isomorphic graphs nor splits two
isomorphic ones.
"""

import itertools
from functools import cache

from flagcalc import (
    Graph,
    IContractibility,
    Outcome,
    check_certificate,
    s_collapse_search,
)
from flagcalc.dismantling import (
    _obstruction,
    greedy_dismantling,
    greedy_dismantling_certificate,
)
from flagcalc.graphs import canonical_form

from .helpers import exhaustive_graph_dismantlable, exhaustive_s_collapsible

A000088 = (1, 2, 4, 11, 34, 156, 1044)
LABELS = "abcdefg"


@cache
def graphs_on(n: int) -> tuple[Graph, ...]:
    """One graph on the first n labels per isomorphism class."""
    if n == 1:
        return (Graph.make("a", ()),)
    new, old = LABELS[n - 1], LABELS[:n - 1]
    found: dict[tuple, Graph] = {}
    for h in graphs_on(n - 1):
        for k in range(n):
            for attach in itertools.combinations(old, k):
                g = Graph.make(LABELS[:n], [tuple(e) for e in h.edges] + [(new, u) for u in attach])
                found.setdefault(canonical_form(g), g)
    return tuple(found.values())


def test_the_census_counts_the_graphs_on_each_number_of_vertices():
    assert tuple(len(graphs_on(n)) for n in range(1, 8)) == A000088


def test_every_small_graph_is_classified_as_the_oracles_say():
    checked = 0
    checker = IContractibility()
    for g in (g for n in range(1, 8) for g in graphs_on(n)):
        dismantlable = greedy_dismantling(g) is not None
        assert dismantlable == exhaustive_graph_dismantlable(g)
        if dismantlable:
            assert check_certificate(greedy_dismantling_certificate(g))
            checked += 1
        verdict = s_collapse_search(g)
        assert verdict.outcome is not Outcome.UNKNOWN
        assert (verdict.outcome is Outcome.YES) == exhaustive_s_collapsible(g)
        if verdict.outcome is Outcome.YES:
            assert check_certificate(verdict.certificate)
            checked += 1
        assert checker.of(g) == ("no" if _obstruction(g) else "yes")
    assert checked > 0
