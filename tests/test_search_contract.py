"""One search contract: `backtrack` answers NO when the moves run out, and
one helper reads such a NO as UNKNOWN wherever additions are not searched."""

from flagcalc import (
    Graph,
    IContractibility,
    Outcome,
    corpus,
    realize_s_neighborhood_deletion,
    s_collapse_search,
)

from .test_graph_search import hard_family_member
from .test_icontractibility import _counted_searches


def test_exhausted_states_are_memoized_as_in_every_search(monkeypatch):
    # The dunce hat's tail is deleted in many orders; a state that ran out of
    # deletions is not expanded again, so the search walks deletion sets, as
    # s_collapse_search does.  Running out of deletions is still "unknown".
    g = hard_family_member(0, 8)
    calls = _counted_searches(monkeypatch)
    assert IContractibility().of(g) == "unknown"
    i_nodes = sum(calls)
    calls.clear()
    assert s_collapse_search(g).outcome is Outcome.NO
    assert 0 < i_nodes <= sum(calls)


def test_exhaustion_is_answered_within_the_budget(monkeypatch):
    calls = _counted_searches(monkeypatch)
    checker = IContractibility()
    assert checker.of(hard_family_member(0, 12)) == "unknown"
    assert sum(calls) < checker.node_budget


def test_a_neighbourhood_that_runs_out_of_deletions_is_unknown():
    # The apex's neighbourhood in the cone over the dunce hat is the dunce
    # hat: acyclic, so no obstruction, and with no s-move, so the search
    # runs out of deletions in one node.  Additions are not searched.
    hat = corpus.dunce_hat_graph()
    cone = Graph.make(hat.vertices | {"apex"},
                      [tuple(e) for e in hat.edges] + [("apex", v) for v in hat.vertices])
    verdict = realize_s_neighborhood_deletion(cone, "apex")
    assert verdict.outcome is Outcome.UNKNOWN
    assert verdict.stats.nodes == 1
    assert verdict.obstruction is None and verdict.certificate is None
