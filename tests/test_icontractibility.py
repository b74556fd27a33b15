"""IContractibility on the shared search engine: answers, budget and memo."""

import itertools
import random

import pytest

from flagcalc import (
    Graph,
    IContractibility,
    clique_complex,
    corpus,
    cycle_graph,
    dismantling,
    is_dismantlable,
)
from flagcalc.graphs import clique_masks, reduced_betti
from flagcalc.identities import random_graph


def _seeded_graphs(seed: int, count: int):
    rng = random.Random(seed)
    return [random_graph(rng, rng.randint(1, 6), rng.choice((0.3, 0.5, 0.7)))
            for _ in range(count)]


# One letter per graph of _seeded_graphs(5, 60), each asked of a fresh checker
# with node_budget=100; recorded with the checker's earlier, private search.
# Every graph answered "unknown" there has homology, so it is now a "no".
GOLDEN_ANSWERS = "nynnynnnnnyynnnyynnnyyynnnnnnyyynnnyyyynyyynnyyynyyynynnnyyy"


def test_answers_match_the_recorded_ones():
    answers = "".join(IContractibility(node_budget=100).of(g)[0]
                      for g in _seeded_graphs(5, 60))
    assert answers == GOLDEN_ANSWERS


@pytest.mark.parametrize("budget", [50, 100, 200])
def test_node_budget_bounds_the_whole_cascade(monkeypatch, budget):
    calls = []
    search = dismantling.backtrack

    def counted(*args, **kwargs):
        verdict = search(*args, **kwargs)
        calls.append(verdict.stats.nodes)
        return verdict

    monkeypatch.setattr(dismantling, "backtrack", counted)
    # The dunce hat is acyclic, so no Betti number answers for the search.
    assert IContractibility(node_budget=budget).of(corpus.dunce_hat_graph()) == "unknown"
    assert len(calls) > 1
    assert sum(calls) == budget


def _dismantlable_graphs():
    """Every dismantlable graph on four labels, then twenty seeded ones."""
    pairs = list(itertools.combinations("abcd", 2))
    for mask in range(2 ** len(pairs)):
        g = Graph.make("abcd", [e for i, e in enumerate(pairs) if mask >> i & 1])
        if is_dismantlable(g):
            yield g
    rng = random.Random(11)
    found = 0
    while found < 20:
        g = random_graph(rng, rng.randint(1, 6), rng.choice((0.5, 0.7)))
        if is_dismantlable(g):
            yield g
            found += 1


def test_an_exhausted_budget_leaves_no_unknown_behind():
    # The cut leaves nested questions open.
    checker = IContractibility(node_budget=100)
    assert checker.of(corpus.dunce_hat_graph()) == "unknown"
    for g in _dismantlable_graphs():
        assert checker.of(g) == "yes"


def _euler_characteristic(g) -> int:
    return sum((-1) ** (len(s) - 1) for s in clique_complex(g).simplices)


def test_answers_are_sound():
    checker = IContractibility(node_budget=100)
    answers = []
    for g in _seeded_graphs(23, 40):
        answer = checker.of(g)
        if answer == "no":
            assert not is_dismantlable(g) and reduced_betti(clique_masks(g.adjacency))
        if answer == "yes":
            assert _euler_characteristic(g) == 1
        answers.append(answer)
    assert {"yes", "no"} <= set(answers)


def test_a_graph_with_homology_is_answered_no_without_search(monkeypatch):
    monkeypatch.setattr(dismantling, "backtrack", None)  # any search would fail
    checker = IContractibility()
    assert checker.of(cycle_graph("abcde")) == "no"
    assert checker.of(cycle_graph("abcd").suspension()) == "no"
    assert checker.vertex(cycle_graph("abcde").suspension(), "a") == "no"


def test_moves_on_more_than_six_vertices_end_undecided():
    # Above six vertices only the closed neighbourhoods and the whole vertex
    # set are tried as attachments, so the move list ends with one None.
    g = cycle_graph("abcdefg")
    moves = list(IContractibility(node_budget=100)._moves(9)((g, 0)))
    additions = [m[1] for m in moves if m is not None and m[1] is not None]
    closed = [g.closed_neighborhood(v) for v in g.vertices]
    assert sorted(map(sorted, additions)) == sorted(map(sorted, closed))
    assert moves[-1] is None
