"""IContractibility on the shared search engine: answers, budget and memo."""

import itertools
import random

import pytest

from flagcalc import (
    Graph,
    IContractibility,
    clique_complex,
    complete_graph,
    corpus,
    cycle_graph,
    dismantling,
    is_dismantlable,
    path_graph,
)
from flagcalc import graphs
from flagcalc.graphs import clique_masks, reduced_betti
from flagcalc.identities import random_graph

from .helpers import exhaustive_s_collapsible
from .test_graph_search import hard_family_member


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


def _counted_searches(monkeypatch) -> list[int]:
    """Node counts of the `backtrack` calls made from now on, in call order."""
    calls = []
    search = dismantling.backtrack

    def counted(*args, **kwargs):
        verdict = search(*args, **kwargs)
        calls.append(verdict.stats.nodes)
        return verdict

    monkeypatch.setattr(dismantling, "backtrack", counted)
    return calls


@pytest.mark.parametrize("budget", [50, 100, 200])
def test_node_budget_bounds_the_whole_cascade(monkeypatch, budget):
    calls = _counted_searches(monkeypatch)
    # The dunce hat with a cop-win tail is acyclic and not dismantlable, so no
    # Betti number and no greedy pass answers for a search.  It is the
    # apexes' neighbourhood in its suspension, so deleting an apex asks a
    # nested question that searches too.
    g = hard_family_member(0, 10).suspension()
    assert IContractibility(node_budget=budget).of(g) == "unknown"
    assert len(calls) > 1
    assert sum(calls) == budget


def test_an_undecidable_graph_costs_one_node(monkeypatch):
    # The dunce hat is acyclic and has no deletable vertex; additions are not
    # searched, so its one state yields no move and runs out of deletions:
    # "unknown".
    calls = _counted_searches(monkeypatch)
    assert IContractibility().of(corpus.dunce_hat_graph()) == "unknown"
    assert sum(calls) <= 1


def test_long_paths_and_large_cliques_are_yes():
    # Dominated vertices are deleted without a nested question, so neither
    # the nesting cap nor a depth cap binds on n - 1 deletions.
    assert IContractibility().of(complete_graph(f"v{i:02d}" for i in range(20))) == "yes"
    assert IContractibility().of(path_graph(f"v{i:02d}" for i in range(30))) == "yes"


def test_answers_match_dismantlability_on_the_graph_atlas():
    # Every nonempty graph on at most seven vertices: acyclic means
    # dismantlable there, so deletions alone decide each one.
    nx = pytest.importorskip("networkx")
    checker = IContractibility()
    for h in nx.graph_atlas_g()[1:]:
        g = Graph.make([str(v) for v in h], [(str(a), str(b)) for a, b in h.edges])
        assert checker.of(g) == ("yes" if is_dismantlable(g) else "no")


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
    assert checker.of(hard_family_member(0, 10)) == "unknown"
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


def test_a_question_at_the_nesting_cap_is_no_only_with_homology():
    capped = IContractibility()
    capped.MAX_NESTING = 0
    assert capped.of(cycle_graph("abcde")) == "no"  # its clique complex is a circle
    assert capped.of(corpus.s_collapsible_rigid_graph()) == "unknown"
    assert IContractibility().of(corpus.s_collapsible_rigid_graph()) == "yes"


def test_a_graph_with_homology_is_answered_no_without_search(monkeypatch):
    monkeypatch.setattr(dismantling, "backtrack", None)  # any search would fail
    checker = IContractibility()
    assert checker.of(cycle_graph("abcde")) == "no"
    assert checker.of(cycle_graph("abcd").suspension()) == "no"
    assert checker.vertex(cycle_graph("abcde").suspension(), "a") == "no"


def test_no_question_labels_a_graph(monkeypatch):
    def refuse(g):
        raise AssertionError("canonical labeling ran")

    monkeypatch.setattr(graphs, "_canonical_full", refuse)
    assert IContractibility().of(corpus.s_collapsible_rigid_graph()) == "yes"
    g = hard_family_member(0, 10).suspension()
    assert IContractibility(node_budget=200).of(g) == "unknown"


def _acyclic_non_dismantlable(seed: int, count: int):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        g = random_graph(rng, rng.randint(8, 10), rng.uniform(0.3, 0.7))
        if not reduced_betti(clique_masks(g.adjacency)) and not is_dismantlable(g):
            found.append(g)
    return found


def test_answers_match_the_exhaustive_oracle():
    # Every s-collapse is a sequence of I-deletions, and on these draws no
    # other I-deletion reaches a point, so "yes" means s-collapsible.
    for g in _acyclic_non_dismantlable(31, 25):
        answer = IContractibility().of(g)
        assert answer != "no"
        assert (answer == "yes") == exhaustive_s_collapsible(g)
