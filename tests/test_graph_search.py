"""The graph searches against an exhaustive oracle, guards that they build
no graph and compute no canonical form per state, and pinned node counts on
a family that only exhaustion answers.

`s_collapse_search` and `ws_reduction_search` run on states that are bitmasks
of the start graph's vertices (plus the deleted edges, for ws-moves) instead
of `Graph` values, so a verdict here is checked against a search in
tests/helpers.py that shares none of that code.
"""

import random

import pytest

from flagcalc import (
    Graph,
    Outcome,
    check_certificate,
    corpus,
    graphs,
    s_collapse_search,
    ws_reduction_search,
)
from flagcalc.identities import random_graph

from .helpers import exhaustive_s_collapsible, random_copwin_graph


def seeded_graphs(count: int, max_n: int):
    rng = random.Random(2008)
    return [random_graph(rng, rng.randint(1, max_n), rng.choice((0.3, 0.5, 0.7)))
            for _ in range(count)]


def test_s_collapse_verdicts_agree_with_the_exhaustive_oracle():
    answers = []
    for g in seeded_graphs(120, 9):
        truth = exhaustive_s_collapsible(g)
        verdict = s_collapse_search(g)
        if verdict.outcome is Outcome.UNKNOWN:
            continue
        assert (verdict.outcome is Outcome.YES) == truth, g
        if truth:
            assert check_certificate(verdict.certificate).ok
            assert len(verdict.certificate.end.vertices) == 1
        answers.append(truth)
    assert len(answers) >= 110
    assert 20 <= sum(answers) <= len(answers) - 20  # both answers are exercised


def test_ws_no_means_no_s_collapse():
    # ws-moves include the s-moves, so a graph that s-collapses has a ws-reduction.
    for g in seeded_graphs(60, 7):
        verdict = ws_reduction_search(g, budget=2000)
        if verdict.outcome is Outcome.NO:
            assert not exhaustive_s_collapsible(g), g
        elif verdict.outcome is Outcome.YES:
            assert check_certificate(verdict.certificate).ok


def glued_to_dunce_hat(tail: Graph) -> Graph:
    """The dunce hat graph with `tail` glued at both graphs' least vertices,
    the tail's other vertices relabelled z<label>."""
    hat = corpus.dunce_hat_graph()
    root, tail_root = min(hat.vertices), min(tail.vertices)

    def name(v):
        return root if v == tail_root else f"z{v}"
    return Graph.make(hat.vertices | set(map(name, tail.vertices)),
                      set(hat.edges) | {frozenset(map(name, e)) for e in tail.edges})


def dunce_hat_with_tail(rng: random.Random) -> Graph:
    """The dunce hat graph with a cop-win graph glued on.  Its clique complex
    is acyclic, so no Betti number answers for the searches, and they must
    exhaust to find that it does not s-collapse."""
    return glued_to_dunce_hat(random_copwin_graph(rng, 6, 0.5))


def hard_family_member(seed: int, n: int) -> Graph:
    """The dunce hat glued to a cop-win tail of n vertices: v0, then each v<i>
    joins an earlier vertex w, drawn in insertion order, and each member of
    N(w) with probability 1/2, drawn from random.Random(100 * seed + n)."""
    rng = random.Random(100 * seed + n)
    adj: dict[str, set[str]] = {"v0": set()}
    for i in range(1, n):
        w = rng.choice(list(adj))
        attach = {u for u in sorted(adj[w] | {w}) if u == w or rng.random() < 0.5}
        adj[f"v{i}"] = attach
        for u in attach:
            adj[u].add(f"v{i}")
    return glued_to_dunce_hat(Graph.make(adj, ((u, v) for u in adj for v in adj[u] if u < v)))


@pytest.mark.parametrize("seed, s_outcome", [(1, Outcome.YES), (101, Outcome.NO)])
def test_searches_build_no_graph_per_state(monkeypatch, seed, s_outcome):
    # The seed draws a G(14, 0.5) that s-collapses, or the dunce hat's tail.
    rng = random.Random(seed)
    g = random_graph(rng, 14, 0.5) if s_outcome is Outcome.YES else dunce_hat_with_tail(rng)
    calls = []
    for name in ("induced", "open_neighborhood_subgraph"):
        method = getattr(Graph, name)

        def counting(self, *args, method=method, name=name):
            calls.append(name)
            return method(self, *args)

        monkeypatch.setattr(Graph, name, counting)
    s = s_collapse_search(g, budget=2000)
    ws = ws_reduction_search(g, budget=300)
    assert s.outcome is s_outcome  # a YES builds its certificate's end graph too
    assert s.stats.nodes > 10 and ws.stats.nodes > 10  # both searches expanded states
    assert calls == []


def test_searches_without_a_target_label_no_state(monkeypatch):
    # The memo key of a state is the state itself, so a search that expands
    # many states never computes a canonical form.
    g = dunce_hat_with_tail(random.Random(101))
    calls = []
    labeling = graphs._canonical

    def counted(*args):
        calls.append(args)
        return labeling(*args)

    monkeypatch.setattr(graphs, "_canonical", counted)
    s = s_collapse_search(g, budget=2000)
    ws = ws_reduction_search(g, budget=300)
    assert s.outcome is Outcome.NO and s.stats.nodes > 10 and ws.stats.nodes > 10
    assert calls == []


@pytest.mark.parametrize("seed, nodes", [(0, 673), (1, 834)])
def test_the_dunce_hat_with_a_twelve_vertex_tail_exhausts_within_the_default_budget(seed, nodes):
    g = hard_family_member(seed, 12)
    verdict = s_collapse_search(g)
    assert (verdict.outcome, verdict.stats.nodes) == (Outcome.NO, nodes)
