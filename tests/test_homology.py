"""The homology obstruction: `graphs.reduced_betti` against a dense oracle and
known values, and the searches that answer NO from it before any search.

s-moves, ws-moves and collapses keep the homotopy type of the complex, so a
start with a nonzero reduced Betti number never reaches a point.  Each NO
found that way is checked here against the exhaustive search in
tests/helpers.py.
"""

import itertools
import random

import pytest

from flagcalc import (
    Outcome,
    SimplicialComplex,
    clique_complex,
    collapse_search,
    complete_graph,
    corpus,
    cycle_graph,
    graphs,
    s_collapse_search,
    ws_reduction_search,
)
from flagcalc.graphs import clique_masks, reduced_betti
from flagcalc.identities import random_graph

from .helpers import exhaustive_s_collapsible, naive_reduced_betti


def betti(g) -> tuple[int, ...]:
    return reduced_betti(clique_masks(g.adjacency))


def seeded_graphs(seed: int, count: int, max_n: int):
    rng = random.Random(seed)
    return [random_graph(rng, rng.randint(1, max_n), rng.choice((0.3, 0.5, 0.7)))
            for _ in range(count)]


def test_clique_masks_list_every_clique_once_by_size():
    for g in seeded_graphs(4, 40, 9):
        labels = g.sorted_vertices()
        got = [sorted(tuple(v for i, v in enumerate(labels) if m >> i & 1) for m in level)
               for level in clique_masks(g.adjacency)]
        want = [sorted(c for c in itertools.combinations(labels, k) if g.is_complete_set(c))
                for k in range(1, len(labels) + 1)]
        assert got == [w for w in want if w]


def test_reduced_betti_agrees_with_the_dense_oracle():
    vectors = [betti(g) for g in seeded_graphs(12, 200, 10)]
    assert vectors == [naive_reduced_betti(g) for g in seeded_graphs(12, 200, 10)]
    assert () in vectors and (0, 1) in vectors and any(v[0] for v in vectors if v)


@pytest.mark.parametrize("n", range(4, 11))
def test_a_cycle_has_one_loop(n):
    assert betti(cycle_graph(map(str, range(n)))) == (0, 1)


def test_known_values():
    octahedron = cycle_graph("abcd").suspension()
    assert betti(octahedron) == (0, 0, 1)
    for n in range(1, 9):
        assert betti(complete_graph("abcdefgh"[:n])) == ()
    for base in (cycle_graph("abcdef"), octahedron, corpus.prism_graph()):
        assert betti(base.with_vertex("apex", base.vertices)) == ()  # a cone
    assert betti(corpus.dunce_hat_graph()) == ()
    # Euler characteristic 1, yet two components and a loop: only ranks see it.
    c4_k1 = cycle_graph("abcd").with_vertex("e")
    assert len(c4_k1.vertices) - len(c4_k1.edges) == 1
    assert betti(c4_k1) == (1, 1)


def test_collapse_search_reads_the_vector_off_any_complex():
    # Neither is a clique complex: the boundaries of a triangle and of a tetrahedron.
    hollow = SimplicialComplex.from_maximal(itertools.combinations("abc", 2))
    sphere = SimplicialComplex.from_maximal(itertools.combinations("abcd", 3))
    for k, vector in ((hollow, (0, 1)), (sphere, (0, 0, 1))):
        verdict = collapse_search(k, budget=0)
        assert (verdict.outcome, verdict.stats.nodes, verdict.obstruction) == \
            (Outcome.NO, 0, vector)
    solid = collapse_search(SimplicialComplex.from_maximal(["abcd"]), budget=0)
    assert solid.outcome is Outcome.UNKNOWN and solid.obstruction is None


def test_every_obstruction_no_agrees_with_the_exhaustive_search():
    fired = 0
    for g in seeded_graphs(31, 250, 10):
        s = s_collapse_search(g, budget=0)
        if s.obstruction is None:
            assert s.outcome is not Outcome.NO  # budget 0 leaves a search UNKNOWN
            continue
        fired += 1
        assert (s.outcome, s.stats.nodes, s.certificate) == (Outcome.NO, 0, None)
        assert s.obstruction == naive_reduced_betti(g)
        assert not exhaustive_s_collapsible(g), g
        ws = ws_reduction_search(g, budget=0)
        assert (ws.outcome, ws.stats.nodes, ws.obstruction) == (Outcome.NO, 0, s.obstruction)
        if len(g.vertices) <= 8:
            k = collapse_search(clique_complex(g), budget=0)
            assert (k.outcome, k.stats.nodes, k.obstruction) == (Outcome.NO, 0, s.obstruction)
    assert fired >= 100


@pytest.mark.parametrize("g", [cycle_graph(f"c{i:02d}" for i in range(48)),
                               random_graph(random.Random(1000), 18, 0.5)],
                         ids=["C48", "gnp18"])
def test_an_obstructed_start_is_answered_without_labeling(monkeypatch, g):
    calls = []
    labeling = graphs._canonical

    def counted(*args):
        calls.append(args)
        return labeling(*args)

    monkeypatch.setattr(graphs, "_canonical", counted)
    for search in (s_collapse_search, ws_reduction_search):
        verdict = search(g)
        assert verdict.outcome is Outcome.NO and verdict.stats.nodes == 0
        assert verdict.obstruction
    assert calls == []
