"""Inclusion orders and chain families against pairwise reference builders."""

import random

from hypothesis import given, settings, strategies as st

from flagcalc import (
    Graph,
    Poset,
    SimplicialComplex,
    barycentric_complex,
    barycentric_graph,
    barycentric_poset,
    clique_complex,
    clique_poset,
    complete_subgraphs,
    face_poset,
    inclusion_graph,
    order_complex,
    subset_label,
)
from flagcalc.corpus import dunce_hat_graph, dunce_hat_poset
from flagcalc.identities import random_complex, random_graph, random_poset

from .helpers import pairwise_chains, pairwise_covers, pairwise_inclusion_pairs, pairwise_maximal


def _sorted_family(family):
    return sorted(family, key=lambda s: (len(s), tuple(sorted(s))))


def _check_complex(k: SimplicialComplex) -> None:
    labels = [subset_label(s) for s in k.simplices]
    pairs = pairwise_inclusion_pairs(k.simplices)
    assert inclusion_graph(k) == Graph.make(labels, pairs)
    assert face_poset(k) == Poset(frozenset(labels), frozenset(pairs))
    chains = pairwise_chains(sorted(labels), lambda a, b: (a, b) in pairs)
    assert barycentric_complex(k) == SimplicialComplex(frozenset(chains))
    assert k.maximal_simplices() == _sorted_family(pairwise_maximal(k.simplices))


def _check_poset(p: Poset) -> None:
    chains = pairwise_chains(p.sorted_elements(), p.less)
    assert order_complex(p) == SimplicialComplex(frozenset(chains))
    assert barycentric_poset(p) == Poset(frozenset(subset_label(c) for c in chains),
                                         frozenset(pairwise_inclusion_pairs(chains)))
    assert p.covers() == pairwise_covers(p)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_graph_inclusion_builders_match_pairwise_reference(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 7), rng.choice((0.3, 0.5, 0.7)))
    family = complete_subgraphs(g)
    labels = [subset_label(c) for c in family]
    pairs = pairwise_inclusion_pairs(family)
    assert barycentric_graph(g) == Graph.make(labels, pairs)
    assert clique_poset(g) == Poset(frozenset(labels), frozenset(pairs))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_complex_builders_match_pairwise_reference(seed):
    rng = random.Random(seed)
    _check_complex(random_complex(rng, rng.randint(1, 5), rng.choice((0.3, 0.5, 0.7))))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_poset_builders_match_pairwise_reference(seed):
    rng = random.Random(seed)
    _check_poset(random_poset(rng, rng.randint(0, 7), rng.choice((0.3, 0.5, 0.7))))


def test_builders_match_pairwise_reference_on_the_dunce_hat():
    _check_complex(clique_complex(dunce_hat_graph()))
    _check_poset(dunce_hat_poset())
