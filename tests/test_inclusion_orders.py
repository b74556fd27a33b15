"""Inclusion orders and chain families against pairwise reference builders,
a complex's kept order, and pinned digests of every map functor's text output."""

import copy
import functools
import hashlib
import itertools
import os
import pickle
import random
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from flagcalc import (
    ComplexError,
    Graph,
    GraphError,
    Poset,
    SimplicialComplex,
    barycentric_complex,
    barycentric_graph,
    barycentric_poset,
    cli,
    clique_complex,
    clique_poset,
    complete_subgraphs,
    face_poset,
    inclusion_graph,
    order_complex,
    subset_label,
    textio,
)
from flagcalc import posets, simplicial
from flagcalc.corpus import dunce_hat_graph, dunce_hat_poset
from flagcalc.graphs import inclusion_order
from flagcalc.identities import random_complex, random_graph, random_poset

from .helpers import (
    pairwise_chains,
    pairwise_covers,
    pairwise_inclusion_pairs,
    pairwise_maximal,
    random_copwin_graph,
)


def _sorted_family(family):
    return sorted(family, key=lambda s: (len(s), tuple(sorted(s))))


def _check_pairs(family) -> None:
    """inclusion_order labels each member and lists each strict inclusion of
    the family exactly once."""
    labels, pairs = inclusion_order(family)
    assert sorted(labels) == sorted(map(subset_label, family))
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == pairwise_inclusion_pairs(family)


def _check_complex(k: SimplicialComplex) -> None:
    _check_pairs(k.simplices)
    labels = [subset_label(s) for s in k.simplices]
    pairs = pairwise_inclusion_pairs(k.simplices)
    assert inclusion_graph(k) == Graph.make(labels, pairs)
    assert face_poset(k) == Poset(frozenset(labels), frozenset(pairs))
    chains = pairwise_chains(sorted(labels), lambda a, b: (a, b) in pairs)
    assert barycentric_complex(k) == SimplicialComplex(frozenset(chains))
    assert k.maximal_simplices() == _sorted_family(pairwise_maximal(k.simplices))


def _check_poset(p: Poset) -> None:
    chains = pairwise_chains(p.sorted_elements(), p.less)
    _check_pairs(chains)
    assert order_complex(p) == SimplicialComplex(frozenset(chains))
    assert barycentric_poset(p) == Poset(frozenset(subset_label(c) for c in chains),
                                         frozenset(pairwise_inclusion_pairs(chains)))
    assert p.covers() == pairwise_covers(p)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_graph_inclusion_builders_match_pairwise_reference(seed):
    rng = random.Random(seed)
    for g in (random_graph(rng, rng.randint(1, 7), rng.choice((0.3, 0.5, 0.7))),
              random_copwin_graph(rng, rng.randint(1, 9), rng.uniform(0.3, 0.9))):
        family = complete_subgraphs(g)
        _check_pairs(family)
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


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_covers_match_pairwise_reference_when_labels_do_not_sort_as_the_order(seed):
    # random_poset's letters sort as a linear extension; renamed at random they
    # need not, so an element's up-mask may hold bits below its own.
    rng = random.Random(seed)
    p = random_poset(rng, rng.randint(0, 12), rng.choice((0.2, 0.4, 0.6)))
    names = dict(zip(sorted(p.elements), rng.sample(range(100), len(p.elements))))
    q = Poset.make((f"e{names[x]}" for x in p.elements),
                   ((f"e{names[x]}", f"e{names[y]}") for x, y in p.relation))
    assert q.covers() == pairwise_covers(q)


def test_builders_match_pairwise_reference_on_the_dunce_hat():
    _check_complex(clique_complex(dunce_hat_graph()))
    _check_poset(dunce_hat_poset())


# ---------------------------------------------------------------------------
# inclusion_order on long chains and on unclosed families


def _long_chain_families():
    """Chain families of barycentric posets with members of five or more labels:
    of the clique posets of seeded cop-win graphs with a 5-clique (about a
    thousand chains each), and of seeded posets on seven elements."""
    families = []
    rng = random.Random(5)
    while len(families) < 3:
        g = random_copwin_graph(rng, rng.randint(5, 7), rng.uniform(0.5, 0.9))
        family = order_complex(clique_poset(g)).simplices
        if max(map(len, family)) >= 5 and len(family) < 1500:
            families.append(family)
    for seed in range(40):
        family = order_complex(random_poset(random.Random(seed), 7, 0.5)).simplices
        if max(map(len, family)) >= 5:
            families.append(family)
    return families


def test_inclusion_order_of_long_chain_families_matches_pairwise_reference():
    families = _long_chain_families()
    assert len(families) >= 6
    for family in families:
        _check_pairs(family)


@pytest.mark.parametrize("family, missing", [
    ([frozenset("ab"), frozenset("a")], "[b]"),
    ([frozenset("abc"), frozenset("ab"), frozenset("ac"), frozenset("a"), frozenset("b"),
      frozenset("c")], "[b,c]"),
])
def test_an_unclosed_family_is_refused_naming_the_missing_facet(family, missing):
    """No complex holds an unclosed family, so no inclusion order is asked of
    one: the constructor names the member that lacks the facet `missing`."""
    with pytest.raises(ComplexError, match="^family not closed under deletion at ") as err:
        SimplicialComplex(frozenset(family))
    top = next(s for s in family if str(err.value).endswith(f" at {subset_label(s)}"))
    assert [subset_label(top - {v}) for v in top if top - {v} not in family] == [missing]


UNCLOSED = [frozenset(s) for s in ("abc", "abd", "a", "b", "c", "d")]
UNCLOSED_MESSAGE = "family not closed under deletion at [a,b,c]"


def test_the_missing_facet_is_the_least_in_every_member_order():
    for order in itertools.permutations(UNCLOSED):
        for build in (SimplicialComplex, SimplicialComplex.from_simplices):
            with pytest.raises(ComplexError) as err:
                build(frozenset(order))
            assert str(err.value) == UNCLOSED_MESSAGE


def test_the_missing_facet_does_not_depend_on_the_hash_seed():
    import flagcalc

    src = os.path.dirname(os.path.dirname(os.path.abspath(flagcalc.__file__)))
    script = ("from flagcalc import SimplicialComplex\n"
              "try:\n"
              "    SimplicialComplex(frozenset(map(frozenset, 'abc abd a b c d'.split())))\n"
              "except ValueError as exc:\n"
              "    print(exc)\n")
    for hash_seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout
        assert out == f"{UNCLOSED_MESSAGE}\n"


def test_members_sharing_a_label_are_refused_naming_both():
    message = "members ['[a,b]'] and ['[a', 'b]'] share the label [[a,b]]"
    family = [frozenset({"[a", "b]"}), frozenset({"[a"}), frozenset({"b]"}),
              frozenset({"[a,b]"})]
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        inclusion_order(family)
    k = SimplicialComplex.from_maximal([{"[a", "b]"}, {"[a,b]"}])
    for functor in (face_poset, inclusion_graph, barycentric_complex):
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            functor(k)
    p = Poset.make(["[a", "b]", "[a,b]"], [("[a", "b]")])
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        barycentric_poset(p)


# ---------------------------------------------------------------------------
# a complex's inclusion order is kept with it


def test_a_complex_orders_its_faces_once(monkeypatch):
    calls = []

    def counting(family):
        calls.append(family)
        return inclusion_order(family)

    for module in (simplicial, posets):
        monkeypatch.setattr(module, "inclusion_order", counting, raising=False)
    k = clique_complex(random_copwin_graph(random.Random(3), 8))
    labels = [subset_label(s) for s in k.simplices]
    pairs = pairwise_inclusion_pairs(k.simplices)
    assert face_poset(k) == Poset(frozenset(labels), frozenset(pairs))
    assert inclusion_graph(k) == Graph.make(labels, pairs)
    assert barycentric_complex(k) == order_complex(face_poset(k))
    assert len(calls) == 1


def test_a_complex_with_its_kept_order_pickles_and_deep_copies():
    k = clique_complex(dunce_hat_graph())
    answers = (face_poset(k), inclusion_graph(k), barycentric_complex(k))
    assert "_face_order" in vars(k)
    for twin in (pickle.loads(pickle.dumps(k)), copy.deepcopy(k)):
        assert twin == k and hash(twin) == hash(k)
        assert twin._face_order == k._face_order
        assert (face_poset(twin), inclusion_graph(twin), barycentric_complex(twin)) == answers


# ---------------------------------------------------------------------------
# the text output of every map functor, pinned.  The ten functors run through
# `flagcalc map` on seeded cop-win graphs, chained as (functor, input, output)
# the way the maps benchmark chains them; each output is named by its file.

MAP_CHAIN = [
    ("delta-g", "g.graph", "k.complex"),
    ("clique-poset", "g.graph", "p.poset"),
    ("bd", "g.graph", "bd.graph"),
    ("sk", "k.complex", "sk.graph"),
    ("gamma", "k.complex", "gamma.graph"),
    ("comp", "p.poset", "comp.graph"),
    ("face-poset", "k.complex", "fp.poset"),
    ("order-complex", "p.poset", "oc.complex"),
    ("bd", "k.complex", "bd.complex"),
    ("bd", "p.poset", "bd.poset"),
]
MAP_SEEDS = range(4)


@functools.cache
def _map_outputs(seed: int) -> dict[str, str]:
    """Output text by file name for `random_copwin_graph(Random(seed), 8)`."""
    texts = {}
    with tempfile.TemporaryDirectory() as d:
        with open(os.path.join(d, "g.graph"), "w", encoding="utf-8") as fh:
            fh.write(textio.format_graph(random_copwin_graph(random.Random(seed), 8)))
        for functor, src, dst in MAP_CHAIN:
            out = os.path.join(d, dst)
            assert cli.main(["map", functor, os.path.join(d, src), "--out", out]) == cli.EXIT_YES
            with open(out, encoding="utf-8") as fh:
                texts[dst] = fh.read()
    return texts


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


MAP_GOLDEN = {
    'k.complex/0': '1e0170c6dc285efd',
    'k.complex/1': 'ffaf2d8bf9e46f6b',
    'k.complex/2': '4057fd83d155724e',
    'k.complex/3': '362e571378dedc2e',
    'p.poset/0': 'b7319bd25680944b',
    'p.poset/1': '95221363a65b5983',
    'p.poset/2': 'b18b1da4b47053d9',
    'p.poset/3': '657c9ffee689c3ec',
    'bd.graph/0': '42179a88af6193e6',
    'bd.graph/1': 'd99a64710e45425d',
    'bd.graph/2': '03074d2366d52776',
    'bd.graph/3': 'e4817cabf7c4565e',
    'sk.graph/0': '36f99996d9e736a0',
    'sk.graph/1': '726f0c2edd0401dd',
    'sk.graph/2': 'bed9d36ba47f28b2',
    'sk.graph/3': 'c9e5da98e43df148',
    'gamma.graph/0': '42179a88af6193e6',
    'gamma.graph/1': 'd99a64710e45425d',
    'gamma.graph/2': '03074d2366d52776',
    'gamma.graph/3': 'e4817cabf7c4565e',
    'comp.graph/0': '42179a88af6193e6',
    'comp.graph/1': 'd99a64710e45425d',
    'comp.graph/2': '03074d2366d52776',
    'comp.graph/3': 'e4817cabf7c4565e',
    'fp.poset/0': 'b7319bd25680944b',
    'fp.poset/1': '95221363a65b5983',
    'fp.poset/2': 'b18b1da4b47053d9',
    'fp.poset/3': '657c9ffee689c3ec',
    'oc.complex/0': '41aa72b670b870bf',
    'oc.complex/1': '62bbd8c67976e106',
    'oc.complex/2': 'df1c129401d50675',
    'oc.complex/3': 'f4299d8aedf36c29',
    'bd.complex/0': '41aa72b670b870bf',
    'bd.complex/1': '62bbd8c67976e106',
    'bd.complex/2': 'df1c129401d50675',
    'bd.complex/3': 'f4299d8aedf36c29',
    'bd.poset/0': '2baeef1526b46cdd',
    'bd.poset/1': '60b41e9f7129b8bd',
    'bd.poset/2': 'c330a1a50d03034e',
    'bd.poset/3': 'f1a7befe8b0748da',
}


@pytest.mark.parametrize("case", [f"{dst}/{seed}" for _, _, dst in MAP_CHAIN
                                  for seed in MAP_SEEDS])
def test_map_functor_output_is_unchanged(case):
    dst, seed = case.split("/")
    assert _digest(_map_outputs(int(seed))[dst]) == MAP_GOLDEN[case]
