"""Canonical labeling against the full search tree and against networkx.

The labeling prunes its individualisation-refinement tree with the
automorphisms it finds. It must return exactly the (encoding, perm) of the
unpruned tree in tests/helpers.py, so canonical forms, isomorphism witnesses
and every search memo stay the same. Refinement runs on the vertices' indices
in sorted label order; its tests translate colourings of labels to and from
that partition and compare with the round-robin refinement of tests/helpers.py.
The cost guards count refinement calls and neighbourhood reads instead of
timing them.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from flagcalc import Graph, IsoWitness, canonical_form, cycle_graph, path_graph
from flagcalc import graphs

from .helpers import _naive_refine, naive_canonical_full
from .test_graphs import graphs as small_graphs


def hypercube(d: int) -> Graph:
    vs = [format(i, f"0{d}b") for i in range(2 ** d)]
    return Graph.make(vs, [(a, b) for a, b in itertools.combinations(vs, 2)
                           if sum(x != y for x, y in zip(a, b)) == 1])


def cycle(n: int) -> Graph:
    return cycle_graph(f"c{i}" for i in range(n))


def disjoint_union(*parts: Graph) -> Graph:
    vs = [f"{i}.{v}" for i, g in enumerate(parts) for v in g.vertices]
    es = [(f"{i}.{a}", f"{i}.{b}") for i, g in enumerate(parts) for a, b in g.edges]
    return Graph.make(vs, es)


def relabelled(g: Graph, rng: random.Random) -> Graph:
    old = g.sorted_vertices()
    new = old[:]
    rng.shuffle(new)
    to = dict(zip(old, new))
    return Graph.make(new, [(to[a], to[b]) for a, b in g.edges])


def rook_and_shrikhande() -> tuple[Graph, Graph]:
    """The 4x4 rook graph and the Shrikhande graph: both strongly regular with
    parameters (16, 6, 2, 2), and not isomorphic."""
    vs = [f"{i}{j}" for i in range(4) for j in range(4)]
    rook = Graph.make(vs, [(a, b) for a, b in itertools.combinations(vs, 2)
                           if a[0] == b[0] or a[1] == b[1]])
    diffs = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    shrikhande = Graph.make(vs, [
        (a, b) for a, b in itertools.combinations(vs, 2)
        if ((int(a[0]) - int(b[0])) % 4, (int(a[1]) - int(b[1])) % 4) in diffs])
    return rook, shrikhande


def named_graphs() -> dict[str, Graph]:
    out = {f"C{n}": cycle(n) for n in range(4, 25)}
    out.update({f"Q{d}": hypercube(d) for d in (2, 3, 4)})
    out.update({"susp-C4": cycle(4).suspension(), "susp-C9": cycle(9).suspension(),
                "susp-Q3": hypercube(3).suspension()})
    out["K3,3"] = Graph.make("abcxyz", itertools.product("abc", "xyz"))
    pairs = [frozenset(p) for p in itertools.combinations(range(5), 2)]
    out["Petersen"] = Graph.make(map(str, range(10)), [
        (str(i), str(j)) for (i, a), (j, b) in itertools.combinations(enumerate(pairs), 2)
        if not a & b])
    out["rook4x4"], out["Shrikhande"] = rook_and_shrikhande()
    out["C6+C6"] = disjoint_union(cycle(6), cycle(6))
    out["C3+C3+C3"] = disjoint_union(cycle(3), cycle(3), cycle(3))
    # unlike components: resuming one level above the common ancestor of two
    # automorphic leaves would skip this graph's least leaf
    out["C3+C4+P3"] = disjoint_union(cycle(3), cycle(4), path_graph("abc"))
    return out


NAMED = named_graphs()


def assert_matches_full_tree(g: Graph) -> None:
    assert graphs._canonical_full(g) == naive_canonical_full(g)


@pytest.mark.parametrize("name", sorted(NAMED))
def test_pruned_labeling_matches_the_full_tree(name):
    assert_matches_full_tree(NAMED[name])


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=8), st.integers(0, 10_000))
def test_pruned_labeling_matches_the_full_tree_on_small_graphs(g, seed):
    assert_matches_full_tree(g)
    assert_matches_full_tree(relabelled(g, random.Random(seed)))


@pytest.mark.parametrize("g, cap", [(hypercube(5), 64),  # 6,593 calls on the full tree
                                    (cycle(48), 16),  # 145
                                    (hypercube(4).suspension(), 64)],  # 1,425
                         ids=["Q5", "C48", "susp-Q4"])
def test_symmetric_graphs_refine_a_bounded_number_of_times(monkeypatch, g, cap):
    calls = []
    refine = graphs._refine

    def counting(adj, part, colour, raised):
        calls.append(len(adj))
        return refine(adj, part, colour, raised)

    monkeypatch.setattr(graphs, "_refine", counting)
    canonical_form(g)
    assert 0 < len(calls) <= cap


def random_gnp(rng: random.Random, n: int, p: float) -> Graph:
    vs = [f"v{i}" for i in range(n)]
    return Graph.make(vs, [e for e in itertools.combinations(vs, 2) if rng.random() < p])


def double_edge_swaps(g: Graph, rng: random.Random, swaps: int) -> Graph:
    """Replace edges ab, cd by ad, cb where both are absent; degrees stay put."""
    edges = set(g.edges)
    for _ in range(swaps):
        (a, b), (c, d) = (tuple(sorted(e)) for e in rng.sample(sorted(edges, key=sorted), 2))
        if rng.random() < 0.5:
            c, d = d, c
        new = {frozenset((a, d)), frozenset((c, b))}
        if len({a, b, c, d}) == 4 and not new & edges:
            edges -= {frozenset((a, b)), frozenset((c, d))}
            edges |= new
    return Graph.make(g.vertices, edges)


def refined(g: Graph, colors: dict[str, int], raised: list[str] | None) -> dict[str, int]:
    """_refine of the colouring `colors` of g's labels, with the labels in
    `raised` risen, or every vertex signed if None: the refined colour of
    each label, numbered 0, 1, ... as _naive_refine numbers them."""
    labels = g.sorted_vertices()
    index = {v: i for i, v in enumerate(labels)}
    adj = tuple(tuple(index[u] for u in g.adjacency[v]) for v in labels)
    part, colour, at = {}, [0] * len(labels), 0
    for c in sorted(set(colors.values())):
        part[at] = {index[v] for v in labels if colors[v] == c}
        for i in part[at]:
            colour[i] = at
        at += len(part[at])
    graphs._refine(adj, part, colour, None if raised is None else [index[v] for v in raised])
    assert all(colour[i] == s for s, cell in part.items() for i in cell)
    assert sorted(part) == list(itertools.accumulate(
        [len(part[s]) for s in sorted(part)][:-1], initial=0))  # first positions
    rank = {s: r for r, s in enumerate(sorted(part))}
    return {v: rank[colour[i]] for v, i in index.items()}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["uniform", "non-dense", "individualised"]))
def test_refinement_matches_the_round_robin_one(seed, start):
    rng = random.Random(seed)
    g = random_gnp(rng, rng.randint(1, 12), rng.choice((0.2, 0.5, 0.8)))
    vs = g.sorted_vertices()
    colors = {v: 0 for v in vs}
    if start == "non-dense":
        colors = {v: rng.choice((-4, 3, 11, 40)) for v in vs}
    elif start == "individualised":
        colors[rng.choice(vs)] = 1
    assert refined(g, colors, None) == _naive_refine(g.adjacency, colors)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_refinement_seeded_with_an_individualised_vertex_matches_the_round_robin_one(seed):
    # As _canonical's children are refined: an equitable colouring with one
    # vertex v of a non-singleton cell moved to a cell of its own just after
    # the rest of the cell, refined from v's rise alone.
    rng = random.Random(seed)
    g = random_gnp(rng, rng.randint(2, 12), rng.choice((0.2, 0.5, 0.8)))
    vs = g.sorted_vertices()
    colors = _naive_refine(g.adjacency, {v: rng.choice((0, 0, 1)) for v in vs})
    cells = sorted({c for c in colors.values() if list(colors.values()).count(c) > 1})
    if not cells:
        return
    split = rng.choice(cells)
    v = rng.choice([u for u in vs if colors[u] == split])
    child = {u: c + (c > split or u == v) for u, c in colors.items()}
    assert refined(g, child, [v]) == _naive_refine(g.adjacency, child)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_refinement_after_several_cells_split_matches_the_round_robin_one(seed):
    # _refine's promise for a given `raised`: an equitable colouring whose
    # cells split into a first part that keeps the cell's colour and later
    # parts whose colours rose, still inside the cell's span.
    rng = random.Random(seed)
    g = random_gnp(rng, rng.randint(2, 14), rng.choice((0.2, 0.5, 0.8)))
    colors = _naive_refine(g.adjacency, {v: rng.choice((0, 0, 1)) for v in g.vertices})
    child, raised = {}, []
    for c in sorted(set(colors.values())):
        cell = sorted(v for v in colors if colors[v] == c)
        rng.shuffle(cell)
        cuts = sorted(rng.sample(range(1, len(cell)), rng.randint(0, len(cell) - 1)))
        for i, (lo, hi) in enumerate(zip([0] + cuts, cuts + [len(cell)])):
            child.update((v, c * len(colors) + i) for v in cell[lo:hi])
            if i:
                raised += cell[lo:hi]
    assert refined(g, child, raised) == _naive_refine(g.adjacency, child)


class CountingAdjacency(tuple):
    """An adjacency that counts the neighbourhoods read from it."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return super().__getitem__(v)


def test_refinement_of_a_long_cycle_reads_few_neighbourhoods(monkeypatch):
    # A round reads the neighbourhood of each vertex whose colour rose, and
    # each full signature reads one; refinement reads about 900 here.
    # Recomputing every vertex's signature in every round would read 99,600,
    # and reading every vertex in each child's first round 2,951.
    views = []
    refine = graphs._refine

    def counting(adj, part, colour, raised):
        views.append(CountingAdjacency(adj))
        return refine(views[-1], part, colour, raised)

    monkeypatch.setattr(graphs, "_refine", counting)
    canonical_form(cycle(200))
    assert 0 < sum(view.reads for view in views) <= 2_500


def test_canonical_forms_agree_with_networkx():
    nx = pytest.importorskip("networkx")

    def to_nx(g: Graph):
        h = nx.Graph()
        h.add_nodes_from(g.vertices)
        h.add_edges_from(tuple(e) for e in g.edges)
        return h

    rng = random.Random(2014)
    pairs = []
    for _ in range(150):
        n, p = rng.randint(1, 10), rng.choice((0.2, 0.5, 0.8))
        pairs.append((random_gnp(rng, n, p), random_gnp(rng, n, p)))
    for _ in range(150):
        g = random_gnp(rng, rng.randint(5, 10), rng.choice((0.3, 0.5)))
        if len(g.edges) >= 2:
            h = double_edge_swaps(g, rng, rng.randint(1, 3))
            pairs.append((g, relabelled(h, rng)))
    pairs.append(rook_and_shrikhande())
    verdicts = []
    for g, h in pairs:
        same = nx.is_isomorphic(to_nx(g), to_nx(h))
        assert (canonical_form(g) == canonical_form(h)) == same
        verdicts.append(same)
    assert 30 <= sum(verdicts) <= len(verdicts) - 30  # both answers are exercised


def test_witness_error_names_the_first_broken_pair():
    c4 = cycle_graph("abcd")
    chorded = Graph.make("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "c")])
    identity = IsoWitness(tuple((v, v) for v in "abcd"))
    assert identity.error(c4, chorded) == "adjacency of 'a','c' not preserved"
    assert identity.error(chorded, c4) == "adjacency of 'a','c' not preserved"
    path = Graph.make("wxyz", [("w", "x"), ("x", "y"), ("y", "z")])
    onto_path = IsoWitness((("a", "w"), ("b", "x"), ("c", "y"), ("d", "z")))
    assert onto_path.error(c4, path) == "adjacency of 'a','d' not preserved"
    assert IsoWitness((("a", "w"),)).error(c4, path) == \
        "mapping is not a bijection between the vertex sets"
    # as_dict keeps the last image of a repeated vertex, here a bijection
    repeat = IsoWitness((("a", "y"), ("a", "x"), ("b", "y")))
    assert repeat.error(path_graph("ab"), path_graph("xy")) == "mapping lists a vertex twice"


def test_witness_check_of_a_valid_mapping_tests_no_pair(monkeypatch):
    g = hypercube(5)
    h = relabelled(g, random.Random(5))
    witness = graphs.are_isomorphic(g, h)
    tested = []
    has_edge = Graph.has_edge

    def counting(self, a, b):
        tested.append((a, b))
        return has_edge(self, a, b)

    monkeypatch.setattr(Graph, "has_edge", counting)
    assert witness.error(g, h) is None
    assert tested == []  # the pairwise scan runs only to name a broken pair
