"""The dominated-vertex kernel on closed-neighbourhood bitmasks.

Every greedy answer is compared with tests/helpers.plain_greedy, which runs
on a dict of sets and rescans after every deletion.  The draws relabel their
vertices v<k> with numbers of one to three digits, so string order (v10 <
v2) differs from numeric order, and include cop-win graphs on 100 vertices,
whose masks are wider than 64 bits.
"""

import random

import pytest

from flagcalc import Graph, GraphError, complete_graph, cycle_graph, path_graph
from flagcalc import dismantling, graphs
from flagcalc.cli import main
from flagcalc.dismantling import (
    IContractibility,
    Outcome,
    check_certificate,
    dismantling_core,
    dominated_vertices,
    greedy_dismantling,
    greedy_dismantling_certificate,
    is_s_dismantlable_edge,
    is_s_dismantlable_vertex,
    s_collapse_search,
    s_dismantlable_edges,
    s_dismantlable_vertices,
)
from flagcalc.identities import random_graph
from flagcalc.simplicial import collapse_certificate_for_dismantlable

from .helpers import (
    plain_adjacency,
    plain_dominators,
    plain_greedy,
    plain_s_edges,
    plain_s_vertices,
    random_copwin_graph,
    mixed_width_relabel,
)


def _draw(rng: random.Random) -> Graph:
    kind = rng.choice(("gnp", "copwin", "copwin-cut"))
    if kind == "gnp":
        g = random_graph(rng, rng.randint(1, 12), rng.choice((0.3, 0.5, 0.7)))
        return mixed_width_relabel(g, rng, range(1, 1000))
    g = mixed_width_relabel(random_copwin_graph(rng, rng.randint(2, 16)), rng, range(1, 1000))
    if kind == "copwin-cut" and g.edges:  # drop a few edges, so the core may have several vertices
        for e in rng.sample(g.sorted_edges(), min(3, len(g.edges))):
            g = g.without_edge(*e)
    return g


def _check_greedy(g: Graph) -> None:
    residue, steps = plain_greedy(plain_adjacency(g))
    core, order = dismantling_core(g)
    assert core.vertices == residue.keys() and core == g.induced(residue)
    assert list(order.steps) == steps
    expected = steps if len(residue) == 1 else None
    got = greedy_dismantling(g)
    assert (got and list(got.steps)) == expected
    cert = greedy_dismantling_certificate(g)
    assert (cert and [m.target for m in cert.moves]) == (expected and [v for v, _ in steps])
    assert cert is None or check_certificate(cert).ok


def _check_scans(g: Graph) -> None:
    adj = plain_adjacency(g)
    assert dominated_vertices(g) == [(v, w) for v in sorted(adj) for w in plain_dominators(adj, v)]
    assert s_dismantlable_vertices(g) == plain_s_vertices(adj)
    assert s_dismantlable_edges(g) == plain_s_edges(adj)
    assert [v for v in sorted(adj) if is_s_dismantlable_vertex(g, v)] == plain_s_vertices(adj)
    assert [e for e in map(frozenset, g.sorted_edges())
            if is_s_dismantlable_edge(g, e)] == plain_s_edges(adj)


@pytest.mark.parametrize("seed", range(40))
def test_mask_kernel_matches_the_plain_greedy(seed):
    rng = random.Random(seed)
    for _ in range(5):
        g = _draw(rng)
        _check_greedy(g)
        _check_scans(g)


@pytest.mark.parametrize("seed", range(3))
def test_masks_wider_than_64_bits(seed):
    g = random_copwin_graph(random.Random(100 + seed), 100)  # v0 .. v99: v10 < v2
    assert len(g.vertices) == 100 and greedy_dismantling(g) is not None
    _check_greedy(g)
    _check_scans(g)
    cut = g
    for e in random.Random(seed).sample(g.sorted_edges(), 20):
        cut = cut.without_edge(*e)
    _check_greedy(cut)


def test_least_label_is_string_order():
    twins = complete_graph(["v2", "v10"])
    assert greedy_dismantling(twins).steps == (("v10", "v2"),)
    assert dominated_vertices(twins) == [("v10", "v2"), ("v2", "v10")]


def test_empty_graph_raises_and_the_cli_exits_3(tmp_path, capsys):
    empty = Graph.make([])
    for fn in (greedy_dismantling, greedy_dismantling_certificate,
               collapse_certificate_for_dismantlable, dismantling_core):
        with pytest.raises(GraphError):
            fn(empty)
    path = tmp_path / "empty.graph"
    path.write_text("")
    for mode in ("dismantle", "s"):
        assert main(["reduce", str(path), "--mode", mode]) == 3
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: empty graph\n"


def test_icontractibility_answers_dismantlable_graphs_without_labeling(monkeypatch):
    def refuse(g):
        raise AssertionError("canonical labeling ran")

    monkeypatch.setattr(graphs, "_canonical_full", refuse)
    k40 = complete_graph([f"k{i}" for i in range(40)])
    p30 = path_graph([f"p{i}" for i in range(30)])
    assert IContractibility().of(k40) == "yes"
    assert IContractibility().of(p30) == "yes"


@pytest.mark.parametrize("kind", ["obstructed", "cop-win"])
def test_one_greedy_pass_per_graph_serves_every_whole_graph_question(monkeypatch, kind):
    # greedy_dismantling, the searches' homology check, dismantling_core, the
    # greedy certificate and IContractibility share one greedy pass over a
    # Graph object; a search's local neighbourhoods run their own, smaller ones.
    calls = []
    mask_core = dismantling._mask_core

    def counting(cl, keep=0):
        calls.append(len(cl))
        return mask_core(cl, keep)

    monkeypatch.setattr(dismantling, "_mask_core", counting)
    monkeypatch.setattr(graphs, "_mask_core", counting)
    if kind == "obstructed":
        g = mixed_width_relabel(cycle_graph("abcdefghijkl"), random.Random(3), range(1000))
    else:
        g = random_copwin_graph(random.Random(7), 12)
    greedy_dismantling(g)
    verdict = s_collapse_search(g)
    assert calls.count(len(g.vertices)) == 1
    dismantling_core(g)
    greedy_dismantling_certificate(g)
    IContractibility().of(g)
    assert calls.count(len(g.vertices)) == 1
    if kind == "obstructed":
        assert (verdict.outcome, verdict.stats.nodes) == (Outcome.NO, 0) and calls == [12]
    else:
        assert verdict.outcome is Outcome.YES and verdict.stats.nodes > 0
    core, steps = g._greedy
    assert isinstance(core, int) and isinstance(steps, tuple)
