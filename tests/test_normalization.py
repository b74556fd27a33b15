"""Normalization against the swap loop it replaced, and the replays that
realize_s_neighborhood_deletion makes of a supplied witness.

`swap_additions_first` in tests/helpers.py is the old bubble sort.  Swapping
only adjacent (removal, addition) pairs is a stable partition, so the one-pass
`_additions_first` must give the same order, and raise NormalizationError on
the same inputs.  The named label may differ only when several additions reuse
removed labels: the partition names the first in certificate order.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import flagcalc.dismantling
from flagcalc import (
    DismantlingOrder,
    Graph,
    GraphMove,
    MoveCertificate,
    MoveKind,
    NormalizationError,
    check_certificate,
    normalize_certificate,
    realize_s_neighborhood_deletion,
)
from flagcalc.dismantling import _additions_first
from flagcalc.identities import random_graph

from .helpers import (
    random_label_reusing_certificate,
    random_vertex_move_certificate,
    swap_additions_first,
)


def _outcome(normalize, arg):
    """('ok', moves) or ('raised', message)."""
    try:
        return "ok", tuple(normalize(arg))
    except NormalizationError as exc:
        return "raised", str(exc)


def _reused(moves) -> list[str]:
    """The labels of the additions that take a label an earlier removal freed."""
    freed, reused = set(), []
    for m in moves:
        if m.kind is MoveKind.REMOVE_VERTEX:
            freed.add(m.target)
        elif m.kind is MoveKind.ADD_VERTEX and m.target in freed:
            reused.append(m.target)
    return reused


def _agree(moves, new: tuple, ref: tuple) -> None:
    """The same outcome and message, except that when several additions reuse
    removed labels the partition names the first of them."""
    assert new[0] == ref[0]
    reused = _reused(moves)
    if ref[0] == "ok" or "reuses" not in ref[1] or len(reused) <= 1:
        assert new == ref
    else:
        assert new[1].startswith(f"addition of {reused[0]!r} reuses")


def _partitioned(moves) -> list[GraphMove]:
    adds, removals = _additions_first(moves)
    return adds + removals


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_normalize_matches_the_swap_loop_on_fresh_labels(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 7), rng.choice((0.3, 0.5, 0.7)))
    cert = random_vertex_move_certificate(rng, g, rng.randint(1, 8))
    new = _outcome(lambda c: normalize_certificate(c).moves, cert)
    assert new == ("ok", tuple(swap_additions_first(cert.moves)))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000))
def test_normalize_matches_the_swap_loop_when_labels_are_reused(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 7), rng.choice((0.3, 0.5, 0.7)))
    cert = random_label_reusing_certificate(rng, g, rng.randint(2, 10))
    assert check_certificate(cert).ok
    new = _outcome(lambda c: normalize_certificate(c).moves, cert)
    _agree(cert.moves, new, _outcome(swap_additions_first, cert.moves))


def test_label_reusing_certificates_exercise_every_case():
    seen = set()
    for seed in range(300):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(2, 7), rng.choice((0.3, 0.5, 0.7)))
        cert = random_label_reusing_certificate(rng, g, rng.randint(2, 10))
        seen.add(min(len(_reused(cert.moves)), 2))
    assert seen == {0, 1, 2}


def test_normalize_names_the_one_reused_label():
    host = Graph.make("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    moves = (GraphMove(MoveKind.REMOVE_VERTEX, "a", witness=DismantlingOrder((("b", "c"),))),
             GraphMove(MoveKind.ADD_VERTEX, "z", witness=DismantlingOrder(()),
                       attachment=frozenset("b")),
             GraphMove(MoveKind.ADD_VERTEX, "a", witness=DismantlingOrder(()),
                       attachment=frozenset("c")))
    end = Graph.make("abcz", [("b", "c"), ("b", "z"), ("a", "c")])
    cert = MoveCertificate(host, moves, end)
    assert check_certificate(cert).ok
    with pytest.raises(NormalizationError, match="addition of 'a' reuses a removed label"):
        normalize_certificate(cert)
    with pytest.raises(NormalizationError, match="addition of 'a' reuses a removed label"):
        swap_additions_first(moves)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(list(MoveKind)), st.sampled_from("abcd")),
                max_size=8))
def test_partition_matches_the_swap_loop_on_any_sequence(steps):
    moves = tuple(
        GraphMove(kind, frozenset((label, "e")) if kind in (MoveKind.REMOVE_EDGE,
                                                             MoveKind.ADD_EDGE) else label,
                  witness=DismantlingOrder(()),
                  attachment=frozenset() if kind is MoveKind.ADD_VERTEX else None)
        for kind, label in steps)
    _agree(moves, _outcome(_partitioned, moves), _outcome(swap_additions_first, moves))


def _expansion_witness() -> tuple[Graph, MoveCertificate]:
    host = Graph.make(["v", "y1", "y2"], [("v", "y1"), ("v", "y2"), ("y1", "y2")])
    nb = host.open_neighborhood_subgraph("v")
    moves = (GraphMove(MoveKind.ADD_VERTEX, "z", witness=DismantlingOrder((("y1", "y2"),)),
                       attachment=frozenset(("y1", "y2"))),
             GraphMove(MoveKind.REMOVE_VERTEX, "y1", witness=DismantlingOrder((("y2", "z"),))),
             GraphMove(MoveKind.REMOVE_VERTEX, "y2", witness=DismantlingOrder(())))
    return host, MoveCertificate(nb, moves, Graph.make(["z"]))


def test_a_supplied_witness_with_additions_is_replayed_once(monkeypatch):
    calls = []
    real = flagcalc.dismantling.Rules.check

    def counted(rules, c):
        calls.append(c)
        return real(rules, c)

    monkeypatch.setattr(flagcalc.dismantling.Rules, "check", counted)
    host, witness = _expansion_witness()
    verdict = realize_s_neighborhood_deletion(host, "v", witness=witness)
    assert verdict.certificate.end == host.without_vertex("v")
    assert calls == [witness]
