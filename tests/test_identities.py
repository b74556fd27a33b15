import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from flagcalc import (
    CertificateError,
    DismantlingOrder,
    Graph,
    GraphMove,
    MoveCertificate,
    MoveKind,
    Outcome,
    apply_move,
    barycentric_graph,
    check_certificate,
    complete_graph,
    rewrite_edge_moves,
    run_property_suite,
    subdivision_certificate,
    subset_label,
    ws_reduction_search,
)
from flagcalc.identities import random_graph

from .helpers import random_ws_move_certificate


def test_subdivision_certificate_point():
    pt = Graph.make(["g"])
    cert = subdivision_certificate(pt)
    assert len(cert.moves) == 2
    assert cert.end == Graph.make([subset_label("g")])


def test_subdivision_certificate_k2():
    cert = subdivision_certificate(complete_graph("ab"))
    adds = [m for m in cert.moves if m.kind is MoveKind.ADD_VERTEX]
    removes = [m for m in cert.moves if m.kind is MoveKind.REMOVE_VERTEX]
    assert len(adds) == 3 and [m.target for m in removes] == ["a", "b"]
    assert check_certificate(cert).ok
    expected = Graph.make(
        [subset_label("a"), subset_label("b"), subset_label("ab")],
        [(subset_label("a"), subset_label("ab")),
         (subset_label("b"), subset_label("ab"))])
    assert cert.end == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_subdivision_certificate_random(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 6), rng.choice((0.3, 0.5, 0.7)))
    cert = subdivision_certificate(g)
    assert check_certificate(cert).ok
    assert cert.end == barycentric_graph(g)


def test_rewrite_single_edge_removal():
    k4 = complete_graph("abcd")
    drop = GraphMove(MoveKind.REMOVE_EDGE, frozenset(("a", "b")),
                     witness=DismantlingOrder((("c", "d"),)))
    cert = MoveCertificate(k4, (drop,), k4.without_edge("a", "b"))
    out, witness = rewrite_edge_moves(cert)
    assert len(out.moves) == 2
    assert [m.kind for m in out.moves] == [MoveKind.ADD_VERTEX, MoveKind.REMOVE_VERTEX]
    assert check_certificate(out).ok
    assert witness.error(cert.end, out.end) is None


def test_rewrite_empty_certificate():
    k3 = complete_graph("abc")
    out, witness = rewrite_edge_moves(MoveCertificate(k3, (), k3))
    assert not out.moves and witness.error(k3, k3) is None


def test_rewrite_edge_addition():
    h = complete_graph("abcd").without_edge("a", "b")
    add = GraphMove(MoveKind.ADD_EDGE, frozenset(("a", "b")),
                    witness=DismantlingOrder((("c", "d"),)))
    cert = MoveCertificate(h, (add,), apply_move(h, add))
    out, witness = rewrite_edge_moves(cert)
    assert all(m.kind in (MoveKind.ADD_VERTEX, MoveKind.REMOVE_VERTEX)
               for m in out.moves)
    assert check_certificate(out).ok
    assert witness.error(cert.end, out.end) is None


def test_rewrite_rejects_invalid_input():
    k4 = complete_graph("abcd")
    bogus = GraphMove(MoveKind.REMOVE_EDGE, frozenset(("a", "b")),
                      witness=DismantlingOrder((("c", "c"),)))
    with pytest.raises(CertificateError):
        rewrite_edge_moves(MoveCertificate(k4, (bogus,), k4.without_edge("a", "b")))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100_000))
def test_rewrite_search_certificates(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 6), rng.choice((0.3, 0.5, 0.7)))
    verdict = ws_reduction_search(g)
    if verdict.outcome is not Outcome.YES:
        return
    out, witness = rewrite_edge_moves(verdict.certificate)
    assert check_certificate(out).ok
    assert all(m.kind in (MoveKind.ADD_VERTEX, MoveKind.REMOVE_VERTEX)
               for m in out.moves)
    assert witness.error(verdict.certificate.end, out.end) is None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_rewrite_mixed_move_certificates(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 6), rng.choice((0.3, 0.5, 0.7)))
    cert = random_ws_move_certificate(rng, g, rng.randint(2, 7))
    assert check_certificate(cert).ok
    out, witness = rewrite_edge_moves(cert)
    assert check_certificate(out).ok
    assert all(m.kind in (MoveKind.ADD_VERTEX, MoveKind.REMOVE_VERTEX)
               for m in out.moves)
    assert witness.error(cert.end, out.end) is None


def test_property_suite_is_clean_and_deterministic():
    first = run_property_suite(seed=0, max_size=5, samples=10)
    second = run_property_suite(seed=0, max_size=5, samples=10)
    assert first == second
    assert all(r.verdict != "fail" for r in first)
    ids = [r.property_id for r in first]
    assert ids == sorted(ids)
    assert len({r.property_id for r in first}) == 10
    assert any(r.line().startswith("PASS ") for r in first)


def test_property_suite_has_no_fail_lines():
    failed = [f"seed {seed}: {r.line()}" for seed in range(40)
              for r in run_property_suite(seed=seed) if r.verdict == "fail"]
    assert failed == []


def test_property_suite_at_budget_zero_skips_the_searches_it_cannot_finish():
    lines = [r.line() for r in run_property_suite(seed=0, max_size=5, samples=6, budget=0)]
    assert sum(line.endswith(" :: budget exhausted") and line.startswith("SKIP ")
               for line in lines) == 3
    assert not any(line.startswith("FAIL ") for line in lines)


def test_property_suite_skips_skeleton_moves_of_non_flag_complexes():
    skipped = [r.line() for r in run_property_suite(seed=43) if r.verdict == "skipped"]
    assert skipped == ["SKIP collapse-induces-skeleton-move complex<f08be5ac> :: "
                       "not flag: [a,b,d]"]


# sha256 of the joined report lines of run_property_suite(seed), recorded
# before the two star-collapse properties shared one check.
SUITE_DIGESTS = {
    0: "39fd010e878d4d0ad56f7bb11c8041ae76059e1a868f91f444b16361352cceed",
    1: "437b3797ea7cf3e651b26d3ee3d9a3780d9d5cb24240e2b8195bfc5a98c7bf45",
    2: "dd22b69f4c8213e732b0c53b6497032598283d82060fbf8dda09a96f0085cdb4",
    3: "b0d0ec30e60b2ec0e139f017048a0b4c17cac46730a2bd73b0d37cc163a4063d",
}


@pytest.mark.parametrize("seed", sorted(SUITE_DIGESTS))
def test_property_suite_lines_are_unchanged(seed):
    text = "\n".join(r.line() for r in run_property_suite(seed))
    assert hashlib.sha256(text.encode()).hexdigest() == SUITE_DIGESTS[seed]
