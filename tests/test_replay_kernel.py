"""The in-place replay kernel against the immutable replays it replaced.

Each checker must return the same CheckReport as its immutable reference in
tests/helpers.py, on valid certificates and on broken ones, and the greedy
cores must pick the same orders.  The builders drive the same replay
through `certificate`, whose order of producing, vetting and applying is
checked directly.  The cost guards count work instead of timing it.
"""

import dataclasses
import random
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

from flagcalc import (
    CertificateError,
    CheckReport,
    CollapsePair,
    ComplexCertificate,
    ComplexError,
    DismantlingOrder,
    Graph,
    GraphMove,
    MoveCertificate,
    MoveKind,
    PosetCertificate,
    PosetMove,
    SimplicialComplex,
    check_certificate,
    check_complex_certificate,
    check_poset_certificate,
    complete_graph,
    dismantles_onto,
    dismantling_core,
    domination_collapse,
    dominated_vertices,
    link,
    realize_edge_deletion,
    realize_s_neighborhood_deletion,
    rewrite_edge_moves,
    s_dismantlable_edges,
    s_dismantlable_vertices,
    star_collapse_certificate,
    subdivision_certificate,
    weak_point_cascade,
)
from flagcalc import dismantling, simplicial, textio
from flagcalc.dismantling import (
    GRAPH,
    _apply_move,
    _move_error,
    _working,
    cone_order,
    greedy_dismantling,
    greedy_dismantling_certificate,
)
from flagcalc.identities import random_graph, random_poset
from flagcalc.posets import (
    PosetDismantlingOrder,
    POSET,
    PosetMoveKind,
    _apply_poset_move,
    _order_sets,
    poset_dismantling_core,
)
from flagcalc.simplicial import (
    ANTICOLLAPSE,
    COLLAPSE,
    COMPLEX,
    clique_complex,
    collapse_certificate_for_dismantlable,
)

from .helpers import (
    naive_check_certificate,
    naive_check_complex_certificate,
    naive_check_poset_certificate,
    naive_dismantling_core,
    naive_poset_dismantling_core,
    random_copwin_graph,
    random_ws_move_certificate,
)

MUTATIONS = ("valid", "drop-step", "swap-steps", "wrong-dominator", "absent-attachment",
             "unknown-pair", "wrong-end", "outside-local")
ABSENT = "zz"


def _pick(rng, items):
    return rng.choice(items) if items else None


def _edit_steps(rng, steps: tuple, mutation: str, labels: list[str], repivot) -> tuple:
    """A witness order with one step dropped, two swapped or a wrong pivot."""
    steps = list(steps)
    if mutation == "drop-step" and steps:
        del steps[rng.randrange(len(steps))]
    elif mutation == "swap-steps" and len(steps) >= 2:
        i, j = rng.sample(range(len(steps)), 2)
        steps[i], steps[j] = steps[j], steps[i]
    elif mutation == "wrong-dominator" and steps:
        i = rng.randrange(len(steps))
        steps[i] = repivot(steps[i], rng.choice(labels + [ABSENT]))
    return tuple(steps)


def _outside_local(rng, moves: list, state, apply, local_of) -> tuple[int, str] | None:
    """A move with witness steps and a label present before it but outside its
    local set, `local_of(state, move)` giving (present, local): (index, label)."""
    options = []
    for i, m in enumerate(moves):
        present, local = local_of(state, m)
        outside = sorted(set(present) - set(local))
        if m.witness.steps and outside:
            options.append((i, rng.choice(outside)))
        state = apply(state, m)
    return _pick(rng, options)


def _step_outside(rng, steps: tuple, label: str, replace_removed, replace_pivot) -> tuple:
    """The steps with one step's removed label or its pivot set to `label`."""
    steps = list(steps)
    i = rng.randrange(len(steps))
    steps[i] = rng.choice((replace_removed, replace_pivot))(steps[i], label)
    return tuple(steps)


# ---------------------------------------------------------------------------
# graphs


def _graph_local(adj, m: GraphMove):
    if m.kind is MoveKind.REMOVE_VERTEX:
        return adj, adj[m.target]
    if m.kind is MoveKind.ADD_VERTEX:
        return adj, m.attachment
    a, b = m.target
    return adj, adj[a] & adj[b]


def _graph_certificate(rng) -> MoveCertificate:
    g = random_copwin_graph(rng, rng.randint(2, 8))
    kind = rng.choice(("greedy", "subdivision", "random", "edge"))
    if kind == "subdivision" and len(g.vertices) <= 5:
        return subdivision_certificate(g)
    if kind == "random":
        return random_ws_move_certificate(rng, g, rng.randint(1, 5))
    if kind == "edge" and s_dismantlable_edges(g):
        return realize_edge_deletion(g, sorted(_pick(rng, s_dismantlable_edges(g))))
    return greedy_dismantling_certificate(g)


def _mutate_graph(rng, c: MoveCertificate, mutation: str) -> MoveCertificate:
    moves = list(c.moves)
    labels = sorted(c.start.vertices | c.end.vertices)
    if mutation in ("drop-step", "swap-steps", "wrong-dominator"):
        i = _pick(rng, [i for i, m in enumerate(moves) if m.witness.steps])
        if i is not None:
            steps = _edit_steps(rng, moves[i].witness.steps, mutation, labels,
                                lambda step, w: (step[0], w))
            moves[i] = dataclasses.replace(moves[i], witness=DismantlingOrder(steps))
    elif mutation == "absent-attachment":
        i = _pick(rng, [i for i, m in enumerate(moves) if m.kind is MoveKind.ADD_VERTEX])
        if i is None:
            moves.insert(0, GraphMove(MoveKind.ADD_VERTEX, "new", DismantlingOrder(()),
                                      attachment=frozenset({ABSENT})))
        else:
            moves[i] = dataclasses.replace(moves[i], attachment=moves[i].attachment | {ABSENT})
    elif mutation == "unknown-pair":
        moves.insert(rng.randint(0, len(moves)),
                     GraphMove(MoveKind.REMOVE_EDGE, frozenset((ABSENT, labels[0])),
                               DismantlingOrder(())))
    elif mutation == "wrong-end":
        return MoveCertificate(c.start, c.moves, c.end.with_vertex(ABSENT))
    elif mutation == "outside-local":
        picked = _outside_local(rng, moves, _working(c.start), _apply_move, _graph_local)
        if picked is not None:
            i, label = picked
            steps = _step_outside(rng, moves[i].witness.steps, label,
                                  lambda step, v: (v, step[1]), lambda step, w: (step[0], w))
            moves[i] = dataclasses.replace(moves[i], witness=DismantlingOrder(steps))
    return MoveCertificate(c.start, tuple(moves), c.end)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(MUTATIONS))
def test_graph_check_matches_immutable_replay(seed, mutation):
    rng = random.Random(seed)
    cert = _mutate_graph(rng, _graph_certificate(rng), mutation)
    assert check_certificate(cert) == naive_check_certificate(cert)


CONE_MUTATIONS = ("drop-step", "repeat-step", "outside-local", "apex-removed",
                  "second-dominator", "apex-outside", "edge-to-apex")


def _mutate_cone(rng, c: MoveCertificate, mutation: str) -> MoveCertificate | None:
    """c with one cone witness, whose steps all name one dominator, broken by
    `mutation`; None when c has no cone the mutation applies to."""
    cones = [i for i, m in enumerate(c.moves)
             if m.witness.steps and len({w for _, w in m.witness.steps}) == 1]
    i = _pick(rng, cones)
    if i is None:
        return None
    adj = _working(c.start)
    for m in c.moves[:i]:
        adj = _apply_move(adj, m)
    present, local = _graph_local(adj, c.moves[i])
    steps = list(c.moves[i].witness.steps)
    apex, j, start = steps[0][1], rng.randrange(len(steps)), c.start
    outside = sorted(set(present) - set(local))
    # removed vertices that the start joins to the apex
    spokes = sorted(start.adjacency.get(apex, frozenset()) & {v for v, _ in steps})
    if mutation == "drop-step":
        del steps[j]
    elif mutation == "repeat-step" and len(steps) >= 2:
        steps[j] = steps[j - 1]
    elif mutation == "outside-local" and outside:
        steps[j] = (rng.choice(outside), apex)
    elif mutation == "apex-removed":
        steps[j] = (apex, apex)
    elif mutation == "second-dominator" and len(local) >= 3:
        steps[j] = (steps[j][0], rng.choice(sorted(set(local) - {apex, steps[j][0]})))
    elif mutation == "apex-outside" and outside:
        other = rng.choice(outside)
        steps = [(v, other) for v, _ in steps]
    elif mutation == "edge-to-apex" and spokes:
        start = start.without_edge(apex, rng.choice(spokes))
    else:
        return None
    moves = list(c.moves)
    moves[i] = dataclasses.replace(moves[i], witness=DismantlingOrder(tuple(steps)))
    return MoveCertificate(start, tuple(moves), c.end)


@pytest.mark.parametrize("mutation", CONE_MUTATIONS)
def test_cone_witness_mutants_match_immutable_replay(mutation):
    """A cone broken in one way gets the step-by-step reference's report,
    failing step and reason included, so the subset test lets no bad cone by."""
    rejected = 0
    for seed in range(40):
        rng = random.Random(seed)
        g = random_copwin_graph(rng, rng.randint(2, 7))
        for c in (greedy_dismantling_certificate(g), subdivision_certificate(g)):
            cert = _mutate_cone(rng, c, mutation)
            if cert is not None:
                report = check_certificate(cert)
                assert report == naive_check_certificate(cert), (seed, mutation)
                rejected += not report
    assert rejected >= 10


# ---------------------------------------------------------------------------
# complexes


def _complex_certificate(rng) -> ComplexCertificate:
    c = collapse_certificate_for_dismantlable(random_copwin_graph(rng, rng.randint(2, 8)))
    if rng.random() < 0.5:
        return c
    return ComplexCertificate(c.end, tuple((ANTICOLLAPSE, p) for _, p in reversed(c.moves)),
                              c.start)


def _mutate_complex(rng, c: ComplexCertificate, mutation: str) -> ComplexCertificate:
    moves = list(c.moves)
    if mutation == "drop-step" and moves:
        del moves[rng.randrange(len(moves))]
    elif mutation == "swap-steps" and len(moves) >= 2:
        i, j = rng.sample(range(len(moves)), 2)
        moves[i], moves[j] = moves[j], moves[i]
    elif mutation == "wrong-dominator" and moves:
        i = rng.randrange(len(moves))
        op, pair = moves[i]
        others = sorted(set().union(*c.start.simplices, *c.end.simplices) - pair.sigma)
        if others:
            moves[i] = (op, CollapsePair(pair.tau | {rng.choice(others)}, pair.tau))
    elif mutation in ("absent-attachment", "unknown-pair") and moves:
        i = rng.randrange(len(moves))
        op, pair = moves[i]
        moves[i] = (op, CollapsePair(pair.sigma | {ABSENT}, pair.tau | {ABSENT}))
    elif mutation == "wrong-end":
        end = c.end.simplices | {frozenset({ABSENT})}
        return ComplexCertificate(c.start, c.moves, simplicial.SimplicialComplex(end))
    elif mutation == "outside-local" and moves:
        # a pair has no witness; its face is taken from outside its simplex
        i = rng.randrange(len(moves))
        op, pair = moves[i]
        others = sorted((s for s in c.start.simplices | c.end.simplices
                         if len(s) == len(pair.tau) and not s < pair.sigma), key=sorted)
        if others:
            moves[i] = (op, CollapsePair(pair.sigma, rng.choice(others)))
    return ComplexCertificate(c.start, tuple(moves), c.end)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(MUTATIONS))
def test_complex_check_matches_immutable_replay(seed, mutation):
    rng = random.Random(seed)
    cert = _mutate_complex(rng, _complex_certificate(rng), mutation)
    assert check_complex_certificate(cert) == naive_check_complex_certificate(cert)


# ---------------------------------------------------------------------------
# posets


def _poset_certificate(rng) -> PosetCertificate:
    g = random_copwin_graph(rng, rng.randint(2, 7))
    c = weak_point_cascade(g, rng.choice(s_dismantlable_vertices(g)))
    if rng.random() < 0.5:
        return c
    # the same moves read backwards, as additions onto the end poset
    adds, cur = [], c.start
    for m in c.moves:
        adds.append(PosetMove(PosetMoveKind.ADD, m.element, m.witness_side, m.witness,
                              lower=cur.below(m.element), upper=cur.above(m.element)))
        cur = cur.without(m.element)
    return PosetCertificate(c.end, tuple(reversed(adds)), c.start)


def _poset_local(state, m: PosetMove):
    up, down = state
    if m.kind is PosetMoveKind.REMOVE:
        return up, down[m.element] if m.witness_side == "below" else up[m.element]
    return up, m.lower if m.witness_side == "below" else m.upper


def _mutate_poset(rng, c: PosetCertificate, mutation: str) -> PosetCertificate:
    moves = list(c.moves)
    labels = sorted(c.start.elements | c.end.elements)
    if mutation in ("drop-step", "swap-steps", "wrong-dominator"):
        i = _pick(rng, [i for i, m in enumerate(moves) if m.witness.steps])
        if i is not None:
            steps = _edit_steps(rng, moves[i].witness.steps, mutation, labels,
                                lambda step, w: dataclasses.replace(step, pivot=w))
            moves[i] = dataclasses.replace(moves[i], witness=PosetDismantlingOrder(steps))
    elif mutation == "absent-attachment":
        i = _pick(rng, [i for i, m in enumerate(moves) if m.kind is PosetMoveKind.ADD])
        if i is not None:
            moves[i] = dataclasses.replace(moves[i], lower=moves[i].lower | {ABSENT})
    elif mutation == "unknown-pair":
        moves.insert(rng.randint(0, len(moves)),
                     PosetMove(PosetMoveKind.REMOVE, ABSENT, "below", moves[0].witness))
    elif mutation == "wrong-end":
        return PosetCertificate(c.start, c.moves, c.end.without(sorted(c.end.elements)[0]))
    elif mutation == "outside-local":
        picked = _outside_local(rng, moves, _order_sets(c.start), _apply_poset_move, _poset_local)
        if picked is not None:
            i, label = picked
            steps = _step_outside(rng, moves[i].witness.steps, label,
                                  lambda step, x: dataclasses.replace(step, removed=x),
                                  lambda step, x: dataclasses.replace(step, pivot=x))
            moves[i] = dataclasses.replace(moves[i], witness=PosetDismantlingOrder(steps))
    return PosetCertificate(c.start, tuple(moves), c.end)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(MUTATIONS))
def test_poset_check_matches_immutable_replay(seed, mutation):
    rng = random.Random(seed)
    cert = _mutate_poset(rng, _poset_certificate(rng), mutation)
    assert check_poset_certificate(cert) == naive_check_poset_certificate(cert)


def test_mutations_break_certificates():
    """Each mutation makes some certificates fail, so the comparisons above
    cover rejections and not only acceptances."""
    kinds = [(_graph_certificate, _mutate_graph, check_certificate),
             (_complex_certificate, _mutate_complex, check_complex_certificate),
             (_poset_certificate, _mutate_poset, check_poset_certificate)]
    for make, mutate, check in kinds:
        for mutation in MUTATIONS:
            reports = [check(mutate(rng, make(rng), mutation))
                       for rng in map(random.Random, range(30))]
            if mutation == "valid":
                assert all(reports)
            else:
                assert not all(reports), (make.__name__, mutation)


# ---------------------------------------------------------------------------
# greedy cores


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_greedy_cores_match_rescanning_loops(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 9), rng.choice((0.3, 0.5, 0.7)))
    core, order = dismantling_core(g)
    assert (core, order.steps) == naive_dismantling_core(g)
    g = random_copwin_graph(rng, rng.randint(1, 12))
    core, order = dismantling_core(g)
    assert (core, order.steps) == naive_dismantling_core(g)
    p = random_poset(rng, rng.randint(1, 8), rng.choice((0.2, 0.4, 0.6)))
    assert poset_dismantling_core(p) == naive_poset_dismantling_core(p)


# ---------------------------------------------------------------------------
# cost guards


def test_subdivision_check_builds_adjacency_a_fixed_number_of_times(monkeypatch):
    g = random_copwin_graph(random.Random(7), 20)
    build = Graph.__dict__["adjacency"].func
    builds = []

    def counting(self):
        builds.append(self)
        return build(self)

    prop = cached_property(counting)
    prop.__set_name__(Graph, "adjacency")
    monkeypatch.setattr(Graph, "adjacency", prop)
    cert = subdivision_certificate(g)
    assert check_certificate(cert).ok
    steps = sum(len(m.witness.steps) for m in cert.moves)
    assert steps > 1000
    assert len(builds) <= 3  # start and end graphs, not one per witness step


def test_subdivision_check_copies_no_local_subgraph(monkeypatch):
    g = random_copwin_graph(random.Random(7), 20)
    cert = subdivision_certificate(g)
    copies = []
    masks_of = dismantling._masks_of

    def counting(adj, subset):
        copies.append(subset)
        return masks_of(adj, subset)

    monkeypatch.setattr(dismantling, "_masks_of", counting)
    assert check_certificate(cert).ok
    assert len(cert.moves) > 100
    assert copies == []  # witnesses are replayed on the working state itself
    # a greedy witness on a dict working state still builds one, and the count sees it
    realize_edge_deletion(g, s_dismantlable_edges(g)[0])
    assert len(copies) == 1


def test_valid_complex_check_never_scans_the_complex(monkeypatch):
    scans = []
    scan = simplicial._coface_error

    def counting(simplices, pair):
        scans.append(pair)
        return scan(simplices, pair)

    monkeypatch.setattr(simplicial, "_coface_error", counting)
    cert = collapse_certificate_for_dismantlable(random_copwin_graph(random.Random(3), 20))
    assert len(cert.moves) > 100
    assert check_complex_certificate(cert).ok
    assert scans == []
    # a face with another coface is rejected, and only then is the complex scanned
    edges = sorted((s for s in cert.start.simplices if len(s) == 2), key=sorted)
    v = min(u for u in set().union(*edges) if sum(u in e for e in edges) >= 2)
    tau = frozenset({v})
    sigma = next(e for e in edges if v in e)
    bad = ComplexCertificate(cert.start, ((COLLAPSE, CollapsePair(sigma, tau)),), cert.end)
    report = check_complex_certificate(bad)
    assert not report.ok and "is also a face of" in report.reason and len(scans) == 1


def _count_constructions(monkeypatch, cls) -> list[int]:
    """Record the size of every value of cls built from now on."""
    sizes = []
    init = cls.__init__

    def counting(self, *args):
        init(self, *args)
        sizes.append(len(args[0]))

    monkeypatch.setattr(cls, "__init__", counting)
    return sizes


def test_parsers_build_one_value_for_the_end(monkeypatch):
    g = random_copwin_graph(random.Random(7), 20)
    text = textio.format_move_certificate(subdivision_certificate(g))
    cert = collapse_certificate_for_dismantlable(g)
    complex_text = textio.format_complex_certificate(cert)
    graphs = _count_constructions(monkeypatch, Graph)
    complexes = _count_constructions(monkeypatch, SimplicialComplex)
    closed = SimplicialComplex._closed  # the trusted constructions count too
    monkeypatch.setattr(SimplicialComplex, "_closed",
                        staticmethod(lambda sims: complexes.append(len(sims)) or closed(sims)))
    parsed = textio.parse_move_certificate(text, g)
    assert len(parsed.moves) > 100
    assert textio.parse_complex_certificate(complex_text, cert.start).end == cert.end
    assert len(cert.moves) > 100
    assert len(graphs) == 1 and len(complexes) == 1  # the ends, not one value per move


def test_move_builders_build_full_size_graphs_a_fixed_number_of_times(monkeypatch):
    g = random_copwin_graph(random.Random(7), 20)
    v = s_dismantlable_vertices(g)[0]
    graphs = _count_constructions(monkeypatch, Graph)
    verdict = realize_s_neighborhood_deletion(g, v)
    assert len(verdict.certificate.moves) > 10
    # the end and the vertex-deleted graph it is compared with; the local
    # graphs of the witnesses are smaller
    assert sum(n >= len(g.vertices) - 1 for n in graphs) <= 2


def test_complex_check_rejects_a_start_not_closed_under_faces():
    # no such start can be built, so the checker never sees one
    a, ab, acd = frozenset("a"), frozenset("ab"), frozenset("acd")
    with pytest.raises(ComplexError, match=r"^family not closed under deletion at \[a,b\]$"):
        SimplicialComplex(frozenset({a, ab, acd}))
    closed = SimplicialComplex.from_maximal(["ab", "acd"])
    cert = ComplexCertificate(closed, ((COLLAPSE, CollapsePair(ab, frozenset("b"))),),
                              SimplicialComplex.from_maximal(["a", "acd"]))
    assert check_complex_certificate(cert).ok


# ---------------------------------------------------------------------------
# building certificates


def test_build_applies_each_move_before_the_producer_resumes():
    g = random_copwin_graph(random.Random(5), 10)
    seen = []

    def producer(adj):
        for v, w in greedy_dismantling(g).steps:
            seen.append(set(adj))
            yield GraphMove(MoveKind.REMOVE_VERTEX, v, witness=cone_order(adj[v], w))

    cert = GRAPH.certificate(g, producer)
    removed = [m.target for m in cert.moves]
    assert seen == [g.vertices - set(removed[:i]) for i in range(len(removed))]
    assert cert.moves == greedy_dismantling_certificate(g).moves
    assert cert.end == greedy_dismantling_certificate(g).end


def test_build_stops_at_the_first_rejected_move():
    k4 = complete_graph("abcd")
    good = GraphMove(MoveKind.REMOVE_VERTEX, "a", witness=cone_order("bcd", "b"))
    bad = GraphMove(MoveKind.REMOVE_VERTEX, "b", witness=DismantlingOrder((("c", "c"),)))
    later = GraphMove(MoveKind.REMOVE_VERTEX, "c", witness=cone_order("d", "d"))
    produced = []

    def producer(adj):
        for m in (good, bad, later):
            produced.append(m)
            yield m

    with pytest.raises(CertificateError) as exc:
        GRAPH.certificate(k4, producer)
    reason = _move_error(_working(k4.without_vertex("a")), bad)
    assert reason and str(exc.value) == reason
    assert produced == [good, bad]


# ---------------------------------------------------------------------------
# the per-kind replay records


@pytest.mark.parametrize("seed", range(6))
def test_the_graph_record_holds_its_values_and_its_certificates_check(seed):
    rng = random.Random(seed)
    g = random_copwin_graph(rng, 9)
    for h in (g, random_graph(rng, 7, 0.5), random_ws_move_certificate(rng, g, 5).end):
        assert GRAPH.value(GRAPH.work(h)) == h
    certs = [greedy_dismantling_certificate(g), rewrite_edge_moves(
        random_ws_move_certificate(rng, g, 5))[0], subdivision_certificate(g),
        GRAPH.certificate(g, lambda adj: (GraphMove(MoveKind.REMOVE_VERTEX, v,
                                                    witness=cone_order(adj[v], w))
                                          for v, w in dominated_vertices(g)[:1]))]
    certs.extend(realize_edge_deletion(g, e) for e in s_dismantlable_edges(g))
    certs.extend(realize_s_neighborhood_deletion(g, v).certificate
                 for v in s_dismantlable_vertices(g))
    core, _ = dismantling_core(g)
    certs.append(dismantles_onto(g, g.induced(core.vertices)).certificate)
    for cert in certs:
        assert check_certificate(cert) == CheckReport(True)


@pytest.mark.parametrize("seed", range(6))
def test_the_complex_record_holds_its_values_and_its_certificates_check(seed):
    rng = random.Random(seed)
    g = random_copwin_graph(rng, 9)
    k = clique_complex(g)
    assert COMPLEX.value(COMPLEX.work(k)) == k
    certs = [collapse_certificate_for_dismantlable(g)]
    certs.extend(domination_collapse(g, v, w) for v, w in dominated_vertices(g))
    for v in s_dismantlable_vertices(g):
        link_cert = collapse_certificate_for_dismantlable(g.open_neighborhood_subgraph(v))
        assert link_cert.start == link(k, {v})
        certs.append(star_collapse_certificate(k, {v}, link_cert))
    for cert in certs:
        assert check_complex_certificate(cert) == CheckReport(True)


@pytest.mark.parametrize("seed", range(6))
def test_the_poset_record_holds_its_values_and_its_certificates_check(seed):
    rng = random.Random(seed)
    p = random_poset(rng, 8, 0.4)
    assert POSET.value(POSET.work(p)) == p
    g = random_copwin_graph(rng, 8)
    certs = [weak_point_cascade(g, v) for v in s_dismantlable_vertices(g)]
    assert certs
    for cert in certs:
        assert check_poset_certificate(cert) == CheckReport(True)
