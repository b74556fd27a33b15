"""Domination-based graph reductions and machine-checkable move certificates.

A vertex is dominated when another vertex's closed neighborhood covers its
own; deleting dominated vertices is the elementary step of dismantling.  A
vertex whose *open* neighborhood induces a dismantlable graph can be removed
as an s-move, an edge whose endpoints share a nonempty dismantlable common
neighborhood as a ws-move.  Certificates record every move together with the
dismantling order witnessing it, so any claimed reduction can be replayed.
The dominated-vertex mask kernel lives in `graphs`, beside `Graph._greedy`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import repeat
from typing import AbstractSet, Callable, Generator, Iterable, Iterator, Optional, Sequence

from .graphs import (
    Graph,
    GraphError,
    IsoWitness,
    _bits,
    _clique_levels,
    _dominator_mask,
    _mask_core,
    _masks_of,
    barycentric_graph,
    complete_subgraphs,
    fresh_labels,
    reduced_betti,
    sorted_pair,
)

DEFAULT_SEARCH_BUDGET = 100_000


class CertificateError(ValueError):
    """A move or witness failed validation against its local graph."""


class NormalizationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# working states: a private adjacency dict of sets, updated in place, and
# mask states over a Graph's vertex bits, as `graphs` defines them


def _working(g: Graph) -> dict[str, set[str]]:
    """A mutable copy of g's adjacency for replays and builders to update."""
    return {v: set(nb) for v, nb in g.adjacency.items()}


def _graph_of(adj: dict[str, set[str]]) -> Graph:
    return Graph(frozenset(adj), frozenset(frozenset((u, v)) for u, nb in adj.items()
                                           for v in nb if u < v))


def _delete(adj: dict[str, set[str]], v: str) -> dict[str, set[str]]:
    for u in adj.pop(v):
        adj[u].discard(v)
    return adj


def _sub_masks(closed: dict[int, int], sub: int, cut: Iterable[int] = ()) -> dict[int, int]:
    """The mask state of the subgraph `sub` induces, less the `cut` edges
    (two-bit masks) inside it."""
    cl = {b: closed[b] & sub for b in _bits(sub)}
    for e in cut:
        a = e & -e
        cl[a] ^= e ^ a
        cl[e ^ a] ^= a
    return cl


def _label(labels: Sequence[str], b: int) -> str:
    return labels[b.bit_length() - 1]


def _labelled(labels: Sequence[str], steps) -> DismantlingOrder:
    return DismantlingOrder(tuple((_label(labels, v), _label(labels, w)) for v, w in steps))


def _mask_order(labels: Sequence[str], cl: dict[int, int]) -> DismantlingOrder | None:
    """The greedy dismantling of a mask state, which it consumes, or None."""
    core, steps = _mask_core(cl)
    return _labelled(labels, steps) if len(core) == 1 else None


# ---------------------------------------------------------------------------
# dismantling orders


@dataclass(frozen=True)
class DismantlingOrder:
    """Ordered (removed, dominator) pairs replayed against a parent graph."""

    steps: tuple[tuple[str, str], ...]


def _order_error(adj: dict[str, set[str]], local: AbstractSet[str],
                 order: DismantlingOrder) -> str | None:
    """Why `order` does not dismantle the subgraph that `local` induces in adj.

    The subgraph is never copied: `alive` holds its vertices not yet removed,
    and in it w dominates v exactly when (N(v) & alive) - N(w) is {w}.

    A cone, an order whose steps all name one dominator w, is accepted by one
    subset test.  It passes the loop exactly when w is in L = local, the
    removed vertices are distinct, differ from w and make up L - {w}, and
    L - {w} lies in N(w): each step needs w in N(v) and in alive, and the loop
    must end at {w}; conversely each alive set lies in N[w], so w dominates
    every removed vertex in turn.  As N(w) omits w, `rest <= adj[apex]` keeps
    w out of rest.  Every other order, and a cone that fails the test, runs
    the loop, so each rejection names its step.
    """
    steps = order.steps
    if steps and steps[0][1] == steps[-1][1] and len(steps) + 1 == len(local):
        removed, dominators = zip(*steps)
        apex = dominators[0]
        rest = set(removed)
        if (dominators.count(apex) == len(steps) and len(rest) == len(steps)
                and apex in local and rest <= local and rest <= adj[apex]):
            return None
    alive = set(local)
    for i, (v, w) in enumerate(steps):
        if v not in alive:
            err = f"removed vertex {v!r} not present"
        elif w not in alive:
            err = f"dominator {w!r} not present"
        elif v == w:
            err = f"vertex {v!r} equals its dominator"
        elif (adj[v] & alive) - adj[w] != {w}:
            err = f"{w!r} does not dominate {v!r}"
        else:
            alive.discard(v)
            continue
        return f"step {i}: {err}"
    if len(alive) != 1:
        return f"{len(alive)} vertices remain after replay"
    return None


def cone_order(vertices: Iterable[str], apex: str) -> DismantlingOrder:
    """Dismantling order for the graph on `vertices` when it is a cone on `apex`."""
    return DismantlingOrder(tuple((v, apex) for v in sorted(vertices) if v != apex))


def dominated_vertices(g: Graph) -> list[tuple[str, str]]:
    """All pairs (v, w) with v != w and N[v] contained in N[w], sorted."""
    labels, _, closed = g._masks
    return [(v, _label(labels, w))
            for v, b in zip(labels, closed) for w in _bits(_dominator_mask(closed, b))]


def dismantling_core(g: Graph) -> tuple[Graph, DismantlingOrder]:
    """Greedily delete dominated vertices until none remains."""
    if not g.vertices:
        raise GraphError("empty graph has no dismantling core")
    core, steps = g._greedy
    return g.induced(g._masks.label_set(core)), _labelled(g._masks.labels, steps)


def greedy_dismantling(g: Graph) -> DismantlingOrder | None:
    """Full greedy order down to a single vertex, or None if stuck earlier.

    Greedy deletion is complete here: removing a dominated vertex leaves a
    retract, so it never destroys dismantlability.
    """
    if not g.vertices:
        raise GraphError("empty graph")
    core, steps = g._greedy
    return None if core & (core - 1) else _labelled(g._masks.labels, steps)


def _obstruction(g: Graph) -> tuple[int, ...]:
    """reduced_betti of the clique complex of a nonempty graph; () when acyclic.

    Found on the greedy dismantling core: deleting a dominated vertex is a
    strong collapse (Barmak and Minian, "Strong homotopy types, nerves and
    collapses", DCG 47, 2012), which keeps the homotopy type, so the cliques
    of a dismantlable graph are never listed.
    """
    return reduced_betti(_clique_levels(_sub_masks(g._masks.closed, g._greedy[0])))


def is_dismantlable(g: Graph) -> bool:
    if not g.vertices:
        raise GraphError("dismantlability is defined for nonempty graphs only")
    return greedy_dismantling(g) is not None


def _s_witness(adj, local) -> DismantlingOrder | None:
    """The greedy order of the subgraph `local` induces in the dict state adj,
    or None when it is empty or not dismantlable."""
    mv = _masks_of(adj, local)
    return _mask_order(mv.labels, mv.closed)


def is_s_dismantlable_vertex(g: Graph, v: str) -> bool:
    return _s_witness(g.adjacency, g.neighbors(v)) is not None


def _moves_of(g: Graph, candidates: Callable) -> Iterator[GraphMove]:
    labels, _, closed = g._masks
    return candidates(labels, sum(closed), lambda b: closed[b] ^ b,
                      lambda nb: _mask_order(labels, _sub_masks(closed, nb)))


def s_dismantlable_vertices(g: Graph) -> list[str]:
    return [m.target for m in _moves_of(g, _s_vertex_candidates)]


def is_s_dismantlable_edge(g: Graph, e: Iterable[str]) -> bool:
    a, b = g._require_edge(e)
    return _s_witness(g.adjacency, g.neighbors(a) & g.neighbors(b)) is not None


def s_dismantlable_edges(g: Graph) -> list[frozenset[str]]:
    return [m.target for m in _moves_of(g, _s_edge_candidates)]


# ---------------------------------------------------------------------------
# moves and certificates


class MoveKind(enum.Enum):
    REMOVE_VERTEX = "-v"
    ADD_VERTEX = "+v"
    REMOVE_EDGE = "-e"
    ADD_EDGE = "+e"


VERTEX_MOVES = (MoveKind.REMOVE_VERTEX, MoveKind.ADD_VERTEX)


@dataclass(frozen=True)
class GraphMove:
    kind: MoveKind
    target: str | frozenset[str]
    witness: DismantlingOrder
    attachment: frozenset[str] | None = None

    def describe(self) -> str:
        """The move's line in a certificate: `+v x a,b`, `-v x`, `+e a b` or `-e a b`."""
        if self.kind in (MoveKind.REMOVE_EDGE, MoveKind.ADD_EDGE):
            a, b = sorted_pair(self.target)
            return f"{self.kind.value} {a} {b}"
        if self.kind is MoveKind.ADD_VERTEX:
            return f"{self.kind.value} {self.target} {','.join(sorted(self.attachment))}"
        return f"{self.kind.value} {self.target}"


@dataclass(frozen=True)
class MoveCertificate:
    start: Graph
    moves: tuple[GraphMove, ...]
    end: Graph


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    failed_at: Optional[int] = None
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Rules:
    """One structure kind's replay record, read by every builder, checker and
    parser of its certificates.  `work(x)` is a mutable working state holding
    the value x, and `value(state)` its value.  `error(state, move)` says why a
    move cannot be applied, or None; `fit` is the half of it that a parser
    checks, all but the witness (None when no parser reads the kind).
    `apply(state, move)` may update the state in place and returns the state to
    go on from.  `cert(start, moves, end)` is the kind's certificate."""

    noun: str
    cert: Callable
    work: Callable
    value: Callable
    fit: Callable | None
    error: Callable
    apply: Callable

    def replay(self, state, moves: Iterable, vet: Callable) -> tuple[object, CheckReport]:
        """Apply the moves in turn, each first vetted by `vet(state, move)`, `fit`
        in a parser and `error` elsewhere: the state reached and a passing report,
        or the state before the first rejected move and its index and reason."""
        for i, m in enumerate(moves):
            err = vet(state, m)
            if err:
                return state, CheckReport(False, i, err)
            state = self.apply(state, m)
        return state, CheckReport(True)

    def certificate(self, start, producer: Callable, end=None):
        """The certificate of the moves `producer(state)` makes on the working
        state `work(start)`, each vetted by `error` and applied as it is made.

        The producer may read the working state, which holds every earlier move
        applied by the time the producer is resumed.  So it must compute, before
        it yields a move, anything that reads the state as it was before that
        move: `_edge_deletion_moves` builds the removal's witness before it yields
        the addition, because the addition puts the clone into `adj[renamed]`.
        The first rejected move raises CertificateError with its reason, and the
        producer is not advanced past it.  The certificate ends at the value of
        the state reached or, when `end` is given, at `end` itself, once the
        state reached is found equal to `work(end)`.
        """
        state = self.work(start)
        made: list = []
        state, report = self.replay(state, (made.append(m) or m for m in producer(state)),
                                    self.error)
        if not report:
            raise CertificateError(report.reason)
        if end is None:
            end = self.value(state)
        elif state != self.work(end):
            raise CertificateError(f"moves did not end at the given {self.noun}")
        return self.cert(start, tuple(made), end)

    def require(self, cert, what: str, error: type = CertificateError) -> None:
        """Raise `error` naming `what` and the first failing step unless the
        certificate checks."""
        report = self.check(cert)
        if not report:
            raise error(f"{what} invalid at step {report.failed_at}: {report.reason}")

    def check(self, cert) -> CheckReport:
        """Replay a certificate's moves on `work(start)` and compare with `work(end)`."""
        end, report = self.replay(self.work(cert.start), cert.moves, self.error)
        if not report:
            return report
        if end != self.work(cert.end):
            return CheckReport(False, len(cert.moves), f"end {self.noun} mismatch")
        return CheckReport(True)


def _fit_error(adj: dict[str, set[str]], m: GraphMove) -> str | None:
    """Why m cannot be applied to the working state at all: the half of
    _move_error that a parser checks, everything but the witness."""
    if m.kind is MoveKind.REMOVE_VERTEX:
        return None if m.target in adj else f"vertex {m.target!r} not present"
    if m.kind is MoveKind.ADD_VERTEX:
        if m.target in adj:
            return f"vertex {m.target!r} already present"
        if not m.attachment:
            return "added vertex needs a nonempty attachment"
        if adj.keys() >= m.attachment:
            return None
        # difference() looks each member up in adj; `- adj.keys()` scans all of adj
        return f"attachment vertices {sorted(set(m.attachment).difference(adj))} not present"
    ends = sorted(m.target)
    if len(ends) != 2 or ends[0] == ends[1]:
        return f"{m.kind.value} needs two distinct endpoints, not {ends}"
    a, b = ends
    if a not in adj or b not in adj:
        return f"edge endpoint of {a!r}-{b!r} not present"
    if m.kind is MoveKind.REMOVE_EDGE and b not in adj[a]:
        return f"edge {a!r}-{b!r} not present"
    if m.kind is MoveKind.ADD_EDGE and b in adj[a]:
        return f"edge {a!r}-{b!r} already present"
    return None


def _move_error(adj: dict[str, set[str]], m: GraphMove) -> str | None:
    """Why m cannot be applied to the working state, or None; adj is left
    unchanged.  The witness is replayed on adj itself, through the set of
    m's local vertices still present, so no local subgraph is copied."""
    err = _fit_error(adj, m)
    if err:
        return err
    if m.kind is MoveKind.REMOVE_VERTEX:
        local = adj[m.target]
    elif m.kind is MoveKind.ADD_VERTEX:
        local = m.attachment
    else:
        a, b = m.target
        local = adj[a] & adj[b]
    if not local:
        return f"{m.describe()}: witness neighborhood is empty"
    err = _order_error(adj, local, m.witness)
    if err:
        return f"{m.describe()}: witness invalid ({err})"
    return None


def _apply_move(adj: dict[str, set[str]], m: GraphMove) -> dict[str, set[str]]:
    if m.kind is MoveKind.REMOVE_VERTEX:
        return _delete(adj, m.target)
    if m.kind is MoveKind.ADD_VERTEX:
        adj[m.target] = set(m.attachment or ())
        for u in adj[m.target]:
            adj[u].add(m.target)
        return adj
    a, b = m.target
    if m.kind is MoveKind.REMOVE_EDGE:
        adj[a].discard(b)
        adj[b].discard(a)
    else:
        adj[a].add(b)
        adj[b].add(a)
    return adj


GRAPH = Rules("graph", MoveCertificate, _working, _graph_of, _fit_error, _move_error, _apply_move)


def apply_move(g: Graph, m: GraphMove) -> Graph:
    return GRAPH.certificate(g, lambda _: (m,)).end


def check_certificate(c: MoveCertificate) -> CheckReport:
    """Replay all moves from the start graph, validating every witness."""
    return GRAPH.check(c)


def replay_moves(g: Graph, moves: Iterable[GraphMove]) -> tuple[Graph, CheckReport]:
    """Replay moves from g, validating every witness: the graph reached (before
    the first rejected move, if any) and the report."""
    end, report = GRAPH.replay(_working(g), moves, _move_error)
    return _graph_of(end), report


def _additions_first(moves: Iterable[GraphMove]) -> tuple[list[GraphMove], list[GraphMove]]:
    """A vertex-move sequence's additions, then its removals, each in their order.

    An added vertex is never adjacent to one removed before it, so the two
    moves commute, and the reordered sequence keeps its witnesses and its end.
    Raises NormalizationError on an edge move, wherever it stands, or else on
    the first addition that reuses a label an earlier removal freed.
    """
    adds, removals, freed, reused = [], [], set(), []
    for m in moves:
        if m.kind not in VERTEX_MOVES:
            raise NormalizationError("edge moves present; rewrite them as vertex moves first")
        if m.kind is MoveKind.REMOVE_VERTEX:
            freed.add(m.target)
        elif m.target in freed:
            reused.append(m.target)
        (removals if m.kind is MoveKind.REMOVE_VERTEX else adds).append(m)
    if reused:
        raise NormalizationError(
            f"addition of {reused[0]!r} reuses a removed label; the swap needs fresh labels")
    return adds, removals


def normalize_certificate(c: MoveCertificate) -> MoveCertificate:
    """Reorder a valid vertex-move certificate so additions precede removals."""
    GRAPH.require(c, "certificate", NormalizationError)
    adds, removals = _additions_first(c.moves)
    return GRAPH.certificate(c.start, lambda _: adds + removals, c.end)


# ---------------------------------------------------------------------------
# constructive reductions


def realize_edge_deletion(g: Graph, e: Iterable[str]) -> MoveCertificate:
    """Two vertex moves with the same effect as deleting an s-dismantlable edge.

    Adds a clone x of the lesser endpoint attached to that endpoint's closed
    neighborhood minus the other endpoint, then removes the cloned endpoint;
    the end graph is the edge-deleted graph with the endpoint renamed to x.
    """
    a, b = g._require_edge(e)
    return GRAPH.certificate(g, lambda adj: _edge_deletion_moves(adj, a, b, ()))


def _edge_deletion_moves(adj: dict[str, set[str]], renamed: str, other: str,
                         avoid: Iterable[str]) -> Generator[GraphMove, None, str]:
    """realize_edge_deletion's two moves on the working state; returns the clone's label."""
    a, b = sorted_pair((renamed, other))
    common = adj[renamed] & adj[other]
    common_order = _s_witness(adj, common)
    if common_order is None:
        raise CertificateError(f"common neighborhood of {a!r}-{b!r} is empty or not dismantlable")

    x = fresh_labels(adj.keys() | set(avoid), 1)[0]
    attach = (adj[renamed] | {renamed}) - {other}
    add = GraphMove(MoveKind.ADD_VERTEX, x,
                    witness=cone_order(attach, renamed),
                    attachment=frozenset(attach))

    # Witness that `renamed` is removable once x is added: vertices outside the
    # other endpoint's closed neighborhood are dominated by x, the rest is the
    # common neighborhood suspended by x and the other endpoint.
    survivor = common_order.steps[-1][1] if common_order.steps else next(iter(common))
    steps = [(y, x) for y in sorted(adj[renamed] - adj[other] - {other})]
    steps.extend(common_order.steps)
    steps.append((x, survivor))
    steps.append((other, survivor))
    yield add
    yield GraphMove(MoveKind.REMOVE_VERTEX, renamed, witness=DismantlingOrder(tuple(steps)))
    return x


def realize_s_neighborhood_deletion(g: Graph, v: str,
                                    witness: MoveCertificate | None = None) -> SearchVerdict:
    """Certificate from g to g minus v, given that N(v) reduces to a point.

    Without a supplied witness the open neighborhood is searched, within
    DEFAULT_SEARCH_BUDGET nodes, for a pure removal sequence: NO, with the
    obstruction, if it has homology, else UNKNOWN if none is found, as
    additions are not searched.  A supplied witness may also contain
    additions, which are lifted into g (each new vertex additionally attached
    to v) before the edge-by-edge cascade runs.
    """
    nb = g.open_neighborhood_subgraph(v)
    if not nb.vertices:
        raise GraphError(f"{v!r} is isolated; its neighborhood cannot reduce to a point")

    stats = SearchStats(0, DEFAULT_SEARCH_BUDGET)
    if witness is None:
        verdict = _deletions_only(s_collapse_search(nb))
        if verdict.outcome is not Outcome.YES:
            return verdict
        stats, witness = verdict.stats, verdict.certificate
    else:
        if witness.start != nb:
            raise CertificateError("witness does not start at the open neighborhood")
        if len(witness.end.vertices) != 1:
            raise CertificateError("witness does not end at a single vertex")
        GRAPH.require(witness, "witness")

    if any(m.kind not in VERTEX_MOVES for m in witness.moves):
        raise CertificateError("neighborhood witness must use vertex moves only")
    adds, removals = _additions_first(witness.moves)

    def moves(adj) -> Iterator[GraphMove]:
        used, rename = set(g.vertices), {}
        for m in adds:
            label = m.target if m.target not in used else fresh_labels(used, 1)[0]
            rename[m.target] = label
            used.add(label)
            attach = frozenset(rename.get(u, u) for u in m.attachment) | {v}
            yield GraphMove(MoveKind.ADD_VERTEX, label, witness=cone_order(attach, v),
                            attachment=attach)
        # Delete the edges from v to its (expanded) neighborhood in removal order,
        # each deletion renaming the surviving copy of v.
        proxy = v
        for r in (m.target for m in removals):
            proxy = yield from _edge_deletion_moves(adj, proxy, rename.get(r, r), used)
            used.add(proxy)
        yield GraphMove(MoveKind.REMOVE_VERTEX, proxy, witness=DismantlingOrder(()))
        for m in reversed(adds):  # undo the lifted additions, newest first
            yield GraphMove(MoveKind.REMOVE_VERTEX, rename[m.target],
                            witness=_map_order(m.witness, rename))

    return SearchVerdict(Outcome.YES, GRAPH.certificate(g, moves, g.without_vertex(v)), stats)


def _map_order(order: DismantlingOrder, mu: dict[str, str]) -> DismantlingOrder:
    return DismantlingOrder(tuple((mu.get(a, a), mu.get(b, b)) for a, b in order.steps))


def rewrite_edge_moves(cert: MoveCertificate) -> tuple[MoveCertificate, IsoWitness]:
    """Replace every edge move in a valid certificate by two vertex moves.

    Deleting an edge clones one endpoint without it; adding an edge clones one
    endpoint with it.  Either way the endpoint is renamed, so the result ends
    at a graph isomorphic to the original end; the witness records the
    relabeling.
    """
    GRAPH.require(cert, "input")
    mu: dict[str, str] = {v: v for v in cert.start.vertices}
    used = set(cert.start.vertices)

    def moves(adj) -> Iterator[GraphMove]:
        for m in cert.moves:
            if m.kind is MoveKind.REMOVE_VERTEX:
                yield GraphMove(MoveKind.REMOVE_VERTEX, mu[m.target],
                                witness=_map_order(m.witness, mu))
                del mu[m.target]
            elif m.kind is MoveKind.ADD_VERTEX:
                label = m.target if m.target not in used else fresh_labels(used, 1)[0]
                used.add(label)
                mu[m.target] = label
                yield GraphMove(MoveKind.ADD_VERTEX, label,
                                witness=_map_order(m.witness, mu),
                                attachment=frozenset(mu[u] for u in m.attachment))
            elif m.kind is MoveKind.REMOVE_EDGE:
                a, b = sorted(m.target)
                mu[a] = yield from _edge_deletion_moves(adj, mu[a], mu[b], used)
                used.add(mu[a])
            else:  # ADD_EDGE: clone endpoint a with the new edge, then drop a
                a, b = sorted(m.target)
                ca, cb = mu[a], mu[b]
                attach = adj[ca] | {ca, cb}
                witness = _s_witness(adj, attach)
                if witness is None:  # pragma: no cover - guaranteed by the move's validity
                    raise CertificateError(f"clone neighborhood for edge {a}-{b} not dismantlable")
                x = fresh_labels(used | adj.keys(), 1)[0]
                yield GraphMove(MoveKind.ADD_VERTEX, x, witness=witness,
                                attachment=frozenset(attach))
                yield GraphMove(MoveKind.REMOVE_VERTEX, ca, witness=cone_order(adj[ca], x))
                mu[a] = x
                used.add(x)

    out = GRAPH.certificate(cert.start, moves)
    mapping = IsoWitness(tuple(sorted((v, mu[v]) for v in cert.end.vertices)))
    err = mapping.error(cert.end, out.end)
    if err:  # pragma: no cover - construction guarantees this
        raise CertificateError(f"relabeling is not an isomorphism: {err}")
    return out, mapping


def subdivision_certificate(g: Graph) -> MoveCertificate:
    """Vertex moves from g to its barycentric subdivision graph, ending at
    `barycentric_graph(g)` itself.

    First a hat vertex is added for every complete subgraph, in increasing
    cardinality: the hat of c attaches to the hats of the proper subsets of c,
    to the largest-labeled member of c, and to every later vertex extending c,
    which makes its neighborhood a cone.  Then the original vertices are
    removed in label order; the witness removes hats of subgraphs not holding
    the removed vertex (largest first, each dominated by its extension)
    and finishes on the cone over the removed vertex's singleton hat.  Each
    move is vetted as it is applied to the working state.  The cliques, their
    inclusion order and the end are the ones kept with g.
    """
    cliques = complete_subgraphs(g)  # by size, then labels
    labels, pairs = g._clique_order
    hats = dict(zip(cliques, labels))
    hat_members = dict(zip(labels, cliques))
    below: dict[str, set[str]] = {hat: set() for hat in labels}
    for lo, hi in pairs:
        below[hi].add(lo)
    extenders: dict[frozenset[str], set[str]] = {c: set() for c in cliques}
    for c in cliques:
        if len(c) > 1:  # c extends c - {max(c)} by a later vertex
            extenders[c - {max(c)}].add(max(c))

    def moves(adj) -> Iterator[GraphMove]:
        for c in cliques:
            peak = max(c)
            # neither the hats below c nor c's extenders hold peak, so the
            # cone's removed vertices are sorted before peak joins them
            attach = below[hats[c]]
            attach |= extenders[c]
            order = sorted(attach)
            attach.add(peak)
            yield GraphMove(MoveKind.ADD_VERTEX, hats[c],
                            witness=DismantlingOrder(tuple(zip(order, repeat(peak)))),
                            attachment=frozenset(attach))
        for v in g.sorted_vertices():
            # N(v) now holds the hats attached to v and the neighbors not yet removed.
            shrinking = sorted((u for u in adj[v] if u in hat_members and v not in hat_members[u]),
                               key=lambda u: (-len(hat_members[u]), u))
            steps = [(u, hats[hat_members[u] | {v}]) for u in shrinking]
            apex = hats[frozenset((v,))]
            steps.extend((u, apex) for u in sorted(adj[v] - set(shrinking)) if u != apex)
            yield GraphMove(MoveKind.REMOVE_VERTEX, v, witness=DismantlingOrder(tuple(steps)))

    return GRAPH.certificate(g, moves, barycentric_graph(g))


# ---------------------------------------------------------------------------
# budgeted searches


class Outcome(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    budget: int


@dataclass(frozen=True)
class SearchVerdict:
    """A search's answer.  `obstruction` is set only on a NO found before
    any search: the start's nonzero reduced mod-2 Betti vector
    (graphs.reduced_betti), which no sequence of the search's moves changes,
    so a checker can recompute it from the start alone."""

    outcome: Outcome
    certificate: object | None
    stats: SearchStats
    obstruction: tuple[int, ...] | None = None


def _deletions_only(verdict: SearchVerdict) -> SearchVerdict:
    """A NO without an obstruction means only that the deletions ran out; as
    additions are not searched, it is UNKNOWN, with the same stats."""
    if verdict.outcome is Outcome.NO and not verdict.obstruction:
        return SearchVerdict(Outcome.UNKNOWN, None, verdict.stats)
    return verdict


def backtrack(start, moves: Callable, apply: Callable, done: Callable,
              budget: int, certificate: Callable,
              tally: list[int] | None = None) -> SearchVerdict:
    """Budgeted depth-first search for a move sequence from `start` to a `done` state.

    A state is its own memo key: one on the current path, or once exhausted,
    is not expanded again.  `moves` may yield None for a move it could not
    decide, which cuts the state as the budget does.  `tally`, a one-item list,
    holds a node count shared with other searches; the budget bounds it, and
    `stats.nodes` counts this search's part.  YES carries `certificate(start,
    moves, end)`; NO means the moves ran out; UNKNOWN, that a cut stopped a path.
    """
    tally = [0] if tally is None else tally
    nodes = 0
    seen: set = set()
    frames: list = []  # [state, moves left, cut below, move that led here]

    def enter(state, via) -> Outcome | None:
        """The outcome of a state that is not expanded, or None once it is pushed."""
        nonlocal nodes
        if done(state):
            return Outcome.YES
        if state in seen:
            return Outcome.NO
        if tally[0] >= budget:
            return Outcome.UNKNOWN
        tally[0] += 1
        nodes += 1
        seen.add(state)
        frames.append([state, iter(moves(state)), False, via])
        return None

    res, end, path = enter(start, None), start, ()
    while frames and res is not Outcome.YES:
        frame = frames[-1]
        frame[2] = frame[2] or res is Outcome.UNKNOWN
        for m in frame[1]:  # the next move, if one is left
            if m is None:
                res = Outcome.UNKNOWN
                break
            child = apply(frame[0], m)
            res = enter(child, m)
            if res is Outcome.YES:
                end, path = child, tuple(f[3] for f in frames[1:]) + (m,)
            break
        else:
            frames.pop()
            if frame[2]:
                seen.discard(frame[0])
            res = Outcome.UNKNOWN if frame[2] else Outcome.NO
    cert = certificate(start, path, end) if res is Outcome.YES else None
    return SearchVerdict(res, cert, SearchStats(nodes, budget))


def _graph_search(start: Graph, target: Graph | None, candidates: Callable,
                  budget: int, tally: list[int] | None = None) -> SearchVerdict:
    """Deletion moves down to one vertex, or exactly onto a labeled target,
    with failed states memoized by the state itself.

    A state is the mask of the start's vertices that remain, over the start's
    `Graph._masks`, and the frozen set of the start's edges deleted among
    them, each a two-bit mask; its graph is never built, and a vertex's
    neighbourhood in it is its closed mask ANDed with the state.
    `candidates(labels, vs, nbr, order)` yields the moves of a state from the
    mask vs of its vertices, where `nbr(b)` is the open neighbourhood of the
    vertex bit b and `order(nb)` the greedy dismantling of the subgraph that
    nb induces, or None; greedy orders are cached for the search, keyed by nb
    and the deleted edges inside it.  The state is its own memo key: a key
    needs only that two states sharing it be isomorphic, and on every input
    measured, labeling each state to merge isomorphic ones cost more time
    than exploring them did.

    Without a target, a start whose clique complex has homology answers NO
    at once, with the Betti vector as its obstruction: s-moves and ws-moves
    keep the simple-homotopy type of the clique complex, so such a start
    never reaches one vertex.  No move on a target vertex or edge is offered.
    `tally` is passed to `backtrack`, so searches that share it share the budget.
    """
    if not start.vertices:
        raise GraphError("empty graph")
    if target is None:
        betti = _obstruction(start)
        if betti:
            return SearchVerdict(Outcome.NO, None, SearchStats(0, budget), betti)
    elif not target.edges <= start.edges:
        return SearchVerdict(Outcome.NO, None, SearchStats(0, budget))
    kept = frozenset() if target is None else target.vertices | target.edges
    mv = start._masks
    labels, bit, closed = mv
    orders: dict = {}

    def moves(state) -> Iterator[GraphMove]:
        vs, cut = state

        def nbr(b: int) -> int:
            m = (closed[b] & vs) ^ b
            for e in cut:
                if e & b:
                    m ^= e ^ b
            return m

        def order(nb: int) -> DismantlingOrder | None:
            k = (nb, frozenset(e for e in cut if e & nb == e) if cut else cut)
            if k not in orders:
                orders[k] = _mask_order(labels, _sub_masks(closed, nb, k[1]))
            return orders[k]
        found = candidates(labels, vs, nbr, order)
        return (m for m in found if m.target not in kept) if kept else found

    def apply(state, m: GraphMove):
        vs, cut = state
        if m.kind is MoveKind.REMOVE_EDGE:
            a, b = m.target
            return vs, cut | {bit[a] | bit[b]}
        b = bit[m.target]
        return vs ^ b, frozenset(e for e in cut if not e & b) if cut else cut

    def graph(state) -> Graph:
        vs, cut = state
        left = mv.label_set(vs)
        return Graph(left, frozenset(e for e in start.edges if e <= left)
                     - {mv.label_set(e) for e in cut})

    def certificate(_, path, end) -> MoveCertificate:
        return MoveCertificate(start, path, graph(end))

    aim = None if target is None else sum(bit[v] for v in target.vertices)

    def done(state) -> bool:
        vs = state[0]
        if target is None:
            return vs & (vs - 1) == 0  # one bit: one vertex left
        return vs == aim and graph(state) == target

    return backtrack((sum(closed), frozenset()), moves, apply, done, budget, certificate, tally)


def _s_vertex_candidates(labels, vs: int, nbr: Callable, order: Callable) -> Iterator[GraphMove]:
    for b in _bits(vs):
        witness = order(nbr(b))
        if witness is not None:
            yield GraphMove(MoveKind.REMOVE_VERTEX, _label(labels, b), witness=witness)


def _s_edge_candidates(labels, vs: int, nbr: Callable, order: Callable) -> Iterator[GraphMove]:
    for a in _bits(vs):
        na = nbr(a)
        for b in _bits(na & -(a << 1)):  # the neighbours after a
            witness = order(na & nbr(b))
            if witness is not None:
                yield GraphMove(MoveKind.REMOVE_EDGE,
                                frozenset((_label(labels, a), _label(labels, b))), witness=witness)


def _ws_candidates(*state) -> Iterator[GraphMove]:
    yield from _s_vertex_candidates(*state)
    yield from _s_edge_candidates(*state)


def _greedy_certificate(g: Graph, keep: frozenset[str]) -> MoveCertificate:
    """The certificate of the greedy deletions outside `keep`, each with its cone witness."""
    mv = g._masks
    _, steps = _mask_core(dict(mv.closed), sum(mv.bit[v] for v in keep)) if keep else g._greedy
    return GRAPH.certificate(g, lambda adj: (
        GraphMove(MoveKind.REMOVE_VERTEX, v, witness=cone_order(adj[v], w))
        for v, w in _labelled(mv.labels, steps).steps))


def dismantles_onto(g: Graph, h: Graph,
                    budget: int = DEFAULT_SEARCH_BUDGET) -> SearchVerdict:
    """Do dominated-vertex deletions take g exactly onto its induced subgraph h?

    Deleting the least dominated vertex outside h until none is left decides
    it, as when g dismantles onto h and w dominates v outside h, so does g - v.
    Induct on the sequence; let its first deletion u != v be dominated by x.
    If x != v, u stays dominated in g - v, and v in g - u (by w, or by x if
    w = u, as N[v] <= N[u] <= N[x]).  If x = v, w dominates u unless w = u,
    and then swapping the twins u, v maps a sequence from g - u to one from
    g - v.  So `budget` cannot bind; stats count the deletions, plus 1 on a NO.
    """
    if not (h.vertices <= g.vertices) or g.induced(h.vertices) != h:
        raise GraphError("target is not a label-exact induced subgraph")
    if not g.vertices:
        raise GraphError("empty graph")
    cert = _greedy_certificate(g, h.vertices)
    if cert.end.vertices != h.vertices:
        return SearchVerdict(Outcome.NO, None, SearchStats(len(cert.moves) + 1, budget))
    return SearchVerdict(Outcome.YES, cert, SearchStats(len(cert.moves), budget))


def greedy_dismantling_certificate(g: Graph) -> MoveCertificate | None:
    """The greedy dismantling of g packaged as a replayable move certificate."""
    if not g.vertices:
        raise GraphError("empty graph")
    cert = _greedy_certificate(g, frozenset())
    return cert if len(cert.end.vertices) == 1 else None


def s_collapse_search(g: Graph, budget: int = DEFAULT_SEARCH_BUDGET) -> SearchVerdict:
    """Can g be reduced to one vertex by s-dismantlable vertex deletions?"""
    return _graph_search(g, None, _s_vertex_candidates, budget)


def ws_reduction_search(g: Graph, target: Graph | None = None,
                        budget: int = DEFAULT_SEARCH_BUDGET) -> SearchVerdict:
    """Like s_collapse_search but also deleting s-dismantlable edges."""
    if target is not None and not (target.vertices <= g.vertices):
        raise GraphError("target vertices are not a subset of the graph")
    return _graph_search(g, target, _ws_candidates, budget)


# ---------------------------------------------------------------------------
# contractibility in the transformation calculus with recursive neighborhoods


class IContractibility:
    """Bounded decision procedure for reducibility to a point by I-deletions:
    removing vertices whose open neighborhoods are recursively reducible.

    A graph whose clique complex has homology is answered "no" at once: I-moves
    keep the homology (Ivashchenko, "Contractible transformations do not
    change the homology groups of graphs", Discrete Math. 126, 1994), so no
    I-move sequence takes it to a point.  Every other question is one
    `_graph_search`, and all the nested neighborhood questions of one `of`
    share one node budget.  A vertex whose neighborhood greedily dismantles is
    deleted with no question asked.  Each question is an induced subgraph of
    the graph `of` was asked, so its vertex set keys its answer for that call.
    Every move deletes a vertex, so a path has at most n - 1 moves;
    MAX_NESTING, the one fixed bound, caps the questions open at once, each
    smaller than its asker.  "unknown" flags a cap binding.

    Ivashchenko's additions (a vertex joined to a reducible attachment) are
    not searched.  On every nonempty graph with at most seven vertices an
    acyclic clique complex already means dismantlable, so deletions decide
    them; on larger graphs the affordable attachments, closed neighborhoods
    and the whole vertex set, only add a twin of a vertex or ask the state's
    own question again.  So running out of deletions is "unknown", never "no".
    """

    MAX_NESTING = 16  # nested questions open at once

    def __init__(self, node_budget: int = 20000):
        self.node_budget = node_budget

    def of(self, g: Graph) -> str:
        # Each greedy step deletes a dominated vertex, which `deletions` offers
        # with no question asked, so a greedy dismantling is a deletion sequence.
        if greedy_dismantling(g) is not None:
            return "yes"
        tally, open_questions = [0], [0]
        memo: dict[frozenset[str], str] = {}  # a question's vertices -> answer

        def question(vs: frozenset[str]) -> str:
            if vs in memo:
                return memo[vs]
            h = g if vs == g.vertices else g.induced(vs)
            if open_questions[0] >= self.MAX_NESTING:
                return "no" if _obstruction(h) else "unknown"
            open_questions[0] += 1  # an exception ends the whole `of` call
            memo[vs] = _deletions_only(
                _graph_search(h, None, deletions, self.node_budget, tally)).outcome.value
            open_questions[0] -= 1
            return memo[vs]

        def deletions(labels, vs: int, nbr: Callable,
                      order: Callable) -> Iterator[GraphMove | None]:
            """The I-deletions of a state in label order; None for each undecided one."""
            for b in _bits(vs):
                nb = nbr(b)
                witness = order(nb)
                if witness is not None:
                    answer = "yes"
                elif nb:  # an I-move: the nested answer is its only witness
                    answer = question(frozenset(_label(labels, c) for c in _bits(nb)))
                else:
                    continue
                if answer == "yes":
                    yield GraphMove(MoveKind.REMOVE_VERTEX, _label(labels, b), witness=witness)
                elif answer == "unknown":
                    yield None

        return question(g.vertices)

    def vertex(self, g: Graph, v: str) -> str:
        """Is v deletable, i.e. is its open neighborhood reducible?"""
        nb = g.open_neighborhood_subgraph(v)
        if not nb.vertices:
            return "no"
        return self.of(nb)


def is_i_contractible(g: Graph, checker: IContractibility | None = None) -> str:
    """Three-valued contractibility verdict: "yes", "no" or "unknown"."""
    return (checker or IContractibility()).of(g)
