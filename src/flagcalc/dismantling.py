"""Domination-based graph reductions and machine-checkable move certificates.

A vertex is dominated when another vertex's closed neighborhood covers its
own; deleting dominated vertices is the elementary step of dismantling.  A
vertex whose *open* neighborhood induces a dismantlable graph can be removed
as an s-move, an edge whose endpoints share a nonempty dismantlable common
neighborhood as a ws-move.  Certificates record every move together with the
dismantling order witnessing it, so any claimed reduction can be replayed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import Callable, Generator, Iterable, Iterator, Optional

from .graphs import (
    Graph,
    GraphError,
    IsoWitness,
    _order_graph,
    canonical_form,
    clique_masks,
    complete_subgraphs,
    fresh_labels,
    inclusion_order,
    reduced_betti,
    sorted_pair,
)

DEFAULT_SEARCH_BUDGET = 100_000


class CertificateError(ValueError):
    """A move or witness failed validation against its local graph."""


class NormalizationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the working state: a private adjacency dict of sets, updated in place


def _working(g: Graph) -> dict[str, set[str]]:
    """A mutable copy of g's adjacency for replays and greedy loops to update."""
    return {v: set(nb) for v, nb in g.adjacency.items()}


def _graph_of(adj: dict[str, set[str]]) -> Graph:
    return Graph(frozenset(adj), frozenset(frozenset((u, v)) for u, nb in adj.items()
                                           for v in nb if u < v))


def _induced(adj, subset) -> dict[str, set[str]]:
    """A working state for the subgraph that `subset` induces in adj."""
    sub = set(subset)
    return {u: sub & adj[u] for u in sub}


def _delete(adj: dict[str, set[str]], v: str) -> dict[str, set[str]]:
    for u in adj.pop(v):
        adj[u].discard(v)
    return adj


def _dominates(adj, v: str, w: str) -> bool:
    """N[v] contained in N[w], for v != w: w is the one neighbor of v outside N(w)."""
    return adj[v] - adj[w] == {w}


def _dominators(adj, v: str) -> Iterator[str]:
    """Each w dominating v, in label order; a dominator is always a neighbor."""
    return (w for w in sorted(adj[v]) if _dominates(adj, v, w))


# ---------------------------------------------------------------------------
# dismantling orders


@dataclass(frozen=True)
class DismantlingOrder:
    """Ordered (removed, dominator) pairs replayed against a parent graph."""

    steps: tuple[tuple[str, str], ...]


def _remove_dominated(adj: dict[str, set[str]], step: tuple[str, str]) -> dict[str, set[str]]:
    return _delete(adj, step[0])


def _order_error(adj: dict[str, set[str]], local: Iterable[str],
                 order: DismantlingOrder) -> str | None:
    """Why `order` does not dismantle the subgraph that `local` induces in adj.

    The subgraph is never copied: `alive` holds its vertices not yet removed,
    and in it w dominates v exactly when (N(v) & alive) - N(w) is {w}.
    """
    alive = set(local)
    for i, (v, w) in enumerate(order.steps):
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
    adj = g.adjacency
    return [(v, w) for v in g.sorted_vertices() for w in _dominators(adj, v)]


def _dominated_step(adj, v: str) -> tuple[str, str] | None:
    w = next(_dominators(adj, v), None)
    return None if w is None else (v, w)


def greedy_core(state, elements: Iterable, step_of: Callable, remove: Callable,
                touched: Callable) -> tuple[object, tuple]:
    """Remove the least element that has a step until none has: (residue, steps).

    `remove` updates the state in place.  A removal can change the step of
    only the elements `touched(state, step)` names before it, so only those
    are examined again; every other element keeps the step found earlier.
    """
    found = {x: s for x in elements if (s := step_of(state, x)) is not None}
    steps = []
    while found:
        step = found.pop(min(found))
        steps.append(step)
        again = touched(state, step)
        state = remove(state, step)
        for y in again:
            s = step_of(state, y)
            if s is None:
                found.pop(y, None)
            else:
                found[y] = s
    return state, tuple(steps)


def _greedy_graph_core(adj: dict[str, set[str]]) -> tuple[dict[str, set[str]], tuple]:
    # Deleting v changes N[x] only for neighbors x of v, and no other vertex
    # has v in its closed neighborhood, so only N(v) can gain or lose a dominator.
    return greedy_core(adj, list(adj), _dominated_step, _remove_dominated,
                       lambda a, step: a[step[0]])


def dismantling_core(g: Graph) -> tuple[Graph, DismantlingOrder]:
    """Greedily delete dominated vertices until none remains."""
    if not g.vertices:
        raise GraphError("empty graph has no dismantling core")
    core, steps = _greedy_graph_core(_working(g))
    return _graph_of(core), DismantlingOrder(steps)


def greedy_dismantling(g: Graph) -> DismantlingOrder | None:
    """Full greedy order down to a single vertex, or None if stuck earlier.

    Greedy deletion is complete here: removing a dominated vertex leaves a
    retract, so it never destroys dismantlability.
    """
    return _greedy_order(_working(g))


def _greedy_order(adj: dict[str, set[str]]) -> DismantlingOrder | None:
    """greedy_dismantling of a working state, which it consumes."""
    core, steps = _greedy_graph_core(adj)
    return DismantlingOrder(steps) if len(core) == 1 else None


def _obstruction(g: Graph) -> tuple[int, ...]:
    """reduced_betti of the clique complex of a nonempty graph; () when acyclic.

    Found on the greedy dismantling core: deleting a dominated vertex is a
    strong collapse (Barmak and Minian, "Strong homotopy types, nerves and
    collapses", DCG 47, 2012), which keeps the homotopy type, so the cliques
    of a dismantlable graph are never listed.
    """
    core, _ = _greedy_graph_core(_working(g))
    return reduced_betti(clique_masks(core))


def is_dismantlable(g: Graph) -> bool:
    if not g.vertices:
        raise GraphError("dismantlability is defined for nonempty graphs only")
    return greedy_dismantling(g) is not None


def _s_witness(adj, local) -> DismantlingOrder | None:
    """The greedy order of the subgraph a nonempty `local` induces in adj, or None."""
    return _greedy_order(_induced(adj, local)) if local else None


def is_s_dismantlable_vertex(g: Graph, v: str) -> bool:
    return _s_witness(g.adjacency, g.neighbors(v)) is not None


def s_dismantlable_vertices(g: Graph) -> list[str]:
    return [m.target for m in _s_vertex_candidates(g.adjacency, partial(_s_witness, g.adjacency))]


def is_s_dismantlable_edge(g: Graph, e: Iterable[str]) -> bool:
    a, b = g._require_edge(e)
    return _s_witness(g.adjacency, g.neighbors(a) & g.neighbors(b)) is not None


def s_dismantlable_edges(g: Graph) -> list[frozenset[str]]:
    return [m.target for m in _s_edge_candidates(g.adjacency, partial(_s_witness, g.adjacency))]


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
        if self.kind in (MoveKind.REMOVE_EDGE, MoveKind.ADD_EDGE):
            a, b = sorted_pair(self.target)
            return f"{self.kind.value} {a} {b}"
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
        # difference() looks each member up in adj; `- adj.keys()` scans all of adj
        missing = set(m.attachment).difference(adj)
        return f"attachment vertices {sorted(missing)} not present" if missing else None
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


def apply_move(g: Graph, m: GraphMove) -> Graph:
    return _graph_of(build(_working(g), (m,), _move_error, _apply_move)[0])


def replay(start, moves: Iterable, error: Callable,
           apply: Callable) -> tuple[object, CheckReport]:
    """Apply the moves in turn, each first vetted by `error(state, move)`.

    `apply(state, move)` may update the state in place; it returns the state
    to go on from.  Returns the state reached and a passing report, or the
    state before the first rejected move and a failed report carrying its
    index and reason.
    """
    cur = start
    for i, m in enumerate(moves):
        err = error(cur, m)
        if err:
            return cur, CheckReport(False, i, err)
        cur = apply(cur, m)
    return cur, CheckReport(True)


def build(state, moves: Iterable, error: Callable, apply: Callable) -> tuple[object, tuple]:
    """Replay moves as a producer makes them: (state reached, the moves).

    The producer may read the working state, which holds every earlier move
    applied by the time the producer is resumed.  So it must compute, before
    it yields a move, anything that reads the state as it was before that
    move: `_edge_deletion_moves` builds the removal's witness before it yields
    the addition, because the addition puts the clone into `adj[renamed]`.
    The first rejected move raises CertificateError with its reason, and the
    producer is not advanced past it.
    """
    made: list = []
    end, report = replay(state, (made.append(m) or m for m in moves), error, apply)
    if not report:
        raise CertificateError(report.reason)
    return end, tuple(made)


def check_replay(cert, work: Callable, error: Callable, apply: Callable,
                 kind: str) -> CheckReport:
    """Replay a certificate's moves on `work(start)` and compare with `work(end)`."""
    end, report = replay(work(cert.start), cert.moves, error, apply)
    if not report:
        return report
    if end != work(cert.end):
        return CheckReport(False, len(cert.moves), f"end {kind} mismatch")
    return CheckReport(True)


def check_certificate(c: MoveCertificate) -> CheckReport:
    """Replay all moves from the start graph, validating every witness."""
    return check_replay(c, _working, _move_error, _apply_move, "graph")


def replay_moves(g: Graph, moves: Iterable[GraphMove]) -> tuple[Graph, CheckReport]:
    """Replay moves from g, validating every witness: the graph reached (before
    the first rejected move, if any) and the report."""
    end, report = replay(_working(g), moves, _move_error, _apply_move)
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
    report = check_certificate(c)
    if not report:
        raise NormalizationError(
            f"certificate invalid at step {report.failed_at}: {report.reason}")
    adds, removals = _additions_first(c.moves)
    out = MoveCertificate(c.start, tuple(adds + removals), c.end)
    report = check_certificate(out)
    if not report:  # pragma: no cover - would indicate a bug above
        raise NormalizationError(
            f"reordered certificate failed at step {report.failed_at}: {report.reason}")
    return out


# ---------------------------------------------------------------------------
# constructive reductions


def realize_edge_deletion(g: Graph, e: Iterable[str]) -> MoveCertificate:
    """Two vertex moves with the same effect as deleting an s-dismantlable edge.

    Adds a clone x of the lesser endpoint attached to that endpoint's closed
    neighborhood minus the other endpoint, then removes the cloned endpoint;
    the end graph is the edge-deleted graph with the endpoint renamed to x.
    """
    a, b = g._require_edge(e)
    adj = _working(g)
    adj, moves = build(adj, _edge_deletion_moves(adj, a, b, ()), _move_error, _apply_move)
    return MoveCertificate(g, moves, _graph_of(adj))


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
    DEFAULT_SEARCH_BUDGET nodes, for a pure removal sequence; a supplied
    witness may also contain additions, which are lifted into g (each new
    vertex additionally attached to v) before the edge-by-edge cascade runs.
    """
    nb = g.open_neighborhood_subgraph(v)
    if not nb.vertices:
        raise GraphError(f"{v!r} is isolated; its neighborhood cannot reduce to a point")

    stats = SearchStats(0, DEFAULT_SEARCH_BUDGET)
    if witness is None:
        verdict = s_collapse_search(nb)
        stats = verdict.stats
        if verdict.outcome is not Outcome.YES:
            return SearchVerdict(Outcome.UNKNOWN, None, stats)
        witness = verdict.certificate
    else:
        if witness.start != nb:
            raise CertificateError("witness does not start at the open neighborhood")
        if len(witness.end.vertices) != 1:
            raise CertificateError("witness does not end at a single vertex")
        rep = check_certificate(witness)
        if not rep:
            raise CertificateError(f"witness invalid at step {rep.failed_at}: {rep.reason}")

    if any(m.kind not in VERTEX_MOVES for m in witness.moves):
        raise CertificateError("neighborhood witness must use vertex moves only")
    adds, removals = _additions_first(witness.moves)
    adj = _working(g)

    def moves() -> Iterator[GraphMove]:
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

    adj, made = build(adj, moves(), _move_error, _apply_move)
    cur = _graph_of(adj)
    if cur != g.without_vertex(v):  # pragma: no cover - construction guarantees this
        raise CertificateError("cascade did not end at the vertex-deleted graph")
    return SearchVerdict(Outcome.YES, MoveCertificate(g, made, cur), stats)


def _map_order(order: DismantlingOrder, mu: dict[str, str]) -> DismantlingOrder:
    return DismantlingOrder(tuple((mu.get(a, a), mu.get(b, b)) for a, b in order.steps))


def rewrite_edge_moves(cert: MoveCertificate) -> tuple[MoveCertificate, IsoWitness]:
    """Replace every edge move in a valid certificate by two vertex moves.

    Deleting an edge clones one endpoint without it; adding an edge clones one
    endpoint with it.  Either way the endpoint is renamed, so the result ends
    at a graph isomorphic to the original end; the witness records the
    relabeling.
    """
    rep = check_certificate(cert)
    if not rep:
        raise CertificateError(f"input invalid at step {rep.failed_at}: {rep.reason}")

    mu: dict[str, str] = {v: v for v in cert.start.vertices}
    used = set(cert.start.vertices)
    adj = _working(cert.start)

    def moves() -> Iterator[GraphMove]:
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

    adj, out = build(adj, moves(), _move_error, _apply_move)
    cur = _graph_of(adj)
    mapping = IsoWitness(tuple(sorted((v, mu[v]) for v in cert.end.vertices)))
    err = mapping.error(cert.end, cur)
    if err:  # pragma: no cover - construction guarantees this
        raise CertificateError(f"relabeling is not an isomorphism: {err}")
    return MoveCertificate(cert.start, out, cur), mapping


def subdivision_certificate(g: Graph) -> MoveCertificate:
    """Vertex moves from g to its barycentric subdivision graph.

    First a hat vertex is added for every complete subgraph, in increasing
    cardinality: the hat of c attaches to the hats of the proper subsets of c,
    to the largest-labeled member of c, and to every later vertex extending c,
    which makes its neighborhood a cone.  Then the original vertices are
    removed in label order; the witness removes hats of subgraphs not holding
    the removed vertex (largest first, each dominated by its extension)
    and finishes on the cone over the removed vertex's singleton hat.  Each
    move is vetted as it is applied to the working state.
    """
    cliques = complete_subgraphs(g)  # by size, then labels
    labels, pairs = inclusion_order(cliques)
    hats = dict(zip(cliques, labels))
    hat_members = dict(zip(labels, cliques))
    below: dict[str, set[str]] = {hat: set() for hat in labels}
    for lo, hi in pairs:
        below[hi].add(lo)
    extenders: dict[frozenset[str], set[str]] = {c: set() for c in cliques}
    for c in cliques:
        if len(c) > 1:  # c extends c - {max(c)} by a later vertex
            extenders[c - {max(c)}].add(max(c))
    adj = _working(g)

    def moves() -> Iterator[GraphMove]:
        for c in cliques:
            peak = max(c)
            attach = below[hats[c]] | extenders[c] | {peak}
            yield GraphMove(MoveKind.ADD_VERTEX, hats[c], witness=cone_order(attach, peak),
                            attachment=frozenset(attach))
        for v in g.sorted_vertices():
            # N(v) now holds the hats attached to v and the neighbors not yet removed.
            shrinking = sorted((u for u in adj[v] if u in hat_members and v not in hat_members[u]),
                               key=lambda u: (-len(hat_members[u]), u))
            steps = [(u, hats[hat_members[u] | {v}]) for u in shrinking]
            apex = hats[frozenset((v,))]
            steps.extend((u, apex) for u in sorted(adj[v] - set(shrinking)) if u != apex)
            yield GraphMove(MoveKind.REMOVE_VERTEX, v, witness=DismantlingOrder(tuple(steps)))

    adj, made = build(adj, moves(), _move_error, _apply_move)
    cur = _graph_of(adj)
    if cur != _order_graph(labels, pairs):  # pragma: no cover - construction guarantees this
        raise CertificateError("subdivision moves did not end at the subdivision graph")
    return MoveCertificate(g, made, cur)


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


def backtrack(start, key: Callable, moves: Callable, apply: Callable, done: Callable,
              feasible: Callable, budget: int, certificate: Callable,
              tally: list[int] | None = None) -> SearchVerdict:
    """Budgeted depth-first search for a move sequence from `start` to a `done` state.

    Children failing `feasible` are skipped.  A state whose `key` is on the
    current path, or was once exhausted, is not expanded again.  `moves` may
    yield None for a move it could not decide, which counts as a budget cut.
    `tally`, a one-item list, holds a node count shared with other searches;
    the budget bounds it, and `stats.nodes` counts this search's part.  YES
    carries `certificate(start, moves, end)`; NO means every feasible path was
    exhausted; UNKNOWN means the budget or an undecided move cut some path off.
    """
    if not feasible(start):
        return SearchVerdict(Outcome.NO, None, SearchStats(0, budget))
    tally = [0] if tally is None else tally
    nodes = 0
    seen: set = set()
    frames: list = []  # [state, key, moves left, cut below, move that led here]

    def enter(state, via) -> Outcome | None:
        """The outcome of a state that is not expanded, or None once it is pushed."""
        nonlocal nodes
        if done(state):
            return Outcome.YES
        k = key(state)
        if k in seen:
            return Outcome.NO
        if tally[0] >= budget:
            return Outcome.UNKNOWN
        tally[0] += 1
        nodes += 1
        seen.add(k)
        frames.append([state, k, iter(moves(state)), False, via])
        return None

    res, end, path = enter(start, None), start, ()
    while frames and res is not Outcome.YES:
        frame = frames[-1]
        frame[3] = frame[3] or res is Outcome.UNKNOWN
        for m in frame[2]:  # the next move, if one is left
            if m is None:
                res = Outcome.UNKNOWN
                break
            child = apply(frame[0], m)
            res = enter(child, m) if feasible(child) else Outcome.NO
            if res is Outcome.YES:
                end, path = child, tuple(f[4] for f in frames[1:]) + (m,)
            break
        else:
            frames.pop()
            if frame[3]:
                seen.discard(frame[1])
            res = Outcome.UNKNOWN if frame[3] else Outcome.NO
    cert = certificate(start, path, end) if res is Outcome.YES else None
    return SearchVerdict(res, cert, SearchStats(nodes, budget))


def _graph_search(start: Graph, target: Graph | None, candidates: Callable,
                  budget: int) -> SearchVerdict:
    """Deletion moves down to one vertex, or exactly onto a labeled target,
    with failed states memoized by the state itself.

    A state is the frozen set of the start's vertices that remain and the
    frozen set of the start's edges deleted among them; its graph is never
    built.  `candidates(adj, order)` yields the moves of a state from its
    adjacency, where `order(nb)` is the greedy dismantling of the subgraph
    that nb induces, or None; greedy orders are cached for the search, keyed
    by those frozen sets.  The state is its own memo key: a key needs only
    that two states sharing it be isomorphic, and on every input measured,
    labeling each state to merge isomorphic ones cost more time than
    exploring them did.

    Without a target, a start whose clique complex has homology answers NO
    at once, with the Betti vector as its obstruction: s-moves and ws-moves
    keep the simple-homotopy type of the clique complex, so such a start
    never reaches one vertex.
    """
    if not start.vertices:
        raise GraphError("empty graph")
    if target is None:
        betti = _obstruction(start)
        if betti:
            return SearchVerdict(Outcome.NO, None, SearchStats(0, budget), betti)
    adj0 = start.adjacency
    begin = (start.vertices, frozenset())
    orders: dict = {}

    def adjacency(state) -> dict[str, frozenset[str]]:
        vs, cut = state
        adj = {u: adj0[u] & vs for u in vs}
        for a, b in cut:
            adj[a], adj[b] = adj[a] - {b}, adj[b] - {a}
        return adj

    def moves(state) -> Iterator[GraphMove]:
        adj, cut = adjacency(state), state[1]

        def order(nb: frozenset[str]) -> DismantlingOrder | None:
            k = (nb, frozenset(e for e in cut if e <= nb) if cut else cut)
            if k not in orders:
                orders[k] = _s_witness(adj, nb)
            return orders[k]
        return candidates(adj, order)

    def apply(state, m: GraphMove):
        vs, cut = state
        if m.kind is MoveKind.REMOVE_EDGE:
            return vs, cut | {m.target}
        return vs - {m.target}, frozenset(e for e in cut if m.target not in e) if cut else cut

    def graph(state) -> Graph:
        vs, cut = state
        return Graph(vs, frozenset(e for e in start.edges if e <= vs) - cut)

    def certificate(_, path, end) -> MoveCertificate:
        return MoveCertificate(start, path, graph(end))

    if target is None:
        return backtrack(begin, lambda s: s, moves, apply, lambda s: len(s[0]) == 1,
                         lambda s: True, budget, certificate)
    return backtrack(begin, lambda s: s, moves, apply,
                     lambda s: s[0] == target.vertices and graph(s) == target,
                     lambda s: target.vertices <= s[0] and target.edges <= start.edges
                     and target.edges.isdisjoint(s[1]),
                     budget, certificate)


def _dominated_candidates(allowed: frozenset[str]):
    def gen(adj, order) -> Iterator[GraphMove]:
        for v in sorted(allowed & adj.keys()):
            step = _dominated_step(adj, v)
            if step:
                yield GraphMove(MoveKind.REMOVE_VERTEX, v, witness=cone_order(adj[v], step[1]))
    return gen


def _s_vertex_candidates(adj, order) -> Iterator[GraphMove]:
    for v in sorted(adj):
        witness = order(adj[v])
        if witness is not None:
            yield GraphMove(MoveKind.REMOVE_VERTEX, v, witness=witness)


def _s_edge_candidates(adj, order) -> Iterator[GraphMove]:
    for a in sorted(adj):
        for b in sorted(w for w in adj[a] if w > a):
            witness = order(adj[a] & adj[b])
            if witness is not None:
                yield GraphMove(MoveKind.REMOVE_EDGE, frozenset((a, b)), witness=witness)


def _ws_candidates(adj, order) -> Iterator[GraphMove]:
    yield from _s_vertex_candidates(adj, order)
    yield from _s_edge_candidates(adj, order)


def dismantles_onto(g: Graph, h: Graph,
                    budget: int = DEFAULT_SEARCH_BUDGET) -> SearchVerdict:
    """Search for dominated-vertex deletions taking g exactly onto h."""
    if not (h.vertices <= g.vertices) or g.induced(h.vertices) != h:
        raise GraphError("target is not a label-exact induced subgraph")
    return _graph_search(g, h, _dominated_candidates(g.vertices - h.vertices), budget)


def greedy_dismantling_certificate(g: Graph) -> MoveCertificate | None:
    """The greedy dismantling of g packaged as a replayable move certificate."""
    order = greedy_dismantling(g)
    if order is None:
        return None
    adj = _working(g)
    adj, moves = build(adj, (GraphMove(MoveKind.REMOVE_VERTEX, v, witness=cone_order(adj[v], w))
                             for v, w in order.steps), _move_error, _apply_move)
    return MoveCertificate(g, moves, _graph_of(adj))


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

    A graph whose clique complex has homology is answered "no" at once, and
    the answer is kept: I-moves keep the homology (Ivashchenko, "Contractible
    transformations do not change the homology groups of graphs", Discrete
    Math. 126, 1994), so no I-move sequence takes it to a point.  Every other
    question is one `backtrack` over graphs keyed by their canonical form, and
    the whole cascade of nested neighborhood questions of one top-level `of`
    shares one node budget.  Every move deletes a vertex, so a path has at
    most n - 1 moves; MAX_NESTING, the one fixed bound, caps the questions
    open at once.  "unknown" flags a cap binding on the way.

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
        self._memo: dict = {}  # canonical form -> answer; "unknown" while open
        self._tally: list[int] | None = None
        self._nesting = 0

    def of(self, g: Graph) -> str:
        if not g.vertices:
            raise GraphError("empty graph")
        if self._tally is not None:
            return self._question(g)
        # An "unknown" depends on the budget left, so it lasts for one top-level call.
        self._tally = [0]
        try:
            return self._question(g)
        finally:
            self._tally = None
            self._memo = {k: a for k, a in self._memo.items() if a != "unknown"}

    def vertex(self, g: Graph, v: str) -> str:
        """Is v deletable, i.e. is its open neighborhood reducible?"""
        nb = g.open_neighborhood_subgraph(v)
        if not nb.vertices:
            return "no"
        return self.of(nb)

    def _question(self, g: Graph) -> str:
        key = canonical_form(g)
        if key in self._memo:
            return self._memo[key]
        if _obstruction(g):
            self._memo[key] = "no"
            return "no"
        if self._nesting >= self.MAX_NESTING:
            return "unknown"
        self._memo[key] = "unknown"  # a question met again inside itself is open
        self._nesting += 1
        try:
            verdict = backtrack(g, canonical_form, self._moves, Graph.without_vertex,
                                lambda s: len(s.vertices) == 1, lambda s: True,
                                self.node_budget, lambda *_: None, self._tally)
        finally:
            self._nesting -= 1
        self._memo[key] = verdict.outcome.value
        return self._memo[key]

    def _moves(self, g: Graph) -> Iterator[str | None]:
        """Deletable vertices of g, dominated ones first; None for each vertex
        left undecided, and a final None for the additions not searched."""
        adj = g.adjacency
        # A dominated vertex's open neighborhood is a cone: deletable, no question asked.
        dominated = {v for v in adj if _dominated_step(adj, v)}
        for v in sorted(adj, key=lambda v: (v not in dominated, v)):
            answer = "yes" if v in dominated else self.vertex(g, v)
            if answer != "no":
                yield v if answer == "yes" else None
        yield None


def is_i_contractible(g: Graph, checker: IContractibility | None = None) -> str:
    """Three-valued contractibility verdict: "yes", "no" or "unknown"."""
    return (checker or IContractibility()).of(g)
