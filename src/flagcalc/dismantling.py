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
import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional

from .graphs import (
    Graph,
    GraphError,
    UnknownEdgeError,
    UnknownVertexError,
    canonical_form,
    fresh_labels,
    sorted_pair,
)

DEFAULT_SEARCH_BUDGET = 100_000


class CertificateError(ValueError):
    """A move or witness failed validation against its local graph."""


class NormalizationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# dismantling orders


@dataclass(frozen=True)
class DismantlingOrder:
    """Ordered (removed, dominator) pairs replayed against a parent graph."""

    steps: tuple[tuple[str, str], ...]


def _domination_step_error(g: Graph, step: tuple[str, str]) -> str | None:
    v, w = step
    if v not in g.vertices:
        return f"removed vertex {v!r} not present"
    if w not in g.vertices:
        return f"dominator {w!r} not present"
    if v == w:
        return f"vertex {v!r} equals its dominator"
    if not g.closed_neighborhood(v) <= g.closed_neighborhood(w):
        return f"{w!r} does not dominate {v!r}"
    return None


def _remove_dominated(g: Graph, step: tuple[str, str]) -> Graph:
    return g.without_vertex(step[0])


def dismantling_order_error(g: Graph, order: DismantlingOrder,
                            require_single: bool = True) -> str | None:
    cur, report = replay(g, order.steps, _domination_step_error, _remove_dominated)
    if not report:
        return f"step {report.failed_at}: {report.reason}"
    if require_single and len(cur.vertices) != 1:
        return f"{len(cur.vertices)} vertices remain after replay"
    return None


def cone_order(g: Graph, apex: str) -> DismantlingOrder:
    """Dismantling order for a graph that is a cone on `apex`."""
    return DismantlingOrder(tuple((v, apex) for v in sorted(g.vertices) if v != apex))


def _dominations(g: Graph, vertices: Iterable[str]) -> Iterator[tuple[str, str]]:
    """Pairs (v, w) with v among `vertices`, v != w and N[v] contained in N[w],
    in the given order of v and label order of w."""
    for v in vertices:
        nv = g.closed_neighborhood(v)
        for w in sorted(g.neighbors(v)):  # a dominator is always a neighbor
            if nv <= g.closed_neighborhood(w):
                yield v, w


def dominated_vertices(g: Graph) -> list[tuple[str, str]]:
    """All pairs (v, w) with v != w and N[v] contained in N[w], sorted."""
    return list(_dominations(g, g.sorted_vertices()))


def _first_dominated(g: Graph) -> tuple[str, str] | None:
    return next(_dominations(g, g.sorted_vertices()), None)


def greedy_core(start, first_step: Callable, remove: Callable) -> tuple[object, tuple]:
    """Remove what `first_step` finds until it finds nothing: (residue, steps)."""
    steps = []
    cur = start
    while (step := first_step(cur)) is not None:
        steps.append(step)
        cur = remove(cur, step)
    return cur, tuple(steps)


def dismantling_core(g: Graph) -> tuple[Graph, DismantlingOrder]:
    """Greedily delete dominated vertices until none remains."""
    if not g.vertices:
        raise GraphError("empty graph has no dismantling core")
    core, steps = greedy_core(g, _first_dominated, _remove_dominated)
    return core, DismantlingOrder(steps)


@lru_cache(maxsize=262144)
def greedy_dismantling(g: Graph) -> DismantlingOrder | None:
    """Full greedy order down to a single vertex, or None if stuck earlier.

    Greedy deletion is complete here: removing a dominated vertex leaves a
    retract, so it never destroys dismantlability.
    """
    if not g.vertices:
        return None
    residual, order = dismantling_core(g)
    if len(residual.vertices) == 1:
        return order
    return None


def is_dismantlable(g: Graph) -> bool:
    if not g.vertices:
        raise GraphError("dismantlability is defined for nonempty graphs only")
    return greedy_dismantling(g) is not None


def is_s_dismantlable_vertex(g: Graph, v: str) -> bool:
    nb = g.open_neighborhood_subgraph(v)
    return bool(nb.vertices) and greedy_dismantling(nb) is not None


def s_dismantlable_vertices(g: Graph) -> list[str]:
    return [v for v in g.sorted_vertices() if is_s_dismantlable_vertex(g, v)]


def is_s_dismantlable_edge(g: Graph, e: Iterable[str]) -> bool:
    a, b = sorted_pair(e)
    if not g.has_edge(a, b):
        raise UnknownEdgeError(f"unknown edge {a!r}-{b!r}")
    common = g.neighbors(a) & g.neighbors(b)
    return bool(common) and greedy_dismantling(g.induced(common)) is not None


def s_dismantlable_edges(g: Graph) -> list[frozenset[str]]:
    return [e for e in map(frozenset, g.sorted_edges()) if is_s_dismantlable_edge(g, e)]


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


def move_local_graph(g: Graph, m: GraphMove) -> Graph:
    """The graph the move's witness has to dismantle."""
    if m.kind is MoveKind.REMOVE_VERTEX:
        return g.open_neighborhood_subgraph(m.target)
    if m.kind is MoveKind.ADD_VERTEX:
        return g.induced(m.attachment or ())
    a, b = sorted_pair(m.target)
    return g.induced(g.neighbors(a) & g.neighbors(b))


def move_error(g: Graph, m: GraphMove) -> str | None:
    try:
        if m.kind is MoveKind.REMOVE_VERTEX:
            if m.target not in g.vertices:
                return f"vertex {m.target!r} not present"
        elif m.kind is MoveKind.ADD_VERTEX:
            if m.target in g.vertices:
                return f"vertex {m.target!r} already present"
            if not m.attachment:
                return "added vertex needs a nonempty attachment"
            missing = set(m.attachment) - set(g.vertices)
            if missing:
                return f"attachment vertices {sorted(missing)} not present"
        else:
            a, b = sorted_pair(m.target)
            if a not in g.vertices or b not in g.vertices:
                return f"edge endpoint of {a!r}-{b!r} not present"
            if m.kind is MoveKind.REMOVE_EDGE and not g.has_edge(a, b):
                return f"edge {a!r}-{b!r} not present"
            if m.kind is MoveKind.ADD_EDGE and g.has_edge(a, b):
                return f"edge {a!r}-{b!r} already present"
        local = move_local_graph(g, m)
    except GraphError as exc:
        return str(exc)
    if not local.vertices:
        return f"{m.describe()}: witness neighborhood is empty"
    err = dismantling_order_error(local, m.witness)
    if err:
        return f"{m.describe()}: witness invalid ({err})"
    return None


def apply_move_unchecked(g: Graph, m: GraphMove) -> Graph:
    if m.kind is MoveKind.REMOVE_VERTEX:
        return g.without_vertex(m.target)
    if m.kind is MoveKind.ADD_VERTEX:
        return g.with_vertex(m.target, m.attachment or ())
    a, b = sorted_pair(m.target)
    if m.kind is MoveKind.REMOVE_EDGE:
        return g.without_edge(a, b)
    return g.with_edge(a, b)


def apply_move(g: Graph, m: GraphMove) -> Graph:
    err = move_error(g, m)
    if err:
        raise CertificateError(err)
    return apply_move_unchecked(g, m)


def replay(start, moves: Iterable, error: Callable,
           apply: Callable) -> tuple[object, CheckReport]:
    """Apply the moves in turn, each first vetted by `error(state, move)`.

    Returns the state reached and a passing report, or the state before the
    first rejected move and a failed report carrying its index and reason.
    """
    cur = start
    for i, m in enumerate(moves):
        err = error(cur, m)
        if err:
            return cur, CheckReport(False, i, err)
        cur = apply(cur, m)
    return cur, CheckReport(True)


def check_replay(cert, error: Callable, apply: Callable, kind: str) -> CheckReport:
    """Replay a certificate's moves from its start and compare with its end."""
    end, report = replay(cert.start, cert.moves, error, apply)
    if not report:
        return report
    if end != cert.end:
        return CheckReport(False, len(cert.moves), f"end {kind} mismatch")
    return CheckReport(True)


def check_certificate(c: MoveCertificate) -> CheckReport:
    """Replay all moves from the start graph, validating every witness."""
    return check_replay(c, move_error, apply_move_unchecked, "graph")


def normalize_certificate(c: MoveCertificate) -> MoveCertificate:
    """Reorder a vertex-move certificate so additions precede removals.

    An adjacent (removal, addition) pair commutes because the added vertex is
    never adjacent to the removed one; repeated swaps push every removal to
    the end without touching witnesses or the end graph.
    """
    report = check_certificate(c)
    if not report:
        raise NormalizationError(
            f"certificate invalid at step {report.failed_at}: {report.reason}")
    for m in c.moves:
        if m.kind not in VERTEX_MOVES:
            raise NormalizationError(
                "edge moves present; rewrite them as vertex moves first")
    moves = list(c.moves)
    changed = True
    while changed:
        changed = False
        for i in range(len(moves) - 1):
            if moves[i].kind is MoveKind.REMOVE_VERTEX and \
                    moves[i + 1].kind is MoveKind.ADD_VERTEX:
                if moves[i].target == moves[i + 1].target:
                    raise NormalizationError(
                        f"addition of {moves[i].target!r} reuses a removed label; "
                        "the swap needs fresh labels")
                moves[i], moves[i + 1] = moves[i + 1], moves[i]
                changed = True
    out = MoveCertificate(c.start, tuple(moves), c.end)
    report = check_certificate(out)
    if not report:  # pragma: no cover - would indicate a bug above
        raise NormalizationError(
            f"reordered certificate failed at step {report.failed_at}: {report.reason}")
    return out


# ---------------------------------------------------------------------------
# constructive reductions


def realize_edge_deletion(g: Graph, e: Iterable[str], renamed: str | None = None,
                          avoid: Iterable[str] = ()) -> MoveCertificate:
    """Two vertex moves with the same effect as deleting an s-dismantlable edge.

    Adds a clone x of one endpoint attached to that endpoint's closed
    neighborhood minus the other endpoint, then removes the cloned endpoint;
    the end graph is the edge-deleted graph with the endpoint renamed to x.
    """
    a, b = sorted_pair(e)
    if not g.has_edge(a, b):
        raise UnknownEdgeError(f"unknown edge {a!r}-{b!r}")
    if renamed is None:
        renamed = a
    if renamed not in (a, b):
        raise GraphError(f"{renamed!r} is not an endpoint of {a!r}-{b!r}")
    other = b if renamed == a else a
    common = g.neighbors(renamed) & g.neighbors(other)
    if not common:
        raise CertificateError(f"edge {a!r}-{b!r} has an empty common neighborhood")
    common_order = greedy_dismantling(g.induced(common))
    if common_order is None:
        raise CertificateError(f"common neighborhood of {a!r}-{b!r} is not dismantlable")

    x = fresh_labels(set(g.vertices) | set(avoid), 1)[0]
    attach = g.closed_neighborhood(renamed) - {other}
    add = GraphMove(MoveKind.ADD_VERTEX, x,
                    witness=cone_order(g.induced(attach), renamed),
                    attachment=frozenset(attach))
    g2 = apply_move(g, add)

    # Witness that `renamed` is removable in g2: vertices outside the other
    # endpoint's closed neighborhood are dominated by x, the rest is the
    # common neighborhood suspended by x and the other endpoint.
    survivor = common_order.steps[-1][1] if common_order.steps else next(iter(common))
    steps = [(y, x) for y in sorted(g.neighbors(renamed) - g.closed_neighborhood(other))]
    steps.extend(common_order.steps)
    steps.append((x, survivor))
    steps.append((other, survivor))
    remove = GraphMove(MoveKind.REMOVE_VERTEX, renamed,
                       witness=DismantlingOrder(tuple(steps)))
    g3 = apply_move(g2, remove)
    return MoveCertificate(g, (add, remove), g3)


def _certificate_removals(c: MoveCertificate) -> list[str]:
    return [m.target for m in c.moves if m.kind is MoveKind.REMOVE_VERTEX]


def realize_s_neighborhood_deletion(g: Graph, v: str,
                                    budget: int = DEFAULT_SEARCH_BUDGET,
                                    witness: MoveCertificate | None = None) -> "SearchVerdict":
    """Certificate from g to g minus v, given that N(v) reduces to a point.

    Without a supplied witness the open neighborhood is searched for a pure
    removal sequence; a supplied witness may also contain additions, which are
    lifted into g (each new vertex additionally attached to v) before the
    edge-by-edge cascade runs.
    """
    if v not in g.vertices:
        raise UnknownVertexError(f"unknown vertex {v!r}")
    nb = g.open_neighborhood_subgraph(v)
    if not nb.vertices:
        raise GraphError(f"{v!r} is isolated; its neighborhood cannot reduce to a point")

    stats = SearchStats(0, budget)
    if witness is None:
        verdict = s_collapse_search(nb, budget)
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

    moves: list[GraphMove] = []
    cur = g
    used = set(g.vertices)

    if any(m.kind not in VERTEX_MOVES for m in witness.moves):
        raise CertificateError("neighborhood witness must use vertex moves only")

    if any(m.kind is MoveKind.ADD_VERTEX for m in witness.moves):
        witness = normalize_certificate(witness)
        rename: dict[str, str] = {}
        adds = [m for m in witness.moves if m.kind is MoveKind.ADD_VERTEX]
        for m in adds:
            label = m.target if m.target not in used else fresh_labels(used, 1)[0]
            rename[m.target] = label
            used.add(label)
            attach = frozenset(rename.get(u, u) for u in m.attachment) | {v}
            move = GraphMove(MoveKind.ADD_VERTEX, label,
                             witness=cone_order(cur.induced(attach), v),
                             attachment=attach)
            cur = apply_move(cur, move)
            moves.append(move)
        removal_seq = [rename.get(u, u) for u in _certificate_removals(witness)]
        tail = [(len(adds) - 1 - i, m) for i, m in enumerate(reversed(adds))]
    else:
        rename = {}
        removal_seq = _certificate_removals(witness)
        tail = []

    # Delete the edges from v to its (expanded) neighborhood in removal order,
    # each deletion renaming the surviving copy of v.
    proxy = v
    for r in removal_seq:
        ec = realize_edge_deletion(cur, frozenset((proxy, r)), renamed=proxy, avoid=used)
        moves.extend(ec.moves)
        cur = ec.end
        proxy = ec.moves[0].target
        used.add(proxy)
    final = GraphMove(MoveKind.REMOVE_VERTEX, proxy, witness=DismantlingOrder(()))
    cur = apply_move(cur, final)
    moves.append(final)

    # Undo the lifted additions, newest first.
    for _, m in tail:
        label = rename.get(m.target, m.target)
        steps = tuple((rename.get(a, a), rename.get(b, b)) for a, b in m.witness.steps)
        move = GraphMove(MoveKind.REMOVE_VERTEX, label, witness=DismantlingOrder(steps))
        cur = apply_move(cur, move)
        moves.append(move)

    expected = g.without_vertex(v)
    if cur != expected:  # pragma: no cover - construction guarantees this
        raise CertificateError("cascade did not end at the vertex-deleted graph")
    return SearchVerdict(Outcome.YES,
                         MoveCertificate(g, tuple(moves), cur), stats)


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
    outcome: Outcome
    certificate: object | None
    stats: SearchStats


def backtrack(start, key: Callable, moves: Callable, apply: Callable, done: Callable,
              feasible: Callable, budget: int, certificate: Callable) -> SearchVerdict:
    """Budgeted depth-first search for a move sequence from `start` to a `done` state.

    Children failing `feasible` are skipped, and a state whose `key` was once
    exhausted is not expanded again.  YES carries `certificate(start, moves,
    end)`; NO means every feasible path was exhausted; UNKNOWN means the node
    budget cut some path off.
    """
    if not feasible(start):
        return SearchVerdict(Outcome.NO, None, SearchStats(0, budget))
    nodes = 0
    failed: set = set()
    path: list = []
    end = start

    def dfs(state) -> Outcome:
        nonlocal nodes, end
        if done(state):
            end = state
            return Outcome.YES
        k = key(state)
        if k in failed:
            return Outcome.NO
        if nodes >= budget:
            return Outcome.UNKNOWN
        nodes += 1
        cut = False
        for m in moves(state):
            child = apply(state, m)
            if not feasible(child):
                continue
            path.append(m)
            res = dfs(child)
            if res is Outcome.YES:
                return res
            path.pop()
            cut = cut or res is Outcome.UNKNOWN
        if cut:
            return Outcome.UNKNOWN
        failed.add(k)
        return Outcome.NO

    outcome = dfs(start)
    cert = certificate(start, tuple(path), end) if outcome is Outcome.YES else None
    return SearchVerdict(outcome, cert, SearchStats(nodes, budget))


def _graph_search(start: Graph, target: Graph | None,
                  candidates: Callable[[Graph], Iterator[GraphMove]],
                  budget: int) -> SearchVerdict:
    """Deletion moves down to one vertex, with failed states memoized up to
    isomorphism, or exactly onto a labeled target, keyed by the graph itself."""
    if not start.vertices:
        raise GraphError("empty graph")
    if target is None:
        return backtrack(start, canonical_form, candidates, apply_move_unchecked,
                         lambda h: len(h.vertices) == 1, lambda h: True,
                         budget, MoveCertificate)
    return backtrack(start, lambda h: h, candidates, apply_move_unchecked,
                     lambda h: h == target,
                     lambda h: target.vertices <= h.vertices and target.edges <= h.edges,
                     budget, MoveCertificate)


def _dominated_candidates(allowed: frozenset[str]):
    def gen(h: Graph) -> Iterator[GraphMove]:
        for v in sorted(allowed & h.vertices):
            for _, w in itertools.islice(_dominations(h, (v,)), 1):
                yield GraphMove(MoveKind.REMOVE_VERTEX, v,
                                witness=cone_order(h.open_neighborhood_subgraph(v), w))
    return gen


def _s_vertex_candidates(h: Graph) -> Iterator[GraphMove]:
    for v in h.sorted_vertices():
        nb = h.open_neighborhood_subgraph(v)
        if not nb.vertices:
            continue
        order = greedy_dismantling(nb)
        if order is not None:
            yield GraphMove(MoveKind.REMOVE_VERTEX, v, witness=order)


def _ws_candidates(h: Graph) -> Iterator[GraphMove]:
    yield from _s_vertex_candidates(h)
    for a, b in h.sorted_edges():
        common = h.neighbors(a) & h.neighbors(b)
        if not common:
            continue
        order = greedy_dismantling(h.induced(common))
        if order is not None:
            yield GraphMove(MoveKind.REMOVE_EDGE, frozenset((a, b)), witness=order)


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
    moves = []
    cur = g
    for v, w in order.steps:
        moves.append(GraphMove(MoveKind.REMOVE_VERTEX, v,
                               witness=cone_order(cur.open_neighborhood_subgraph(v), w)))
        cur = cur.without_vertex(v)
    return MoveCertificate(g, tuple(moves), cur)


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
    """Bounded decision procedure for reducibility to a point under deletions
    and additions of vertices whose neighborhoods are recursively reducible.

    Additions are capped by a vertex-count ceiling, every search path by a
    move-depth cap, and the whole cascade of nested neighborhood questions
    shares one node budget; "no" therefore means exhaustion of the bounded
    move space and "unknown" flags any cap binding on the way.
    """

    def __init__(self, extra_vertices: int = 2, node_budget: int = 20000,
                 max_depth: int = 16, max_nesting: int = 16):
        self.extra_vertices = extra_vertices
        self.node_budget = node_budget
        self.max_depth = max_depth
        self.max_nesting = max_nesting
        self._memo: dict = {}
        self._active: set = set()
        self._nodes = 0
        self._nesting = 0

    def of(self, g: Graph) -> str:
        if not g.vertices:
            raise GraphError("empty graph")
        if self._nesting == 0:
            self._nodes = 0
        return self._question(g)

    def vertex(self, g: Graph, v: str) -> str:
        """Is v deletable, i.e. is its open neighborhood reducible?"""
        nb = g.open_neighborhood_subgraph(v)
        if not nb.vertices:
            return "no"
        return self.of(nb)

    def _question(self, g: Graph) -> str:
        key = canonical_form(g)
        hit = self._memo.get(key)
        ceiling = len(g.vertices) + self.extra_vertices
        if hit is not None:
            verdict, proven_ceiling = hit
            if verdict == "yes" or ceiling <= proven_ceiling:
                return verdict
        if key in self._active or self._nesting >= self.max_nesting:
            return "unknown"  # self-referential or too deeply nested question
        self._active.add(key)
        self._nesting += 1
        try:
            res = self._search(g, ceiling, 0, set())
        finally:
            self._active.discard(key)
            self._nesting -= 1
        if res == "yes":
            self._memo[key] = ("yes", ceiling)
        elif res == "no":
            self._memo[key] = ("no", ceiling)
        return res

    def _attachments(self, g: Graph) -> list[frozenset[str]]:
        verts = g.sorted_vertices()
        if 2 ** len(verts) <= 64:
            return [frozenset(c) for r in range(1, len(verts) + 1)
                    for c in itertools.combinations(verts, r)]
        return sorted({g.closed_neighborhood(v) for v in verts} | {g.vertices},
                      key=lambda s: tuple(sorted(s)))

    def _deletions(self, g: Graph) -> list[str]:
        # dominated vertices first: their removal preserves reachability, so
        # provable instances resolve without touching the addition moves
        verts = g.sorted_vertices()
        dominated = list(dict.fromkeys(v for v, _ in _dominations(g, verts)))
        return dominated + [v for v in verts if v not in dominated]

    def _search(self, g: Graph, ceiling: int, depth: int, path: set) -> str:
        if len(g.vertices) == 1:
            return "yes"
        key = canonical_form(g)
        if key in path:
            return "cycle"
        if self._nodes >= self.node_budget or depth >= self.max_depth:
            return "unknown"
        self._nodes += 1
        path.add(key)
        tainted = False
        try:
            for v in self._deletions(g):
                sub = self.vertex(g, v)
                if sub == "yes":
                    res = self._search(g.without_vertex(v), ceiling, depth + 1, path)
                    if res == "yes":
                        return "yes"
                    if res in ("unknown", "cycle"):
                        tainted = True
                elif sub == "unknown":
                    tainted = True
            if len(g.vertices) < ceiling:
                for att in self._attachments(g):
                    if self.of(g.induced(att)) != "yes":
                        continue
                    x = fresh_labels(g.vertices, 1, stem="_i")[0]
                    res = self._search(g.with_vertex(x, att), ceiling, depth + 1, path)
                    if res == "yes":
                        return "yes"
                    if res in ("unknown", "cycle"):
                        tainted = True
            else:
                tainted = True
        finally:
            path.discard(key)
        return "unknown" if tainted else "no"


def is_i_contractible(g: Graph, checker: IContractibility | None = None) -> str:
    """Three-valued contractibility verdict: "yes", "no" or "unknown"."""
    return (checker or IContractibility()).of(g)


def is_i_dismantlable_vertex(g: Graph, v: str,
                             checker: IContractibility | None = None) -> str:
    return (checker or IContractibility()).vertex(g, v)
