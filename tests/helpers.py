"""Independent oracles and instance generators shared across test modules.

Everything here deliberately avoids the library's greedy shortcuts: the
exhaustive procedures below explore every deletion order so they can serve as
ground truth against the production code.
"""

from __future__ import annotations

import itertools
import random

from flagcalc import (
    CheckReport,
    Graph,
    GraphError,
    GraphMove,
    MoveCertificate,
    MoveKind,
    NormalizationError,
    Poset,
    apply_move,
    subset_label,
)
from flagcalc.dismantling import greedy_dismantling
from flagcalc.graphs import sorted_pair
from flagcalc.posets import (
    PosetDismantlingOrder,
    PosetMoveKind,
    PosetStep,
    StepKind,
)
from flagcalc.simplicial import ANTICOLLAPSE, COLLAPSE, apply_pair_unchecked


def exhaustive_graph_dismantlable(g: Graph) -> bool:
    """Ground truth: does ANY dominated-deletion order reach one vertex?"""
    memo: dict[frozenset[str], bool] = {}

    def explore(h: Graph) -> bool:
        if len(h.vertices) == 1:
            return True
        key = h.vertices
        if key in memo:
            return memo[key]
        ok = False
        for v in h.sorted_vertices():
            nv = h.closed_neighborhood(v)
            if any(nv <= h.closed_neighborhood(w) for w in h.neighbors(v)):
                if explore(h.without_vertex(v)):
                    ok = True
                    break
        memo[key] = ok
        return ok

    return explore(g)


def exhaustive_dismantles_onto(g: Graph, h: Graph) -> bool:
    """Ground truth: does ANY order of dominated-vertex deletions outside the
    induced subgraph h take g onto h?  A breadth-first search over the vertex
    sets reached; each deletion removes one vertex, so a level never repeats."""
    level = {g.vertices}
    while level and h.vertices not in level:
        reached = set()
        for vs in level:
            sub = g.induced(vs)
            for v in vs - h.vertices:
                nv = sub.closed_neighborhood(v)
                if any(nv <= sub.closed_neighborhood(w) for w in sub.neighbors(v)):
                    reached.add(vs - {v})
        level = reached
    return bool(level)


def exhaustive_s_collapsible(g: Graph) -> bool:
    """Ground truth: does ANY order of s-dismantlable vertex deletions reach one
    vertex?  A memoized depth-first search over labelled vertex subsets, where
    a vertex is s-dismantlable when exhaustive_graph_dismantlable accepts its
    nonempty open neighbourhood."""
    memo: dict[frozenset[str], bool] = {}
    dismantlable: dict[frozenset[str], bool] = {}

    def removable(nb: frozenset[str]) -> bool:
        if nb not in dismantlable:
            dismantlable[nb] = bool(nb) and exhaustive_graph_dismantlable(g.induced(nb))
        return dismantlable[nb]

    def explore(vs: frozenset[str]) -> bool:
        if len(vs) == 1:
            return True
        if vs not in memo:
            memo[vs] = any(removable(g.neighbors(v) & vs) and explore(vs - {v})
                           for v in sorted(vs))
        return memo[vs]

    return explore(g.vertices)


def _dense_rank(rows: list[list[int]]) -> int:
    """Rank over GF(2) of a 0/1 matrix, by row reduction column by column."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def naive_reduced_betti(g: Graph) -> tuple[int, ...]:
    """Ground truth for the reduced mod-2 Betti numbers of g's clique complex,
    up to the last nonzero one: every vertex subset is tested for being a
    clique, and each boundary map is a dense 0/1 matrix.  Exponential in the
    number of vertices."""
    vs = g.sorted_vertices()
    faces = [[c for c in itertools.combinations(vs, k) if g.is_complete_set(c)]
             for k in range(1, len(vs) + 1)]
    faces = [f for f in faces if f]
    ranks = [1]  # the augmentation sends every vertex to the empty face
    for below, here in zip(faces, faces[1:]):
        column = {c: j for j, c in enumerate(below)}
        matrix = []
        for c in here:
            row = [0] * len(below)
            for i in range(len(c)):
                row[column[c[:i] + c[i + 1:]]] = 1
            matrix.append(row)
        ranks.append(_dense_rank(matrix))
    ranks.append(0)
    betti = [len(f) - ranks[d] - ranks[d + 1] for d, f in enumerate(faces)]
    while betti and not betti[-1]:
        betti.pop()
    return tuple(betti)


def exhaustive_poset_dismantlable(p: Poset) -> bool:
    """Ground truth: does ANY irreducible-removal order reach one element?"""
    memo: dict[frozenset[str], bool] = {}

    def irreducible(q: Poset, x: str) -> bool:
        return q.down_set(x).maximum() is not None or q.up_set(x).minimum() is not None

    def explore(q: Poset) -> bool:
        if len(q.elements) == 1:
            return True
        key = q.elements
        if key in memo:
            return memo[key]
        ok = any(irreducible(q, x) and explore(q.without(x))
                 for x in q.sorted_elements())
        memo[key] = ok
        return ok

    return explore(p)


def random_vertex_move_certificate(rng: random.Random, g: Graph,
                                   length: int) -> MoveCertificate:
    """A random valid certificate of s-vertex additions and removals."""
    moves: list[GraphMove] = []
    cur = g
    counter = itertools.count(1)
    for _ in range(length):
        candidates: list[GraphMove] = []
        for v in cur.sorted_vertices():
            nb = cur.open_neighborhood_subgraph(v)
            if nb.vertices and len(cur.vertices) > 1:
                order = greedy_dismantling(nb)
                if order is not None:
                    candidates.append(GraphMove(MoveKind.REMOVE_VERTEX, v, witness=order))
        verts = cur.sorted_vertices()
        for _ in range(4):
            size = rng.randint(1, min(3, len(verts)))
            att = frozenset(rng.sample(verts, size))
            order = greedy_dismantling(cur.induced(att))
            if order is None:
                continue
            label = f"n{next(counter)}"
            while label in cur.vertices:
                label = f"n{next(counter)}"
            candidates.append(GraphMove(MoveKind.ADD_VERTEX, label,
                                        witness=order, attachment=att))
        if not candidates:
            break
        move = rng.choice(candidates)
        cur = apply_move(cur, move)
        moves.append(move)
    return MoveCertificate(g, tuple(moves), cur)


def random_ws_move_certificate(rng: random.Random, g: Graph,
                               length: int) -> MoveCertificate:
    """A random valid certificate over the full move grammar, additions included."""
    moves: list[GraphMove] = []
    cur = g
    counter = itertools.count(1)
    for _ in range(length):
        candidates: list[GraphMove] = []
        if len(cur.vertices) > 1:
            for v in cur.sorted_vertices():
                nb = cur.open_neighborhood_subgraph(v)
                if nb.vertices:
                    order = greedy_dismantling(nb)
                    if order is not None:
                        candidates.append(GraphMove(MoveKind.REMOVE_VERTEX, v,
                                                    witness=order))
            for a, b in cur.sorted_edges():
                common = cur.neighbors(a) & cur.neighbors(b)
                if common:
                    order = greedy_dismantling(cur.induced(common))
                    if order is not None:
                        candidates.append(GraphMove(MoveKind.REMOVE_EDGE,
                                                    frozenset((a, b)), witness=order))
        verts = cur.sorted_vertices()
        for a, b in itertools.combinations(verts, 2):
            if not cur.has_edge(a, b):
                common = cur.neighbors(a) & cur.neighbors(b)
                if common:
                    order = greedy_dismantling(cur.induced(common))
                    if order is not None:
                        candidates.append(GraphMove(MoveKind.ADD_EDGE,
                                                    frozenset((a, b)), witness=order))
        for _ in range(3):
            att = frozenset(rng.sample(verts, rng.randint(1, min(3, len(verts)))))
            order = greedy_dismantling(cur.induced(att))
            if order is None:
                continue
            label = f"a{next(counter)}"
            while label in cur.vertices:
                label = f"a{next(counter)}"
            candidates.append(GraphMove(MoveKind.ADD_VERTEX, label,
                                        witness=order, attachment=att))
        if not candidates:
            break
        move = rng.choice(candidates)
        cur = apply_move(cur, move)
        moves.append(move)
    return MoveCertificate(g, tuple(moves), cur)


def random_label_reusing_certificate(rng: random.Random, g: Graph,
                                     length: int) -> MoveCertificate:
    """A random valid vertex-move certificate whose additions often take a label
    that an earlier removal freed, which random_vertex_move_certificate never does."""
    moves: list[GraphMove] = []
    cur, freed = g, []
    for i in range(length):
        verts = cur.sorted_vertices()
        removals = []
        for v in verts if len(verts) > 1 else ():
            nb = cur.open_neighborhood_subgraph(v)
            order = greedy_dismantling(nb) if nb.vertices else None
            if order is not None:
                removals.append(GraphMove(MoveKind.REMOVE_VERTEX, v, witness=order))
        att = frozenset(rng.sample(verts, rng.randint(1, min(3, len(verts)))))
        order = greedy_dismantling(cur.induced(att))
        if removals and (order is None or rng.random() < 0.5):
            move = rng.choice(removals)
            freed.append(move.target)
        elif order is not None:
            spare = sorted(set(freed) - cur.vertices)
            label = rng.choice(spare) if spare and rng.random() < 0.7 else f"n{i}"
            move = GraphMove(MoveKind.ADD_VERTEX, label, witness=order, attachment=att)
        else:
            break
        cur = apply_move(cur, move)
        moves.append(move)
    return MoveCertificate(g, tuple(moves), cur)


def swap_additions_first(moves) -> list[GraphMove]:
    """Additions before removals by swapping adjacent (removal, addition) pairs
    until none is left: normalize_certificate's reordering as first written,
    the reference for the one-pass partition."""
    for m in moves:
        if m.kind not in (MoveKind.REMOVE_VERTEX, MoveKind.ADD_VERTEX):
            raise NormalizationError(
                "edge moves present; rewrite them as vertex moves first")
    moves = list(moves)
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
    return moves


def brute_force_chains(simplices: list[frozenset[str]]) -> set[frozenset[frozenset[str]]]:
    """All nonempty families of simplices totally ordered by inclusion."""
    out = set()
    for r in range(1, len(simplices) + 1):
        for combo in itertools.combinations(simplices, r):
            if all(a < b or b < a for a, b in itertools.combinations(combo, 2)):
                out.add(frozenset(combo))
    return out


def pairwise_inclusion_pairs(family) -> set[tuple[str, str]]:
    """(subset label, superset label) for every strict inclusion, testing all pairs."""
    return {(subset_label(a), subset_label(b)) for a in family for b in family if a < b}


def pairwise_chains(elements, less) -> set[frozenset]:
    """Every nonempty chain of a strict order, grown by testing every element."""
    out: set[frozenset] = set()

    def grow(chain: list) -> None:
        out.add(frozenset(chain))
        for y in elements:
            if less(chain[-1], y):
                grow(chain + [y])

    for x in elements:
        grow([x])
    return out


def pairwise_maximal(family) -> set[frozenset[str]]:
    """Members of the family contained in no other member."""
    return {s for s in family if not any(s < t for t in family)}


def pairwise_covers(p: Poset) -> list[tuple[str, str]]:
    """Hasse covers: pairs x < y with no element strictly between, testing every z."""
    return sorted((x, y) for x, y in p.relation
                  if not any(p.less(x, z) and p.less(z, y) for z in p.elements))


def random_copwin_graph(rng: random.Random, n: int, keep: float = 0.6) -> Graph:
    """Each new vertex joins a random part of an earlier vertex w's closed
    neighborhood that always contains w, so it is dominated by w."""
    adj: dict[str, set[str]] = {"v0": set()}
    for i in range(1, n):
        w = rng.choice(sorted(adj))
        nbrs = {w} | {u for u in sorted(adj[w]) if rng.random() < keep}
        v = f"v{i}"
        adj[v] = set(nbrs)
        for u in nbrs:
            adj[u].add(v)
    return Graph.make(adj, ((u, v) for u in adj for v in adj[u] if u < v))


def mixed_width_relabel(g: Graph, rng: random.Random, numbers) -> Graph:
    """g with its vertices renamed v<k>, each k drawn from `numbers` without
    repeats; with numbers of several widths, string order (v10 < v2) is not
    numeric order."""
    drawn = rng.sample(numbers, len(g.vertices))
    names = dict(zip(g.sorted_vertices(), (f"v{k}" for k in drawn)))
    return Graph.make(names.values(), ((names[a], names[b]) for a, b in g.sorted_edges()))


# ---------------------------------------------------------------------------
# greedy dismantling on a plain dict of sets, rescanning after every deletion


def plain_adjacency(g: Graph) -> dict[str, set[str]]:
    """g's adjacency rebuilt from its vertex and edge sets alone."""
    adj: dict[str, set[str]] = {v: set() for v in g.vertices}
    for a, b in (tuple(e) for e in g.edges):
        adj[a].add(b)
        adj[b].add(a)
    return adj


def plain_dominators(adj: dict[str, set[str]], v: str) -> list[str]:
    """Every w != v with N[v] contained in N[w], in label order; each is a neighbour."""
    return [w for w in sorted(adj[v]) if adj[v] | {v} <= adj[w] | {w}]


def plain_greedy(adj: dict[str, set[str]]) -> tuple[dict[str, set[str]], list[tuple[str, str]]]:
    """Delete the least-labelled dominated vertex against its least-labelled
    dominator until none is left: (the residue, the steps).  adj is not changed."""
    adj = {v: set(nb) for v, nb in adj.items()}
    steps = []
    while True:
        step = next(((v, ws[0]) for v in sorted(adj) if (ws := plain_dominators(adj, v))), None)
        if step is None:
            return adj, steps
        steps.append(step)
        for u in adj.pop(step[0]):
            adj[u].discard(step[0])


def plain_induced(adj: dict[str, set[str]], sub) -> dict[str, set[str]]:
    return {v: adj[v] & set(sub) for v in sub}


def plain_s_vertices(adj: dict[str, set[str]]) -> list[str]:
    """The vertices whose nonempty open neighbourhood greedily dismantles."""
    return [v for v in sorted(adj)
            if adj[v] and len(plain_greedy(plain_induced(adj, adj[v]))[0]) == 1]


def plain_s_edges(adj: dict[str, set[str]]) -> list[frozenset[str]]:
    """The edges whose nonempty common neighbourhood greedily dismantles, in label order."""
    return [frozenset((a, b)) for a in sorted(adj) for b in sorted(adj[a]) if a < b
            and (common := adj[a] & adj[b])
            and len(plain_greedy(plain_induced(adj, common))[0]) == 1]


# ---------------------------------------------------------------------------
# canonical labeling over the full individualisation-refinement tree, as it was
# before the library pruned the tree with the automorphisms it finds.


def _naive_refine(adj, colors):
    while True:
        sigs = {v: (colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in adj}
        ranks = {s: i for i, s in enumerate(sorted(set(sigs.values())))}
        new = {v: ranks[sigs[v]] for v in adj}
        if new == colors:
            return colors
        colors = new


def _naive_canonical(adj, colors):
    colors = _naive_refine(adj, colors)
    cells: dict[int, list[str]] = {}
    for v, c in colors.items():
        cells.setdefault(c, []).append(v)
    split = next((c for c in sorted(cells) if len(cells[c]) > 1), None)
    if split is None:
        enc = tuple(sorted((colors[v], colors[u])
                           for v in adj for u in adj[v] if colors[v] < colors[u]))
        return (len(adj), enc), colors
    best_enc, best_perm = None, None
    for v in sorted(cells[split]):
        boosted = {u: (colors[u], 1 if u == v else 0) for u in adj}
        ranks = {s: i for i, s in enumerate(sorted(set(boosted.values())))}
        enc, perm = _naive_canonical(adj, {u: ranks[boosted[u]] for u in adj})
        if best_enc is None or enc < best_enc:
            best_enc, best_perm = enc, perm
    return best_enc, best_perm


def naive_canonical_full(g: Graph) -> tuple[tuple, tuple[tuple[str, int], ...]]:
    """(encoding, perm) from every branch of the tree: the first leaf in
    depth-first order reaching the least encoding."""
    if not g.vertices:
        return (0, ()), ()
    enc, perm = _naive_canonical(g.adjacency, {v: 0 for v in g.vertices})
    return enc, tuple(sorted(perm.items()))

# ---------------------------------------------------------------------------
# immutable replays: every step builds a new Graph, SimplicialComplex or Poset.
# These are the checkers and greedy cores as they were before the library
# moved to in-place working states; the differential tests compare with them.


def _naive_replay(start, moves, error, apply):
    cur = start
    for i, m in enumerate(moves):
        err = error(cur, m)
        if err:
            return cur, CheckReport(False, i, err)
        cur = apply(cur, m)
    return cur, CheckReport(True)


def _naive_check(cert, error, apply, kind: str) -> CheckReport:
    end, report = _naive_replay(cert.start, cert.moves, error, apply)
    if not report:
        return report
    if end != cert.end:
        return CheckReport(False, len(cert.moves), f"end {kind} mismatch")
    return CheckReport(True)


def _naive_domination_step_error(g: Graph, step) -> str | None:
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


def naive_dismantling_order_error(g: Graph, order) -> str | None:
    cur, report = _naive_replay(g, order.steps, _naive_domination_step_error,
                                lambda h, step: h.without_vertex(step[0]))
    if not report:
        return f"step {report.failed_at}: {report.reason}"
    if len(cur.vertices) != 1:
        return f"{len(cur.vertices)} vertices remain after replay"
    return None


def _naive_local_graph(g: Graph, m: GraphMove) -> Graph:
    if m.kind is MoveKind.REMOVE_VERTEX:
        return g.open_neighborhood_subgraph(m.target)
    if m.kind is MoveKind.ADD_VERTEX:
        return g.induced(m.attachment or ())
    a, b = sorted_pair(m.target)
    return g.induced(g.neighbors(a) & g.neighbors(b))


def naive_move_error(g: Graph, m: GraphMove) -> str | None:
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
            ends = sorted(m.target)
            if len(ends) != 2 or ends[0] == ends[1]:
                return f"{m.kind.value} needs two distinct endpoints, not {ends}"
            a, b = ends
            if a not in g.vertices or b not in g.vertices:
                return f"edge endpoint of {a!r}-{b!r} not present"
            if m.kind is MoveKind.REMOVE_EDGE and not g.has_edge(a, b):
                return f"edge {a!r}-{b!r} not present"
            if m.kind is MoveKind.ADD_EDGE and g.has_edge(a, b):
                return f"edge {a!r}-{b!r} already present"
        local = _naive_local_graph(g, m)
    except GraphError as exc:
        return str(exc)
    if not local.vertices:
        return f"{m.describe()}: witness neighborhood is empty"
    err = naive_dismantling_order_error(local, m.witness)
    if err:
        return f"{m.describe()}: witness invalid ({err})"
    return None


def apply_move_unchecked(g: Graph, m: GraphMove) -> Graph:
    """The immutable replay step that tests compare the working-state kernel against."""
    if m.kind is MoveKind.REMOVE_VERTEX:
        return g.without_vertex(m.target)
    if m.kind is MoveKind.ADD_VERTEX:
        return g.with_vertex(m.target, m.attachment or ())
    a, b = sorted_pair(m.target)
    if m.kind is MoveKind.REMOVE_EDGE:
        return g.without_edge(a, b)
    return g.with_edge(a, b)


def naive_check_certificate(c: MoveCertificate) -> CheckReport:
    return _naive_check(c, naive_move_error, apply_move_unchecked, "graph")


def naive_collapse_pair_error(k, pair) -> str | None:
    if pair.sigma not in k.simplices:
        return f"{subset_label(pair.sigma)} not in the complex"
    if pair.tau not in k.simplices:
        return f"{subset_label(pair.tau)} not in the complex"
    if not (pair.tau < pair.sigma and len(pair.sigma) == len(pair.tau) + 1):
        return (f"{subset_label(pair.tau)} is not a proper maximal face of "
                f"{subset_label(pair.sigma)}")
    for t in k.simplices:
        if t != pair.sigma and pair.tau < t:
            return f"{subset_label(pair.tau)} is also a face of {subset_label(t)}"
    return None


def _naive_anticollapse_error(k, pair) -> str | None:
    if pair.sigma in k.simplices or pair.tau in k.simplices:
        return "pair members already present"
    if not (pair.tau < pair.sigma and len(pair.sigma) == len(pair.tau) + 1):
        return "pair is not a facet pair"
    missing = [f for f in (pair.sigma - {v} for v in pair.sigma)
               if f != pair.tau and f and f not in k.simplices]
    if missing:
        return f"facet {subset_label(min(missing, key=sorted))} missing"
    for t in k.simplices:
        if pair.tau < t:
            return f"{subset_label(pair.tau)} would not be free ({subset_label(t)} present)"
    return None


def _naive_pair_move_error(k, move) -> str | None:
    op, pair = move
    if op == COLLAPSE:
        return naive_collapse_pair_error(k, pair)
    if op == ANTICOLLAPSE:
        return _naive_anticollapse_error(k, pair)
    return f"unknown operation {op!r}"


def naive_check_complex_certificate(c) -> CheckReport:
    return _naive_check(c, _naive_pair_move_error,
                        lambda k, move: apply_pair_unchecked(k, *move), "complex")


def _naive_irreducible_step_error(p: Poset, step: PosetStep) -> str | None:
    if step.removed not in p.elements:
        return f"{step.removed!r} not present"
    if step.pivot not in p.elements:
        return f"pivot {step.pivot!r} not present"
    if step.kind is StepKind.MAX_BELOW:
        if p.down_set(step.removed).maximum() != step.pivot:
            return f"{step.pivot!r} is not the maximum below {step.removed!r}"
    elif p.up_set(step.removed).minimum() != step.pivot:
        return f"{step.pivot!r} is not the minimum above {step.removed!r}"
    return None


def naive_poset_order_error(p: Poset, order) -> str | None:
    cur, report = _naive_replay(p, order.steps, _naive_irreducible_step_error,
                                lambda q, step: q.without(step.removed))
    if not report:
        return f"step {report.failed_at}: {report.reason}"
    if len(cur.elements) != 1:
        return f"{len(cur.elements)} elements remain after replay"
    return None


def _naive_poset_move_error(p: Poset, m) -> str | None:
    if m.kind is PosetMoveKind.REMOVE:
        if m.element not in p.elements:
            return f"element {m.element!r} not present"
        local = p.down_set(m.element) if m.witness_side == "below" else p.up_set(m.element)
    else:
        if m.element in p.elements:
            return f"element {m.element!r} already present"
        for u in sorted(m.lower | m.upper):
            if u not in p.elements:
                return f"relation endpoint {u!r} not present"
        for l in sorted(m.lower):
            if not p.below(l) <= m.lower:
                return f"lower set not downward closed at {l!r}"
        for u in sorted(m.upper):
            if not p.above(u) <= m.upper:
                return f"upper set not upward closed at {u!r}"
        for l in sorted(m.lower):
            for u in sorted(m.upper):
                if not p.less(l, u):
                    return f"{l!r} < {u!r} would be forced between old elements"
        local = p.induced(m.lower) if m.witness_side == "below" else p.induced(m.upper)
    if m.witness_side not in ("below", "above"):
        return f"unknown witness side {m.witness_side!r}"
    if not local.elements:
        return f"{m.element!r}: witness sub-poset is empty"
    err = naive_poset_order_error(local, m.witness)
    if err:
        return f"{m.element!r}: witness invalid ({err})"
    return None


def apply_poset_move_unchecked(p: Poset, m) -> Poset:
    """The immutable poset replay step, from the relation alone."""
    if m.kind is PosetMoveKind.REMOVE:
        return p.without(m.element)
    rel = set(p.relation)
    rel.update((l, m.element) for l in m.lower)
    rel.update((m.element, u) for u in m.upper)
    rel.update((l, u) for l in m.lower for u in m.upper)
    return Poset(p.elements | {m.element}, frozenset(rel))


def naive_check_poset_certificate(c) -> CheckReport:
    return _naive_check(c, _naive_poset_move_error, apply_poset_move_unchecked, "poset")


def naive_dismantling_core(g: Graph) -> tuple[Graph, tuple]:
    """Rescan every vertex after each deletion: least dominated vertex, least dominator."""
    steps = []
    while True:
        step = next(((v, w) for v in g.sorted_vertices() for w in sorted(g.neighbors(v))
                     if g.closed_neighborhood(v) <= g.closed_neighborhood(w)), None)
        if step is None:
            return g, tuple(steps)
        steps.append(step)
        g = g.without_vertex(step[0])


def _naive_irreducible_step(p: Poset, x: str) -> PosetStep | None:
    m = p.down_set(x).maximum()
    if m is not None:
        return PosetStep(x, StepKind.MAX_BELOW, m)
    m = p.up_set(x).minimum()
    if m is not None:
        return PosetStep(x, StepKind.MIN_ABOVE, m)
    return None


def naive_poset_dismantling_core(p: Poset) -> tuple[Poset, PosetDismantlingOrder]:
    """Rescan every element after each deletion, least irreducible point first."""
    steps = []
    while True:
        step = next((s for x in p.sorted_elements() if (s := _naive_irreducible_step(p, x))),
                    None)
        if step is None:
            return p, PosetDismantlingOrder(tuple(steps))
        steps.append(step)
        p = p.without(step.removed)
