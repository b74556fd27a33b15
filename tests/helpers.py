"""Independent oracles and instance generators shared across test modules.

Everything here deliberately avoids the library's greedy shortcuts: the
exhaustive procedures below explore every deletion order so they can serve as
ground truth against the production code.
"""

from __future__ import annotations

import itertools
import random

from flagcalc import (
    Graph,
    GraphMove,
    MoveCertificate,
    MoveKind,
    Poset,
    apply_move,
    subset_label,
)
from flagcalc.dismantling import greedy_dismantling


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
