"""Finite abstract simplicial complexes and elementary collapse machinery.

Complexes store the full downward-closed simplex set so that coface queries
and free-pair detection stay cheap at the scale this library targets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable

from .graphs import (
    Graph,
    GraphError,
    _order_graph,
    _size_then_labels,
    complete_subgraphs,
    inclusion_order,
    reduced_betti,
    subset_label,
)
from .dismantling import (
    CheckReport,
    CertificateError,
    DEFAULT_SEARCH_BUDGET,
    DismantlingOrder,
    GraphMove,
    MoveKind,
    Outcome,
    Rules,
    SearchStats,
    SearchVerdict,
    _s_witness,
    backtrack,
    cone_order,
    greedy_dismantling,
)


class ComplexError(ValueError):
    """Structurally invalid complex data or an unknown simplex."""


def _unclosed(family: Collection[frozenset[str]]) -> frozenset[str] | None:
    """The least member (by size, then labels) missing one of its facets, or
    None when the family is downward closed."""
    bad = [s for s in family if len(s) > 1 and any(s - {v} not in family for v in s)]
    return min(bad, key=_size_then_labels) if bad else None


@dataclass(frozen=True)
class SimplicialComplex:
    """A family of nonempty simplices closed under deletion.  The constructor
    refuses any other family; `_closed` skips the check for the builders whose
    output is closed by construction."""

    simplices: frozenset[frozenset[str]]

    def __post_init__(self) -> None:
        if frozenset() in self.simplices:
            raise ComplexError("empty member set")
        bad = _unclosed(self.simplices)
        if bad is not None:
            raise ComplexError(f"family not closed under deletion at {subset_label(bad)}")

    @staticmethod
    def _closed(simplices: frozenset[frozenset[str]]) -> "SimplicialComplex":
        k = object.__new__(SimplicialComplex)
        object.__setattr__(k, "simplices", simplices)
        return k

    @staticmethod
    def from_simplices(simplices: Iterable[Iterable[str]]) -> "SimplicialComplex":
        return SimplicialComplex(frozenset(frozenset(s) for s in simplices))

    @staticmethod
    def from_maximal(simplices: Iterable[Iterable[str]]) -> "SimplicialComplex":
        """Downward closure of the given simplices."""
        sims: set[frozenset[str]] = set()
        for s in simplices:
            top = frozenset(s)
            if not top:
                raise ComplexError("empty member set")
            members = sorted(top)
            for k in range(1, len(members) + 1):
                sims.update(frozenset(c) for c in itertools.combinations(members, k))
        return SimplicialComplex._closed(frozenset(sims))

    @cached_property
    def vertex_set(self) -> frozenset[str]:
        out: set[str] = set()
        for s in self.simplices:
            out.update(s)
        return frozenset(out)

    @cached_property
    def _face_order(self) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
        """`inclusion_order` of the simplices, as tuples."""
        labels, pairs = inclusion_order(self.simplices)
        return tuple(labels), tuple(pairs)

    def __contains__(self, simplex: Iterable[str]) -> bool:
        return frozenset(simplex) in self.simplices

    def sorted_simplices(self) -> list[frozenset[str]]:
        return sorted(self.simplices, key=_size_then_labels)

    def maximal_simplices(self) -> list[frozenset[str]]:
        out = [s for s, n in _coface_counts(self).items() if n == 0]
        return sorted(out, key=_size_then_labels)

    def dimension(self) -> int:
        if not self.simplices:
            return -1
        return max(len(s) for s in self.simplices) - 1

    def _require(self, sigma: Iterable[str]) -> frozenset[str]:
        s = frozenset(sigma)
        if s not in self.simplices:
            raise ComplexError(f"unknown simplex {subset_label(s)}")
        return s


def full_simplex(labels: Iterable[str]) -> SimplicialComplex:
    """The complex of all nonempty subsets of the given vertex set."""
    return SimplicialComplex.from_maximal([frozenset(labels)])


def clique_complex(g: Graph) -> SimplicialComplex:
    """The complex whose simplices are the complete subgraphs of g."""
    return SimplicialComplex._closed(frozenset(complete_subgraphs(g)))


def one_skeleton(k: SimplicialComplex) -> Graph:
    """The graph of 0- and 1-simplices."""
    return Graph.make(k.vertex_set, (s for s in k.simplices if len(s) == 2))


def is_flag(k: SimplicialComplex) -> tuple[bool, frozenset[str] | None]:
    """True iff every pairwise-joined vertex set is a simplex.

    On failure, returns the first non-simplex by size and then labels, which
    is minimal (>= 3 vertices, all proper subsets present).
    """
    skel = one_skeleton(k)
    for c in complete_subgraphs(skel):
        if c not in k.simplices:
            return False, c
    return True, None


def link(k: SimplicialComplex, sigma: Iterable[str]) -> SimplicialComplex:
    s = k._require(sigma)
    return SimplicialComplex._closed(frozenset(
        t for t in k.simplices if not (t & s) and (t | s) in k.simplices))


def delete_open_star(k: SimplicialComplex, sigma: Iterable[str]) -> SimplicialComplex:
    s = k._require(sigma)
    return SimplicialComplex._closed(frozenset(t for t in k.simplices if not (s <= t)))


# ---------------------------------------------------------------------------
# collapses


@dataclass(frozen=True)
class CollapsePair:
    sigma: frozenset[str]
    tau: frozenset[str]


def _pair_shape_error(present, pair: CollapsePair) -> str | None:
    if pair.sigma not in present:
        return f"{subset_label(pair.sigma)} not in the complex"
    if pair.tau not in present:
        return f"{subset_label(pair.tau)} not in the complex"
    if not (pair.tau < pair.sigma and len(pair.sigma) == len(pair.tau) + 1):
        return f"{subset_label(pair.tau)} is not a proper maximal face of {subset_label(pair.sigma)}"
    return None


def _coface_error(simplices, pair: CollapsePair) -> str:
    """The full scan, for a face tau that lies in a simplex other than sigma:
    the least such simplex names it."""
    t = min((t for t in simplices if t != pair.sigma and pair.tau < t), key=_size_then_labels)
    return f"{subset_label(pair.tau)} is also a face of {subset_label(t)}"


# ---------------------------------------------------------------------------
# the working state: each simplex with its count of immediate cofaces


def _coface_counts(k: SimplicialComplex) -> dict[frozenset[str], int]:
    """A mutable copy of k for replays to update in place.

    In a downward closed family a face lies in a simplex other than sigma
    exactly when it has an immediate coface other than sigma, so a face of
    sigma is free when its count is 1.
    """
    counts = dict.fromkeys(k.simplices, 0)
    for s in k.simplices:
        _shift(counts, s, 1)
    return counts


def _shift(counts: dict[frozenset[str], int], s: frozenset[str], by: int) -> None:
    if len(s) >= 2:
        for v in s:
            counts[s - {v}] += by


COLLAPSE, ANTICOLLAPSE = "-", "+"


@dataclass(frozen=True)
class ComplexCertificate:
    start: SimplicialComplex
    moves: tuple[tuple[str, CollapsePair], ...]
    end: SimplicialComplex


def apply_pair_unchecked(k: SimplicialComplex, op: str,
                         pair: CollapsePair) -> SimplicialComplex:
    if op == COLLAPSE:
        return SimplicialComplex(k.simplices - {pair.sigma, pair.tau})
    return SimplicialComplex(k.simplices | {pair.sigma, pair.tau})


def _pair_move_error(counts: dict[frozenset[str], int],
                     move: tuple[str, CollapsePair]) -> str | None:
    """Why a move does not apply.  A parser checks freeness too: an unfree
    collapse leaves a family that is not a complex."""
    op, pair = move
    if op == COLLAPSE:
        err = _pair_shape_error(counts, pair)
        if err or counts[pair.tau] == 1:
            return err
        return _coface_error(counts, pair)  # only to name the least other coface
    if op != ANTICOLLAPSE:
        return f"unknown operation {op!r}"
    # tau is absent, so in a downward closed family nothing contains it yet
    if pair.sigma in counts or pair.tau in counts:
        return "pair members already present"
    if not (pair.tau and pair.tau < pair.sigma and len(pair.sigma) == len(pair.tau) + 1):
        return "pair is not a facet pair"
    # Dropping a later label leaves a lesser facet by sorted labels, so this
    # names the least missing facet.
    for v in sorted(pair.sigma, reverse=True):
        face = pair.sigma - {v}
        if face != pair.tau and face not in counts:
            return f"facet {subset_label(face)} missing"
    return None


def _apply_pair_move(counts: dict[frozenset[str], int],
                     move: tuple[str, CollapsePair]) -> dict[frozenset[str], int]:
    op, pair = move
    if op == COLLAPSE:
        for s in (pair.sigma, pair.tau):
            del counts[s]
            _shift(counts, s, -1)
    else:
        for s in (pair.tau, pair.sigma):
            counts[s] = 0
            _shift(counts, s, 1)
    return counts


COMPLEX = Rules("complex", ComplexCertificate, _coface_counts,
                lambda counts: SimplicialComplex._closed(frozenset(counts)),
                _pair_move_error, _pair_move_error, _apply_pair_move)


def check_complex_certificate(c: ComplexCertificate) -> CheckReport:
    return COMPLEX.check(c)


def collapse_pair_error(k: SimplicialComplex, pair: CollapsePair) -> str | None:
    return _pair_move_error(_coface_counts(k), (COLLAPSE, pair))


def free_pairs(k: SimplicialComplex) -> list[CollapsePair]:
    """All (sigma, tau) with tau a free face of sigma, deterministic order."""
    counts = _coface_counts(k)
    out = [CollapsePair(s, s - {v}) for s in counts if len(s) >= 2
           for v in s if counts[s - {v}] == 1]
    return sorted(out, key=lambda p: (tuple(sorted(p.tau)), tuple(sorted(p.sigma))))


def collapse(k: SimplicialComplex, pair: CollapsePair) -> SimplicialComplex:
    return COMPLEX.certificate(k, lambda _: ((COLLAPSE, pair),)).end


def star_collapse_certificate(k: SimplicialComplex, sigma: Iterable[str],
                              link_certificate: ComplexCertificate) -> ComplexCertificate:
    """Collapse away every simplex containing sigma, given a collapse of its link.

    Each link pair (alpha, beta) lifts to (sigma|alpha, sigma|beta); the final
    pair is (sigma plus the surviving link vertex, sigma).
    """
    s = k._require(sigma)
    lk = link(k, s)
    if link_certificate.start != lk:
        raise CertificateError("link certificate does not start at the link")
    if any(op != COLLAPSE for op, _ in link_certificate.moves):
        raise CertificateError("link certificate must be a pure collapse")
    if len(link_certificate.end.simplices) != 1:
        raise CertificateError("link certificate must end at a single vertex")
    rep = check_complex_certificate(link_certificate)
    if not rep:
        raise CertificateError(f"link certificate invalid at step {rep.failed_at}: {rep.reason}")

    moves = [(COLLAPSE, CollapsePair(s | p.sigma, s | p.tau))
             for _, p in link_certificate.moves]
    survivor = next(iter(link_certificate.end.simplices))
    moves.append((COLLAPSE, CollapsePair(s | survivor, s)))
    return COMPLEX.certificate(k, lambda _: moves)


def _collapse_dominated(start: SimplicialComplex, steps) -> ComplexCertificate:
    """Collapse start along domination steps (v, w), pairing each simplex through
    v avoiding w with its extension by w, largest first."""

    def moves(counts):
        for v, w in steps:
            carriers = sorted((s for s in counts if v in s and w not in s),
                              key=lambda s: (-len(s), tuple(sorted(s))))
            yield from ((COLLAPSE, CollapsePair(s | {w}, s)) for s in carriers)
    return COMPLEX.certificate(start, moves)


def domination_collapse(g: Graph, v: str, w: str) -> ComplexCertificate:
    """Collapse the clique complex of g onto that of g minus a dominated vertex.

    Pairs every complete subgraph through v avoiding the dominator w with its
    extension by w, processed in decreasing size.
    """
    if v == w or v not in g.vertices or w not in g.vertices:
        raise GraphError(f"bad domination pair ({v!r}, {w!r})")
    if not g.closed_neighborhood(v) <= g.closed_neighborhood(w):
        raise CertificateError(f"{w!r} does not dominate {v!r}")
    cert = _collapse_dominated(clique_complex(g), ((v, w),))
    if cert.end != clique_complex(g.without_vertex(v)):  # pragma: no cover - by construction
        raise CertificateError("collapse did not end at the clique complex of g minus v")
    return cert


def collapse_certificate_for_dismantlable(g: Graph) -> ComplexCertificate:
    """Collapse of the clique complex of a dismantlable graph down to a point.

    Each greedy deletion of v against w collapses the current clique complex
    onto that of the graph without v; every pair is vetted as it is applied.
    """
    order = greedy_dismantling(g)
    if order is None:
        raise CertificateError("graph is not greedily dismantlable")
    return _collapse_dominated(clique_complex(g), order.steps)


def collapse_search(k: SimplicialComplex, target: SimplicialComplex | None = None,
                    budget: int = DEFAULT_SEARCH_BUDGET) -> SearchVerdict:
    """Backtracking over free pairs; memoizes failed simplex sets exactly.

    Without a target, a complex with homology answers NO before any search,
    with its Betti vector as the obstruction: collapses keep the homotopy type.
    With one, no pair that meets the target is offered.
    """
    if not k.simplices:
        raise ComplexError("empty complex")
    if target is None:
        bit = {v: 1 << i for i, v in enumerate(sorted(k.vertex_set))}
        faces: list[list[int]] = [[] for _ in range(k.dimension() + 1)]
        for s in k.simplices:
            faces[len(s) - 1].append(sum(map(bit.__getitem__, s)))
        betti = reduced_betti(faces)
        if betti:
            return SearchVerdict(Outcome.NO, None, SearchStats(0, budget), betti)
    goal = frozenset() if target is None else target.simplices
    if not goal <= k.simplices:
        return SearchVerdict(Outcome.NO, None, SearchStats(0, budget))
    return backtrack(k, lambda c: [(COLLAPSE, p) for p in free_pairs(c)
                                   if goal.isdisjoint((p.sigma, p.tau))],
                     lambda c, move: SimplicialComplex._closed(
                         c.simplices - {move[1].sigma, move[1].tau}),
                     lambda c: len(c.simplices) == 1 if target is None else c.simplices == goal,
                     budget, ComplexCertificate)


# ---------------------------------------------------------------------------
# structure maps


def inclusion_graph(k: SimplicialComplex) -> Graph:
    """Graph on the simplices of k, joined when one strictly contains the other."""
    return _order_graph(*k._face_order)


def chains(above: dict[str, Iterable[str]]) -> list[frozenset[str]]:
    """Every nonempty chain of a strict order given by each element's strict up-set.

    Chains are grown bottom first along the sorted up-sets, so each is listed
    once and the cost grows with the output.
    """
    ups = {x: sorted(ys, reverse=True) for x, ys in above.items()}
    out = []
    stack = [(x,) for x in sorted(ups, reverse=True)]
    while stack:
        chain = stack.pop()
        out.append(frozenset(chain))
        stack.extend(chain + (y,) for y in ups[chain[-1]])
    return out


def barycentric_complex(k: SimplicialComplex) -> SimplicialComplex:
    """Simplices are the chains of simplices of k ordered by inclusion."""
    labels, pairs = k._face_order
    above: dict[str, list[str]] = {label: [] for label in labels}
    for lo, hi in pairs:
        above[lo].append(hi)
    return SimplicialComplex._closed(frozenset(chains(above)))


# ---------------------------------------------------------------------------
# how an elementary collapse acts on the two graph images


def skeleton_move_for_collapse(k: SimplicialComplex,
                               pair: CollapsePair) -> GraphMove | None:
    """The move induced on the 1-skeleton, or None when it is untouched.

    A free vertex is dominated by its unique edge-partner; a free edge deletes
    as an s-dismantlable edge, witnessed by the greedy dismantling of its
    common neighborhood in the 1-skeleton (a single vertex when k is flag,
    and possibly not dismantlable otherwise, which raises CertificateError);
    higher pairs do not meet the skeleton.
    """
    err = collapse_pair_error(k, pair)
    if err:
        raise CertificateError(err)
    if len(pair.tau) == 1:
        return GraphMove(MoveKind.REMOVE_VERTEX, next(iter(pair.tau)),
                         witness=DismantlingOrder(()))  # single-vertex neighborhood
    if len(pair.tau) == 2:
        adj = one_skeleton(k).adjacency
        a, b = sorted(pair.tau)
        order = _s_witness(adj, adj[a] & adj[b])
        if order is None:
            raise CertificateError(f"common neighborhood of {a!r}-{b!r} in the 1-skeleton "
                                   "is empty or not dismantlable")
        return GraphMove(MoveKind.REMOVE_EDGE, pair.tau, witness=order)
    return None


def inclusion_graph_moves_for_collapse(k: SimplicialComplex,
                                       pair: CollapsePair) -> tuple[GraphMove, GraphMove]:
    """The two vertex moves an elementary collapse induces on the inclusion graph.

    The free face is dominated by its unique coface; once removed, that coface
    has a dismantlable neighborhood (the inclusion graph of the punctured
    boundary of the coface).
    """
    err = collapse_pair_error(k, pair)
    if err:
        raise CertificateError(err)
    gam = inclusion_graph(k)
    tl, sl = subset_label(pair.tau), subset_label(pair.sigma)
    first = GraphMove(MoveKind.REMOVE_VERTEX, tl,
                      witness=cone_order(gam.neighbors(tl), sl))
    order = _s_witness(gam.adjacency, gam.neighbors(sl) - {tl})
    if order is None:
        raise CertificateError(
            f"neighborhood of {sl} did not dismantle after removing {tl}")
    second = GraphMove(MoveKind.REMOVE_VERTEX, sl, witness=order)
    return first, second
