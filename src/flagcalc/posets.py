"""Finite strict partial orders, weak points and their reduction certificates.

Posets store the full transitively closed strict order; Hasse covers are
recomputed on demand.  All values are immutable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable, Iterator

from .graphs import Graph, complete_subgraphs, inclusion_pairs, subset_label
from .dismantling import (
    CheckReport,
    CertificateError,
    build,
    check_replay,
    greedy_core,
    is_s_dismantlable_vertex,
    replay,
)
from .simplicial import SimplicialComplex, chains


class PosetError(ValueError):
    """Structurally invalid order data or an unknown element."""


def _transitive_closure(elements: frozenset[str],
                        pairs: Iterable[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    succ: dict[str, set[str]] = {x: set() for x in elements}
    for x, y in pairs:
        if x not in elements or y not in elements:
            raise PosetError(f"relation {x!r} < {y!r} uses an undeclared element")
        succ[x].add(y)
    closed: dict[str, set[str]] = {}
    for x in sorted(elements):  # so a cycle is reported at the same element in every run
        seen: set[str] = set()
        stack = list(succ[x])
        while stack:
            y = stack.pop()
            if y in seen:
                continue
            seen.add(y)
            stack.extend(succ[y])
        if x in seen:
            raise PosetError(f"cycle through {x!r}")
        closed[x] = seen
    return frozenset((x, y) for x, ys in closed.items() for y in ys)


@dataclass(frozen=True)
class Poset:
    elements: frozenset[str]
    relation: frozenset[tuple[str, str]]  # (x, y) means x < y; transitively closed

    @staticmethod
    def make(elements: Iterable[str] = (),
             relations: Iterable[tuple[str, str]] = ()) -> "Poset":
        els = frozenset(elements)
        return Poset(els, _transitive_closure(els, relations))

    @cached_property
    def above_map(self) -> dict[str, frozenset[str]]:
        out: dict[str, set[str]] = {x: set() for x in self.elements}
        for x, y in self.relation:
            out[x].add(y)
        return {x: frozenset(s) for x, s in out.items()}

    @cached_property
    def below_map(self) -> dict[str, frozenset[str]]:
        out: dict[str, set[str]] = {x: set() for x in self.elements}
        for x, y in self.relation:
            out[y].add(x)
        return {x: frozenset(s) for x, s in out.items()}

    def __contains__(self, x: str) -> bool:
        return x in self.elements

    def _require(self, x: str) -> None:
        if x not in self.elements:
            raise PosetError(f"unknown element {x!r}")

    def less(self, x: str, y: str) -> bool:
        return (x, y) in self.relation

    def above(self, x: str) -> frozenset[str]:
        self._require(x)
        return self.above_map[x]

    def below(self, x: str) -> frozenset[str]:
        self._require(x)
        return self.below_map[x]

    def induced(self, subset: Iterable[str]) -> "Poset":
        sub = frozenset(subset)
        for x in sub:
            self._require(x)
        return Poset(sub, frozenset((x, y) for x, y in self.relation
                                    if x in sub and y in sub))

    def down_set(self, x: str) -> "Poset":
        return self.induced(self.below(x))

    def up_set(self, x: str) -> "Poset":
        return self.induced(self.above(x))

    def without(self, x: str) -> "Poset":
        self._require(x)
        return self.induced(self.elements - {x})

    def covers(self) -> list[tuple[str, str]]:
        """Hasse diagram: pairs x < y with nothing strictly between."""
        return sorted((x, y) for x, y in self.relation
                      if self.above_map[x].isdisjoint(self.below_map[y]))

    def maximum(self) -> str | None:
        for m in self.elements:
            if self.below_map[m] == self.elements - {m}:
                return m
        return None

    def minimum(self) -> str | None:
        for m in self.elements:
            if self.above_map[m] == self.elements - {m}:
                return m
        return None

    def sorted_elements(self) -> list[str]:
        return sorted(self.elements)


def chain_poset(labels: Iterable[str]) -> Poset:
    ls = list(labels)
    return Poset.make(ls, [(ls[i], ls[i + 1]) for i in range(len(ls) - 1)])


def antichain_poset(labels: Iterable[str]) -> Poset:
    return Poset.make(labels, ())


# ---------------------------------------------------------------------------
# the working state: private up-set and down-set dicts, updated in place


def _order_sets(p: Poset) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    """Mutable copies of p's strict up-sets and down-sets, in that order."""
    return ({x: set(s) for x, s in p.above_map.items()},
            {x: set(s) for x, s in p.below_map.items()})


def _poset_of(state) -> Poset:
    up, _ = state
    return Poset(frozenset(up), frozenset((x, y) for x, ys in up.items() for y in ys))


def _restrict(state, subset) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    up, down = state
    return {x: up[x] & subset for x in subset}, {x: down[x] & subset for x in subset}


def _drop(state, x: str):
    up, down = state
    for y in up.pop(x):
        down[y].discard(x)
    for y in down.pop(x):
        up[y].discard(x)
    return state


def _extreme(sets: dict[str, set[str]], members) -> str | None:
    """The maximum of a strict down-set (given the down-sets), or the minimum
    of a strict up-set (given the up-sets).

    The order is transitively closed, so each member's set lies inside
    `members`; the extreme one holds every member but itself.
    """
    return next((m for m in members if len(sets[m]) == len(members) - 1), None)


# ---------------------------------------------------------------------------
# irreducible and weak points


def irreducible_points(p: Poset) -> list[str]:
    """Elements whose strict down-set has a maximum or strict up-set a minimum."""
    state = _order_sets(p)
    return [x for x in p.sorted_elements() if _irreducible_step(state, x) is not None]


class StepKind(enum.Enum):
    MAX_BELOW = "max-below"
    MIN_ABOVE = "min-above"


@dataclass(frozen=True)
class PosetStep:
    removed: str
    kind: StepKind
    pivot: str


@dataclass(frozen=True)
class PosetDismantlingOrder:
    steps: tuple[PosetStep, ...]


def _irreducible_step_error(state, step: PosetStep) -> str | None:
    up, down = state
    if step.removed not in up:
        return f"{step.removed!r} not present"
    if step.pivot not in up:
        return f"pivot {step.pivot!r} not present"
    if step.kind is StepKind.MAX_BELOW:
        if _extreme(down, down[step.removed]) != step.pivot:
            return f"{step.pivot!r} is not the maximum below {step.removed!r}"
    elif _extreme(up, up[step.removed]) != step.pivot:
        return f"{step.pivot!r} is not the minimum above {step.removed!r}"
    return None


def _remove_irreducible(state, step: PosetStep):
    return _drop(state, step.removed)


def _order_error(state, order: PosetDismantlingOrder) -> str | None:
    cur, report = replay(state, order.steps, _irreducible_step_error, _remove_irreducible)
    if not report:
        return f"step {report.failed_at}: {report.reason}"
    if len(cur[0]) != 1:
        return f"{len(cur[0])} elements remain after replay"
    return None


def _irreducible_step(state, x: str) -> PosetStep | None:
    """The removal of x against the maximum below it or else the minimum above it."""
    up, down = state
    m = _extreme(down, down[x])
    if m is not None:
        return PosetStep(x, StepKind.MAX_BELOW, m)
    m = _extreme(up, up[x])
    if m is not None:
        return PosetStep(x, StepKind.MIN_ABOVE, m)
    return None


def _greedy_poset_core(state) -> tuple[object, tuple]:
    # Removing x leaves the up- and down-sets of every element incomparable
    # to x, and of everything inside them, as they were.
    return greedy_core(state, list(state[0]), _irreducible_step, _remove_irreducible,
                       lambda st, step: st[0][step.removed] | st[1][step.removed])


def poset_dismantling_core(p: Poset) -> tuple[Poset, PosetDismantlingOrder]:
    """Greedily delete irreducible points until none remains."""
    if not p.elements:
        raise PosetError("empty poset has no dismantling core")
    core, steps = _greedy_poset_core(_order_sets(p))
    return _poset_of(core), PosetDismantlingOrder(steps)


def _greedy_order(state) -> PosetDismantlingOrder | None:
    core, steps = _greedy_poset_core(state)
    return PosetDismantlingOrder(steps) if len(core[0]) == 1 else None


def greedy_poset_dismantling(p: Poset) -> PosetDismantlingOrder | None:
    """Full greedy order to a single element, or None.

    Greedy suffices: deleting an irreducible point leaves a retract, which
    preserves dismantlability.
    """
    if not p.elements:
        return None
    return _greedy_order(_order_sets(p))


def is_dismantlable_poset(p: Poset) -> bool:
    if not p.elements:
        raise PosetError("dismantlability is defined for nonempty posets only")
    return greedy_poset_dismantling(p) is not None


def _weak_point_witness(state, x: str) -> tuple[str, PosetDismantlingOrder] | None:
    up, down = state
    for side, near in (("below", down[x]), ("above", up[x])):
        if near:
            order = _greedy_order(_restrict(state, near))
            if order is not None:
                return side, order
    return None


def weak_point_witness(p: Poset, x: str) -> tuple[str, PosetDismantlingOrder] | None:
    """A ("below"|"above", order) pair dismantling the strict down- or up-set."""
    p._require(x)
    return _weak_point_witness(_order_sets(p), x)


def weak_points(p: Poset) -> list[str]:
    """Elements whose strict down-set or strict up-set is dismantlable."""
    state = _order_sets(p)
    return [x for x in p.sorted_elements() if _weak_point_witness(state, x) is not None]


def weak_points_via_join(p: Poset) -> list[str]:
    """Same set computed through dismantlability of up-set joined over down-set."""
    out = []
    for x in p.sorted_elements():
        j = join(p.up_set(x), p.down_set(x))
        if j.elements and greedy_poset_dismantling(j) is not None:
            out.append(x)
    return out


# ---------------------------------------------------------------------------
# constructions


def join(p: Poset, q: Poset) -> Poset:
    """Disjoint union with every element of p below every element of q.

    Colliding labels on the q side are suffixed with "'" until fresh.
    """
    rename = {}
    taken = set(p.elements)
    for x in q.sorted_elements():
        nx = x
        while nx in taken:
            nx = nx + "'"
        rename[x] = nx
        taken.add(nx)
    rel = set(p.relation)
    rel.update((rename[x], rename[y]) for x, y in q.relation)
    rel.update((a, rename[b]) for a in p.elements for b in q.elements)
    return Poset(frozenset(taken), frozenset(rel))


def product_with_two_chain(p: Poset) -> Poset:
    """Two stacked copies of p: (x,a) and (x,b) with (x,a) <= (y,b) iff x <= y."""
    lo = {x: f"({x},a)" for x in p.elements}
    hi = {x: f"({x},b)" for x in p.elements}
    rel = set()
    for x, y in p.relation:
        rel.add((lo[x], lo[y]))
        rel.add((hi[x], hi[y]))
        rel.add((lo[x], hi[y]))
    for x in p.elements:
        rel.add((lo[x], hi[x]))
    return Poset(frozenset(lo.values()) | frozenset(hi.values()), frozenset(rel))


def comparability_graph(p: Poset) -> Graph:
    return Graph.make(p.elements, ((x, y) for x, y in p.relation))


def _inclusion_poset(family: Collection[frozenset[str]]) -> Poset:
    """A family closed under nonempty subsets, ordered by inclusion."""
    return Poset(frozenset(map(subset_label, family)), frozenset(inclusion_pairs(family)))


def clique_poset(g: Graph) -> Poset:
    """Complete subgraphs of g ordered by inclusion."""
    return _inclusion_poset(complete_subgraphs(g))


def order_complex(p: Poset) -> SimplicialComplex:
    """Chains of p as simplices over the element labels."""
    return SimplicialComplex(frozenset(chains(p.above_map)))


def face_poset(k: SimplicialComplex) -> Poset:
    """Simplices of k ordered by inclusion."""
    return _inclusion_poset(k.simplices)


def barycentric_poset(p: Poset) -> Poset:
    """Nonempty chains of p ordered by inclusion of underlying sets."""
    return _inclusion_poset(chains(p.above_map))


# ---------------------------------------------------------------------------
# weak point certificates


class PosetMoveKind(enum.Enum):
    REMOVE = "-p"
    ADD = "+p"


@dataclass(frozen=True)
class PosetMove:
    kind: PosetMoveKind
    element: str
    witness_side: str  # "below" | "above"
    witness: PosetDismantlingOrder
    lower: frozenset[str] = frozenset()  # for ADD: elements strictly below
    upper: frozenset[str] = frozenset()  # for ADD: elements strictly above


@dataclass(frozen=True)
class PosetCertificate:
    start: Poset
    moves: tuple[PosetMove, ...]
    end: Poset


def _poset_move_error(state, m: PosetMove) -> str | None:
    up, down = state
    if m.kind is PosetMoveKind.REMOVE:
        if m.element not in up:
            return f"element {m.element!r} not present"
        local = down[m.element] if m.witness_side == "below" else up[m.element]
    else:
        if m.element in up:
            return f"element {m.element!r} already present"
        for u in m.lower | m.upper:
            if u not in up:
                return f"relation endpoint {u!r} not present"
        for l in m.lower:
            if not down[l] <= m.lower:
                return f"lower set not downward closed at {l!r}"
        for u in m.upper:
            if not up[u] <= m.upper:
                return f"upper set not upward closed at {u!r}"
        for l in m.lower:
            for u in m.upper:
                if u not in up[l]:
                    return f"{l!r} < {u!r} would be forced between old elements"
        local = m.lower if m.witness_side == "below" else m.upper
    if m.witness_side not in ("below", "above"):
        return f"unknown witness side {m.witness_side!r}"
    if not local:
        return f"{m.element!r}: witness sub-poset is empty"
    err = _order_error(_restrict(state, local), m.witness)
    if err:
        return f"{m.element!r}: witness invalid ({err})"
    return None


def _apply_poset_move(state, m: PosetMove):
    if m.kind is PosetMoveKind.REMOVE:
        return _drop(state, m.element)
    up, down = state
    up[m.element], down[m.element] = set(m.upper), set(m.lower)
    for l in m.lower:  # every l < u already holds once the move is vetted
        up[l].add(m.element)
    for u in m.upper:
        down[u].add(m.element)
    return state


def apply_poset_move_unchecked(p: Poset, m: PosetMove) -> Poset:
    if m.kind is PosetMoveKind.REMOVE:
        return p.without(m.element)
    rel = set(p.relation)
    rel.update((l, m.element) for l in m.lower)
    rel.update((m.element, u) for u in m.upper)
    rel.update((l, u) for l in m.lower for u in m.upper)
    return Poset(p.elements | {m.element}, frozenset(rel))


def check_poset_certificate(c: PosetCertificate) -> CheckReport:
    return check_replay(c, _order_sets, _poset_move_error, _apply_poset_move, "poset")


def weak_point_cascade(g: Graph, v: str) -> PosetCertificate:
    """Weak point removals taking the clique poset of g to that of g minus v.

    Removes the singleton clique of v first, then every clique through v in the
    greedy dismantling order of the clique poset of its open neighborhood.
    """
    if not is_s_dismantlable_vertex(g, v):
        raise CertificateError(f"open neighborhood of {v!r} is not dismantlable")
    start = clique_poset(g)
    label_to_clique = {subset_label(c): c
                       for c in complete_subgraphs(g.open_neighborhood_subgraph(v))}
    order = greedy_poset_dismantling(_inclusion_poset(label_to_clique.values()))
    assert order is not None  # clique posets of dismantlable graphs dismantle
    removed_labels = [s.removed for s in order.steps]
    (survivor,) = label_to_clique.keys() - set(removed_labels)

    targets = [subset_label({v})]
    targets.extend(subset_label(label_to_clique[l] | {v}) for l in removed_labels + [survivor])

    state = _order_sets(start)

    def moves() -> Iterator[PosetMove]:
        for t in targets:
            wit = _weak_point_witness(state, t)
            if wit is None:  # pragma: no cover - the cascade order guarantees a witness
                raise CertificateError(f"{t!r} is not a weak point during the cascade")
            yield PosetMove(PosetMoveKind.REMOVE, t, *wit)

    state, made = build(state, moves(), _poset_move_error, _apply_poset_move)
    end = clique_poset(g.without_vertex(v))
    if _poset_of(state) != end:  # pragma: no cover - construction guarantees this
        raise CertificateError("cascade did not end at the vertex-deleted clique poset")
    return PosetCertificate(start, made, end)
