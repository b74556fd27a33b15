"""Executable cross-structure property oracles.

run_property_suite exercises the bridge results between graphs, complexes and
posets on seeded random instances and reports per-instance verdicts.  The
subdivision certificate it checks is built in `dismantling` and re-exported
here.
"""

from __future__ import annotations

import hashlib
import random
import string
from dataclasses import dataclass
from typing import Optional

from .graphs import Graph, are_isomorphic, barycentric_graph, subset_label
from .dismantling import (
    DEFAULT_SEARCH_BUDGET,
    CertificateError,
    IContractibility,
    Outcome,
    check_certificate,
    is_s_dismantlable_edge,
    realize_edge_deletion,
    replay_moves,
    s_collapse_search,
    s_dismantlable_vertices,
    subdivision_certificate,
)
from .simplicial import (
    COLLAPSE,
    CollapsePair,
    SimplicialComplex,
    apply_pair_unchecked,
    check_complex_certificate,
    clique_complex,
    collapse_certificate_for_dismantlable,
    collapse_pair_error,
    free_pairs,
    inclusion_graph,
    inclusion_graph_moves_for_collapse,
    is_flag,
    one_skeleton,
    skeleton_move_for_collapse,
    star_collapse_certificate,
)
from . import textio
from .corpus import stuck_graph, stuck_graph_reduced
from .posets import (
    Poset,
    check_poset_certificate,
    clique_poset,
    comparability_graph,
    weak_point_cascade,
    weak_points,
    weak_points_via_join,
)


# ---------------------------------------------------------------------------
# seeded random instances


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    labels = list(string.ascii_lowercase[:n])
    edges = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]
             if rng.random() < p]
    return Graph.make(labels, edges)


def random_poset(rng: random.Random, n: int, p: float) -> Poset:
    labels = list(string.ascii_lowercase[:n])
    rels = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)
            if rng.random() < p]
    return Poset.make(labels, rels)


def random_complex(rng: random.Random, n: int, p: float) -> SimplicialComplex:
    if rng.random() < 0.5:
        g = random_graph(rng, n, p)
        return clique_complex(g)
    labels = list(string.ascii_lowercase[:n])
    count = rng.randint(1, max(1, n))
    tops = []
    for _ in range(count):
        size = rng.randint(1, min(4, n))
        tops.append(rng.sample(labels, size))
    return SimplicialComplex.from_maximal(tops)


# ---------------------------------------------------------------------------
# property suite


@dataclass(frozen=True)
class PropertyReport:
    property_id: str
    instance: str
    verdict: str  # "pass" | "fail" | "skipped"
    detail: Optional[str] = None

    def line(self) -> str:
        head = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[self.verdict]
        tail = f" :: {self.detail}" if self.detail else ""
        return f"{head} {self.property_id} {self.instance}{tail}"


def _describe(x: Graph | Poset | SimplicialComplex) -> str:
    """Instance name from a short sha256 of its text form, equal in every process."""
    kind, form = next((k, f) for k, f in textio.TEXT_FORMS.items() if type(x) is f.cls)
    return f"{kind}<{hashlib.sha256(form.format(x).encode()).hexdigest()[:8]}>"


def _star_collapses(g: Graph, v: str) -> bool:
    """The star of v in the clique complex of g collapses, by the collapse
    certificate of N(v), onto the clique complex of g minus v."""
    lc = collapse_certificate_for_dismantlable(g.open_neighborhood_subgraph(v))
    cert = star_collapse_certificate(clique_complex(g), frozenset((v,)), lc)
    return bool(check_complex_certificate(cert)) and \
        cert.end == clique_complex(g.without_vertex(v))


def run_property_suite(seed: int = 0, max_size: int = 6,
                       budget: int = DEFAULT_SEARCH_BUDGET,
                       samples: int = 24) -> list[PropertyReport]:
    """Run the cross-structure oracles on seeded random instances.

    Returns one report per (property, instance), sorted by property id.
    """
    rng = random.Random(seed)
    graphs = [random_graph(rng, rng.randint(2, max_size), rng.choice((0.3, 0.5, 0.7)))
              for _ in range(samples)]
    posets = [random_poset(rng, rng.randint(2, max_size), rng.choice((0.3, 0.5, 0.7)))
              for _ in range(samples)]
    complexes = [random_complex(rng, rng.randint(2, min(5, max_size)),
                                rng.choice((0.3, 0.5, 0.7)))
                 for _ in range(samples)]
    reports: list[PropertyReport] = []

    def record(pid: str, instance: str, ok: bool, detail: str | None = None) -> None:
        reports.append(PropertyReport(pid, instance, "pass" if ok else "fail", detail))

    def record_replay(pid: str, instance: str, g: Graph, moves, end: Graph) -> None:
        reached, report = replay_moves(g, moves)
        record(pid, instance, report.ok and reached == end, report.reason)

    checker = IContractibility()
    for g in graphs:
        name = _describe(g)
        for v in s_dismantlable_vertices(g):
            at = f"{name}/{v}"
            record("clique-complex-collapses-when-vertex-s-removable", at, _star_collapses(g, v))
            record("s-removable-vertex-is-i-removable", at, checker.vertex(g, v) == "yes")
            cert = weak_point_cascade(g, v)
            record("weak-point-cascade-reaches-reduced-clique-poset", at,
                   bool(check_poset_certificate(cert))
                   and cert.end == clique_poset(g.without_vertex(v)))
        for a, b in g.sorted_edges():
            if is_s_dismantlable_edge(g, (a, b)):
                cert = realize_edge_deletion(g, (a, b))
                record("edge-removal-rewrites-to-vertex-moves", f"{name}/{a}-{b}",
                       bool(check_certificate(cert))
                       and are_isomorphic(cert.end, g.without_edge(a, b)) is not None)
        pid = "s-collapse-transfers-to-complex-collapse"
        verdict = s_collapse_search(g, budget)
        if verdict.outcome is Outcome.UNKNOWN:
            reports.append(PropertyReport(pid, name, "skipped", "budget exhausted"))
        elif verdict.outcome is Outcome.YES:
            cur_g, ok = g, True
            for move in verdict.certificate.moves:
                ok = _star_collapses(cur_g, move.target) and ok
                cur_g = cur_g.without_vertex(move.target)
            record(pid, name, ok)
        cert = subdivision_certificate(g)
        record("subdivision-is-reachable-by-vertex-moves", name,
               bool(check_certificate(cert)) and cert.end == barycentric_graph(g))

    for k in complexes:
        name = _describe(k)
        gam, skel = inclusion_graph(k), one_skeleton(k)
        for pair in free_pairs(k):
            after = apply_pair_unchecked(k, COLLAPSE, pair)
            record_replay("collapse-induces-two-inclusion-graph-moves", name, gam,
                          inclusion_graph_moves_for_collapse(k, pair), inclusion_graph(after))
            pid = "collapse-induces-skeleton-move"
            try:
                move = skeleton_move_for_collapse(k, pair)
            except CertificateError:
                # only a non-flag complex has a free edge whose common
                # neighborhood in the skeleton does not dismantle
                missing = is_flag(k)[1]
                reports.append(PropertyReport(pid, name, "skipped",
                                              f"not flag: {subset_label(missing)}"))
                continue
            record_replay(pid, name, skel, () if move is None else (move,), one_skeleton(after))

    for p in posets:
        direct = weak_points(p)
        via_join = weak_points_via_join(p)
        comp = comparability_graph(p)
        record("weak-points-agree-three-ways", _describe(p),
               direct == via_join == s_dismantlable_vertices(comp))

    g, h = stuck_graph(), stuck_graph_reduced()
    no_moves = not s_dismantlable_vertices(g)
    kk, ll = clique_complex(g), clique_complex(h)
    diff = sorted(kk.simplices - ll.simplices, key=len, reverse=True)
    pair = CollapsePair(diff[0], diff[1])
    ok = no_moves and len(diff) == 2 and collapse_pair_error(kk, pair) is None
    record("stuck-graph-still-collapses-as-complex", "stuck-7-vertex", ok)

    return sorted(reports, key=lambda r: (r.property_id, r.instance))
