"""Golden digests for the certificate builders that no benchmark digest covers.

Each entry pins a digest of what one builder makes from one seeded input, so
a change to the moves, their order, their labels or their witnesses shows up
here.  Graph and complex certificates are digested in their text form; poset
certificates have none, so each cascade move is written out as a tuple with
its witness steps and its relation sets sorted, and a single graph move as its
description and witness steps.
"""

import hashlib
import random

import pytest

from flagcalc import (
    CertificateError,
    MoveCertificate,
    MoveKind,
    Outcome,
    dominated_vertices,
    domination_collapse,
    free_pairs,
    realize_edge_deletion,
    realize_s_neighborhood_deletion,
    rewrite_edge_moves,
    s_collapse_search,
    s_dismantlable_edges,
    s_dismantlable_vertices,
    textio,
    weak_point_cascade,
)
from flagcalc.dismantling import greedy_dismantling_certificate
from flagcalc.identities import random_complex, random_graph
from flagcalc.simplicial import (
    collapse_certificate_for_dismantlable,
    inclusion_graph_moves_for_collapse,
    skeleton_move_for_collapse,
)

from .helpers import random_copwin_graph, random_vertex_move_certificate, random_ws_move_certificate


def _digest(*parts) -> str:
    return hashlib.sha256("\0".join(map(str, parts)).encode()).hexdigest()[:16]


def _text(cert: MoveCertificate) -> str:
    return textio.format_move_certificate(cert)


def _edge_deletions(seed: int) -> str:
    g = random_copwin_graph(random.Random(seed), 12)
    return _digest(*(_text(realize_edge_deletion(g, sorted(e))) for e in s_dismantlable_edges(g)))


def _searched_neighborhood_deletions(seed: int) -> str:
    g = random_graph(random.Random(seed), 9, 0.6)
    verdicts = [realize_s_neighborhood_deletion(g, v) for v in g.sorted_vertices()
                if g.neighbors(v)]
    return _digest(*((v.outcome.value, v.certificate and _text(v.certificate))
                     for v in verdicts))


def _expanded_neighborhood_deletion(seed: int) -> str:
    """The first seeded neighborhood witness with additions, lifted into its graph."""
    rng = random.Random(seed)
    while True:
        g = random_graph(rng, rng.randint(4, 8), rng.choice((0.4, 0.6)))
        v = rng.choice(g.sorted_vertices())
        nb = g.open_neighborhood_subgraph(v)
        if not nb.vertices:
            continue
        prefix = random_vertex_move_certificate(rng, nb, rng.randint(1, 3))
        if not any(m.kind is MoveKind.ADD_VERTEX for m in prefix.moves):
            continue
        tail = s_collapse_search(prefix.end)
        if tail.outcome is Outcome.YES:
            witness = MoveCertificate(nb, prefix.moves + tail.certificate.moves,
                                      tail.certificate.end)
            return _digest(_text(realize_s_neighborhood_deletion(g, v, witness).certificate))


def _rewrites(seed: int) -> str:
    rng = random.Random(seed)
    g = random_graph(rng, 7, 0.6)
    out, mapping = rewrite_edge_moves(random_ws_move_certificate(rng, g, 8))
    return _digest(_text(out), mapping)


def _cascades(seed: int) -> str:
    g = random_copwin_graph(random.Random(seed), 9)
    moves = []
    for v in s_dismantlable_vertices(g):
        moves.extend((m.kind.value, m.element, m.witness_side,
                      tuple((s.removed, s.kind.value, s.pivot) for s in m.witness.steps),
                      tuple(sorted(m.lower)), tuple(sorted(m.upper)))
                     for m in weak_point_cascade(g, v).moves)
    return _digest(*moves)


def _collapses(seed: int) -> str:
    g = random_copwin_graph(random.Random(seed), 10)
    return _digest(textio.format_complex_certificate(collapse_certificate_for_dismantlable(g)))


def _dominations(seed: int) -> str:
    g = random_copwin_graph(random.Random(seed), 9)
    return _digest(*(textio.format_complex_certificate(domination_collapse(g, v, w))
                     for v, w in dominated_vertices(g)))


def _greedy_certificates(seed: int) -> str:
    """A cop-win graph, which dismantles, and a random graph, which may not."""
    rng = random.Random(seed)
    certs = [greedy_dismantling_certificate(random_copwin_graph(rng, 12)),
             greedy_dismantling_certificate(random_graph(rng, 8, 0.6))]
    return _digest(*(c and _text(c) for c in certs))


def _move_row(m) -> tuple:
    return m and (m.describe(), m.witness.steps)


def _complexes(seed: int) -> list:
    rng = random.Random(seed)
    return [random_complex(rng, 7, p) for p in (0.3, 0.5, 0.7)]


def _skeleton_moves(seed: int) -> str:
    """The move, or the refusal, for every free pair of three seeded complexes
    (seed 2 has a free edge whose common neighbourhood does not dismantle)."""
    rows = []
    for k in _complexes(seed):
        for pair in free_pairs(k):
            try:
                rows.append(_move_row(skeleton_move_for_collapse(k, pair)))
            except CertificateError as exc:
                rows.append(str(exc))
    return _digest(*rows)


def _inclusion_moves(seed: int) -> str:
    return _digest(*(tuple(map(_move_row, inclusion_graph_moves_for_collapse(k, pair)))
                     for k in _complexes(seed) for pair in free_pairs(k)))


BUILDERS = {"edge": _edge_deletions, "searched": _searched_neighborhood_deletions,
            "expanded": _expanded_neighborhood_deletion, "rewrite": _rewrites,
            "cascade": _cascades, "collapse": _collapses, "domination": _dominations,
            "greedy": _greedy_certificates, "skeleton": _skeleton_moves,
            "inclusion": _inclusion_moves}
SEEDS = range(4)

GOLDEN = {
    'edge/0': '73aaeb2d90c873a5',
    'edge/1': 'e0f1975fb1200e1e',
    'edge/2': '89b29a7c6b6faa62',
    'edge/3': 'ac4b868bffd72c08',
    'searched/0': '5890ef7b882892dd',
    'searched/1': 'e89830941eb8e9ec',
    'searched/2': '48cb40feb0540a4d',
    'searched/3': 'cb8bc9007e0c1dd5',
    'expanded/0': 'b4fd5e922afb7a28',
    'expanded/1': 'dec701fc385782d0',
    'expanded/2': 'e42435b9760de679',
    'expanded/3': '81a9b8b4f26518f8',
    'rewrite/0': '36d0a714b4da705f',
    'rewrite/1': 'e95ea05b8db5482e',
    'rewrite/2': 'a76ec65f07bec657',
    'rewrite/3': '12ac5b172ad23ce5',
    'cascade/0': '7cac94599469b963',
    'cascade/1': '6c87b42b5b9fcf76',
    'cascade/2': 'cb251b4998c82333',
    'cascade/3': 'c18f2854f851df6b',
    'collapse/0': '9011e4d8e67c61e0',
    'collapse/1': '5883f4a4eb72104d',
    'collapse/2': '56ffc9d3b5d17da7',
    'collapse/3': '5bf8830b8a06995d',
    'domination/0': 'ee5262738d9a7878',
    'domination/1': '3cbd9c3ffee96a97',
    'domination/2': '38ef3c41d0f31009',
    'domination/3': '0647f0288072988f',
    'greedy/0': '6bacdffbb435f47a',
    'greedy/1': 'e3351bbba996d715',
    'greedy/2': '1a290f9c2d521a3c',
    'greedy/3': 'de504c76e3c7ca51',
    'skeleton/0': 'cf24a8d2ecf8cae1',
    'skeleton/1': 'abc49d3d24b8b394',
    'skeleton/2': 'c0f1d70104838861',
    'skeleton/3': '676278c0ce5d5e02',
    'inclusion/0': '3e22971432f45183',
    'inclusion/1': '1d4d276d8e9eaaaa',
    'inclusion/2': 'bf89b2ae1c58542d',
    'inclusion/3': 'b8ce56caa501d86a',
}


@pytest.mark.parametrize("case", sorted(f"{b}/{s}" for b in BUILDERS for s in SEEDS))
def test_builder_output_is_unchanged(case):
    builder, seed = case.split("/")
    assert BUILDERS[builder](int(seed)) == GOLDEN[case]
