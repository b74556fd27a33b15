"""Golden digests for the certificate builders that no benchmark digest covers.

Each entry pins a digest of what one builder makes from one seeded input, so
a change to the moves, their order, their labels or their witnesses shows up
here.  Graph certificates are digested in their text form; poset certificates
have none, so each cascade move is written out as a tuple with its witness
steps and its relation sets sorted.
"""

import hashlib
import random

import pytest

from flagcalc import (
    MoveCertificate,
    MoveKind,
    Outcome,
    realize_edge_deletion,
    realize_s_neighborhood_deletion,
    rewrite_edge_moves,
    s_collapse_search,
    s_dismantlable_edges,
    s_dismantlable_vertices,
    textio,
    weak_point_cascade,
)
from flagcalc.identities import random_graph

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


BUILDERS = {"edge": _edge_deletions, "searched": _searched_neighborhood_deletions,
            "expanded": _expanded_neighborhood_deletion, "rewrite": _rewrites,
            "cascade": _cascades}
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
}


@pytest.mark.parametrize("case", sorted(f"{b}/{s}" for b in BUILDERS for s in SEEDS))
def test_builder_output_is_unchanged(case):
    builder, seed = case.split("/")
    assert BUILDERS[builder](int(seed)) == GOLDEN[case]
