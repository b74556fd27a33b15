"""Each kind's `Rules` record as the one door to its certificates.

Four builders refuse an invalid input certificate through `Rules.require`,
each with its own message; a builder that names its end gets a certificate
ending at that very object, and moves that stop short of it raise.
"""

import dataclasses
import random

import pytest

from flagcalc import (
    CertificateError,
    DismantlingOrder,
    MoveCertificate,
    NormalizationError,
    clique_complex,
    link,
    normalize_certificate,
    realize_s_neighborhood_deletion,
    rewrite_edge_moves,
    s_dismantlable_vertices,
    star_collapse_certificate,
    weak_point_cascade,
)
from flagcalc.dismantling import GRAPH, greedy_dismantling_certificate
from flagcalc.posets import POSET
from flagcalc.simplicial import COMPLEX, collapse_certificate_for_dismantlable

from .helpers import random_copwin_graph, random_vertex_move_certificate, \
    random_ws_move_certificate


def _broken(rng: random.Random, cert: MoveCertificate) -> MoveCertificate:
    """cert with one move's witness replaced by a step that removes the move's
    own target, which is never in its local graph."""
    i = rng.randrange(len(cert.moves))
    m = cert.moves[i]
    target = min(m.target) if isinstance(m.target, frozenset) else m.target
    bad = dataclasses.replace(m, witness=DismantlingOrder(((target, target),)))
    return dataclasses.replace(cert, moves=cert.moves[:i] + (bad,) + cert.moves[i + 1:])


# ---------------------------------------------------------------------------
# the four input checks


def test_a_supplied_witness_that_does_not_check_is_named():
    rng = random.Random(3)
    g = random_copwin_graph(rng, 9)
    v = s_dismantlable_vertices(g)[-1]
    witness = _broken(rng, greedy_dismantling_certificate(g.open_neighborhood_subgraph(v)))
    with pytest.raises(CertificateError) as exc:
        realize_s_neighborhood_deletion(g, v, witness=witness)
    assert str(exc.value) == ("witness invalid at step 2: -v v2: witness invalid "
                              "(step 0: removed vertex 'v2' not present)")


def test_an_edge_move_input_that_does_not_check_is_named():
    rng = random.Random(4)
    cert = _broken(rng, random_ws_move_certificate(rng, random_copwin_graph(rng, 8), 6))
    with pytest.raises(CertificateError) as exc:
        rewrite_edge_moves(cert)
    assert str(exc.value) == ("input invalid at step 5: -v v4: witness invalid "
                              "(step 0: removed vertex 'v4' not present)")


def test_a_link_certificate_that_does_not_check_is_named():
    rng = random.Random(5)
    g = random_copwin_graph(rng, 10)
    v = s_dismantlable_vertices(g)[0]
    link_cert = collapse_certificate_for_dismantlable(g.open_neighborhood_subgraph(v))
    shuffled = list(link_cert.moves)
    rng.shuffle(shuffled)
    bad = dataclasses.replace(link_cert, moves=tuple(shuffled))
    assert bad.start == link(clique_complex(g), {v})
    with pytest.raises(CertificateError) as exc:
        star_collapse_certificate(clique_complex(g), {v}, bad)
    assert str(exc.value) == "link certificate invalid at step 0: [v7] is also a face of [v2,v7]"


def test_a_certificate_to_normalize_that_does_not_check_is_named():
    rng = random.Random(6)
    cert = _broken(rng, random_vertex_move_certificate(rng, random_copwin_graph(rng, 8), 6))
    with pytest.raises(NormalizationError) as exc:
        normalize_certificate(cert)
    assert str(exc.value) == ("certificate invalid at step 0: -v v2: witness invalid "
                              "(step 0: removed vertex 'v2' not present)")


# ---------------------------------------------------------------------------
# the one end check


def _cases(seed: int):
    """(record, certificate) for a graph, a complex and a poset certificate."""
    g = random_copwin_graph(random.Random(seed), 9)
    graph = greedy_dismantling_certificate(g)
    cplx = collapse_certificate_for_dismantlable(g)
    poset = weak_point_cascade(g, s_dismantlable_vertices(g)[0])
    return [(GRAPH, graph), (COMPLEX, cplx), (POSET, poset)]


@pytest.mark.parametrize("seed", range(3))
def test_a_certificate_ends_at_the_end_it_names(seed):
    for rules, cert in _cases(seed):
        end = dataclasses.replace(cert.end)  # equal, not the same object
        out = rules.certificate(cert.start, lambda _: cert.moves, end)
        assert out.end is end and out.moves == cert.moves and out.start is cert.start


@pytest.mark.parametrize("seed", range(3))
def test_moves_that_stop_short_of_the_named_end_raise(seed):
    for rules, cert in _cases(seed):
        assert cert.moves
        with pytest.raises(CertificateError) as exc:
            rules.certificate(cert.start, lambda _: cert.moves[:-1], cert.end)
        assert str(exc.value) == f"moves did not end at the given {rules.noun}"
