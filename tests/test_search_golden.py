"""Golden values for the backtracking searches.

Each entry pins the outcome, the node count and a digest of the formatted
certificate of one search on one input, so a change to the exploration order,
the memo of failed states or the node counting shows up here.  The inputs are
the corpus graphs and twenty seeded G(n, p) with n <= 9.  A search without a
target answers a start whose clique complex has homology NO in 0 nodes; each
such s row was checked against tests/helpers.exhaustive_s_collapsible.

MIXED_GOLDEN pins s and ws searches on graphs relabelled v<k> with numbers of
one to three digits, whose string order (v10 < v2) differs from their numeric
order, so moves and witnesses must follow label order, not insertion order.
"""

import hashlib
import random

import pytest

from flagcalc import corpus, textio
from flagcalc.dismantling import dismantles_onto, s_collapse_search, ws_reduction_search
from flagcalc.identities import random_graph
from flagcalc.simplicial import clique_complex, collapse_search

from .helpers import mixed_width_relabel


def _graphs():
    out = [(name, fx.builder()) for name, fx in sorted(corpus.FIXTURES.items())
           if fx.kind == "graph"]
    rng = random.Random(2024)
    for i in range(20):
        n = rng.randint(5, 9)
        out.append((f"gnp{i}", random_graph(rng, n, rng.choice((0.5, 0.6, 0.7, 0.8)))))
    return out


def _cases():
    for name, g in _graphs():
        vs = g.sorted_vertices()
        for budget in (3, 2000):
            yield f"s/{name}/{budget}", lambda g=g, b=budget: s_collapse_search(g, b)
        if len(vs) <= 8:
            yield f"ws/{name}", lambda g=g: ws_reduction_search(g, None, 300)
            if g.edges:
                t = g.without_edge(*g.sorted_edges()[0])
                yield f"ws-target/{name}", lambda g=g, t=t: ws_reduction_search(g, t, 300)
        target = g.induced(vs[: max(1, len(vs) // 2)])
        yield f"onto/{name}", lambda g=g, t=target: dismantles_onto(g, t, 2000)
        if len(vs) <= 8:
            yield f"collapse/{name}", lambda g=g: collapse_search(clique_complex(g), None, 300)
            t = clique_complex(g.without_vertex(vs[0]))
            yield (f"collapse-target/{name}",
                   lambda g=g, t=t: collapse_search(clique_complex(g), t, 300))


def _certificate_digest(cert) -> str | None:
    if cert is None:
        return None
    if hasattr(cert.start, "vertices"):
        text = textio.format_move_certificate(cert)
    else:
        text = textio.format_complex_certificate(cert)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


GOLDEN = {
    's/dunce-hat-graph/3': ('no', 1, None),
    's/dunce-hat-graph/2000': ('no', 1, None),
    'onto/dunce-hat-graph': ('no', 1, None),
    's/edge-link-3/3': ('no', 0, None),
    's/edge-link-3/2000': ('no', 0, None),
    'ws/edge-link-3': ('no', 0, None),
    'ws-target/edge-link-3': ('no', 1, None),
    'onto/edge-link-3': ('no', 2, None),
    'collapse/edge-link-3': ('no', 0, None),
    'collapse-target/edge-link-3': ('yes', 1, 'cf87dfc4b8a68626'),
    's/prism-6/3': ('no', 0, None),
    's/prism-6/2000': ('no', 0, None),
    'ws/prism-6': ('no', 0, None),
    'ws-target/prism-6': ('yes', 1, 'e99488f1f0689eeb'),
    'onto/prism-6': ('no', 1, None),
    'collapse/prism-6': ('no', 0, None),
    'collapse-target/prism-6': ('no', 3, None),
    's/rigid-s-collapsible-8/3': ('unknown', 3, None),
    's/rigid-s-collapsible-8/2000': ('yes', 7, '354eda721622cd32'),
    'ws/rigid-s-collapsible-8': ('yes', 7, '354eda721622cd32'),
    'ws-target/rigid-s-collapsible-8': ('yes', 1, '611154c53d06b578'),
    'onto/rigid-s-collapsible-8': ('no', 1, None),
    'collapse/rigid-s-collapsible-8': ('yes', 17, '61447e47aa7e2894'),
    'collapse-target/rigid-s-collapsible-8': ('yes', 4, 'cfabb6355d1aec2e'),
    's/six-regular-10/3': ('no', 0, None),
    's/six-regular-10/2000': ('no', 0, None),
    'onto/six-regular-10': ('no', 1, None),
    's/stuck-7-vertex/3': ('no', 0, None),
    's/stuck-7-vertex/2000': ('no', 0, None),
    'ws/stuck-7-vertex': ('no', 0, None),
    'ws-target/stuck-7-vertex': ('yes', 1, '611154c53d06b578'),
    'onto/stuck-7-vertex': ('no', 1, None),
    'collapse/stuck-7-vertex': ('no', 0, None),
    'collapse-target/stuck-7-vertex': ('no', 3, None),
    's/stuck-7-vertex-reduced/3': ('no', 0, None),
    's/stuck-7-vertex-reduced/2000': ('no', 0, None),
    'ws/stuck-7-vertex-reduced': ('no', 0, None),
    'ws-target/stuck-7-vertex-reduced': ('no', 1, None),
    'onto/stuck-7-vertex-reduced': ('no', 1, None),
    'collapse/stuck-7-vertex-reduced': ('no', 0, None),
    'collapse-target/stuck-7-vertex-reduced': ('no', 1, None),
    's/subdivision-demo-7/3': ('no', 0, None),
    's/subdivision-demo-7/2000': ('no', 0, None),
    'ws/subdivision-demo-7': ('no', 0, None),
    'ws-target/subdivision-demo-7': ('no', 1, None),
    'onto/subdivision-demo-7': ('no', 4, None),
    'collapse/subdivision-demo-7': ('no', 0, None),
    'collapse-target/subdivision-demo-7': ('no', 1, None),
    's/gnp0/3': ('no', 0, None),
    's/gnp0/2000': ('no', 0, None),
    'ws/gnp0': ('no', 0, None),
    'ws-target/gnp0': ('yes', 1, '0dc54ef473fc2172'),
    'onto/gnp0': ('no', 3, None),
    'collapse/gnp0': ('no', 0, None),
    'collapse-target/gnp0': ('yes', 6, 'c19f9df3b2eea8d6'),
    's/gnp1/3': ('unknown', 3, None),
    's/gnp1/2000': ('yes', 4, '9510eab78edcffee'),
    'ws/gnp1': ('yes', 4, '9510eab78edcffee'),
    'ws-target/gnp1': ('yes', 1, '4ab0ebb09a7c1ac1'),
    'onto/gnp1': ('no', 3, None),
    'collapse/gnp1': ('yes', 8, '73657d1b34ad85a9'),
    'collapse-target/gnp1': ('yes', 3, '08c1c3e4fc8e3389'),
    's/gnp2/3': ('no', 0, None),
    's/gnp2/2000': ('no', 0, None),
    'ws/gnp2': ('no', 0, None),
    'ws-target/gnp2': ('no', 1, None),
    'onto/gnp2': ('no', 1, None),
    'collapse/gnp2': ('no', 0, None),
    'collapse-target/gnp2': ('yes', 1, '73c0ca0853f5ceeb'),
    's/gnp3/3': ('unknown', 3, None),
    's/gnp3/2000': ('yes', 5, '2f2102141a522e80'),
    'ws/gnp3': ('yes', 5, '2f2102141a522e80'),
    'ws-target/gnp3': ('yes', 1, '180b511b09c92d2c'),
    'onto/gnp3': ('yes', 3, 'a2c8078c136267db'),
    'collapse/gnp3': ('yes', 13, 'f822bd9634096dad'),
    'collapse-target/gnp3': ('yes', 4, '058a4d9c29ba89bb'),
    's/gnp4/3': ('unknown', 3, None),
    's/gnp4/2000': ('yes', 5, '8cbdc93e451a6226'),
    'ws/gnp4': ('yes', 5, '8cbdc93e451a6226'),
    'ws-target/gnp4': ('yes', 1, '0a782a2c180d1064'),
    'onto/gnp4': ('yes', 3, 'bb0db7bae09d0b7b'),
    'collapse/gnp4': ('yes', 17, '5f777935c79e4e56'),
    'collapse-target/gnp4': ('yes', 9, '37f306b6f3c921a9'),
    's/gnp5/3': ('no', 0, None),
    's/gnp5/2000': ('no', 0, None),
    'ws/gnp5': ('no', 0, None),
    'ws-target/gnp5': ('no', 1, None),
    'onto/gnp5': ('no', 4, None),
    'collapse/gnp5': ('no', 0, None),
    'collapse-target/gnp5': ('no', 1, None),
    's/gnp6/3': ('no', 0, None),
    's/gnp6/2000': ('no', 0, None),
    'onto/gnp6': ('no', 1, None),
    's/gnp7/3': ('unknown', 3, None),
    's/gnp7/2000': ('yes', 5, '1a94f71169842710'),
    'ws/gnp7': ('yes', 5, '1a94f71169842710'),
    'ws-target/gnp7': ('yes', 1, '180b511b09c92d2c'),
    'onto/gnp7': ('yes', 3, 'c6ca0dc4de0fee70'),
    'collapse/gnp7': ('yes', 15, '262c6f002d3c9442'),
    'collapse-target/gnp7': ('yes', 8, 'b43fc9338237ee29'),
    's/gnp8/3': ('no', 0, None),
    's/gnp8/2000': ('no', 0, None),
    'ws/gnp8': ('no', 0, None),
    'ws-target/gnp8': ('no', 1, None),
    'onto/gnp8': ('no', 2, None),
    'collapse/gnp8': ('no', 0, None),
    'collapse-target/gnp8': ('no', 6, None),
    's/gnp9/3': ('no', 0, None),
    's/gnp9/2000': ('no', 0, None),
    'ws/gnp9': ('no', 0, None),
    'ws-target/gnp9': ('no', 1, None),
    'onto/gnp9': ('yes', 3, '6ce18a6629ba93cd'),
    'collapse/gnp9': ('no', 0, None),
    'collapse-target/gnp9': ('no', 1, None),
    's/gnp10/3': ('no', 0, None),
    's/gnp10/2000': ('no', 0, None),
    'ws/gnp10': ('no', 0, None),
    'ws-target/gnp10': ('no', 1, None),
    'onto/gnp10': ('no', 4, None),
    'collapse/gnp10': ('no', 0, None),
    'collapse-target/gnp10': ('yes', 1, 'ee556eab9bc4b40e'),
    's/gnp11/3': ('unknown', 3, None),
    's/gnp11/2000': ('yes', 8, 'be2e5a8144b4c366'),
    'onto/gnp11': ('yes', 5, 'df929b428aeb3483'),
    's/gnp12/3': ('unknown', 3, None),
    's/gnp12/2000': ('yes', 8, '8d93464afe1114df'),
    'onto/gnp12': ('yes', 5, '0eadf80c0664786a'),
    's/gnp13/3': ('unknown', 3, None),
    's/gnp13/2000': ('yes', 6, 'd1683f4ce4a25f32'),
    'ws/gnp13': ('yes', 6, 'd1683f4ce4a25f32'),
    'ws-target/gnp13': ('yes', 1, '4ab0ebb09a7c1ac1'),
    'onto/gnp13': ('no', 4, None),
    'collapse/gnp13': ('yes', 17, 'a1a600a3378fb41e'),
    'collapse-target/gnp13': ('yes', 2, '27416c7ccd85e297'),
    's/gnp14/3': ('unknown', 3, None),
    's/gnp14/2000': ('yes', 4, 'c9ff5d9748badfc4'),
    'ws/gnp14': ('yes', 4, 'c9ff5d9748badfc4'),
    'ws-target/gnp14': ('no', 1, None),
    'onto/gnp14': ('yes', 3, '69b87a433d559566'),
    'collapse/gnp14': ('yes', 7, '6c53a5e2f93f906a'),
    'collapse-target/gnp14': ('yes', 4, '2314fd1c71990738'),
    's/gnp15/3': ('unknown', 3, None),
    's/gnp15/2000': ('yes', 5, 'd911f4f77c53a521'),
    'ws/gnp15': ('yes', 5, 'd911f4f77c53a521'),
    'ws-target/gnp15': ('no', 1, None),
    'onto/gnp15': ('yes', 3, '7ebb48b4285f77ce'),
    'collapse/gnp15': ('yes', 17, '538998fa1dd39996'),
    'collapse-target/gnp15': ('yes', 9, '306da314db946125'),
    's/gnp16/3': ('unknown', 3, None),
    's/gnp16/2000': ('yes', 6, 'a14c3e694a8bf25f'),
    'ws/gnp16': ('yes', 6, 'a14c3e694a8bf25f'),
    'ws-target/gnp16': ('yes', 1, '0a782a2c180d1064'),
    'onto/gnp16': ('yes', 4, 'f545f342c9bee483'),
    'collapse/gnp16': ('yes', 29, '1d45a8751230d3da'),
    'collapse-target/gnp16': ('yes', 10, 'ad76c7af65f561e5'),
    's/gnp17/3': ('unknown', 3, None),
    's/gnp17/2000': ('yes', 4, '36144636f6efa819'),
    'ws/gnp17': ('yes', 4, '36144636f6efa819'),
    'ws-target/gnp17': ('no', 1, None),
    'onto/gnp17': ('yes', 3, 'c5306a7011469079'),
    'collapse/gnp17': ('yes', 9, 'e3ecf00ed70d9365'),
    'collapse-target/gnp17': ('yes', 5, '2a5f89fc34dbd4b6'),
    's/gnp18/3': ('unknown', 3, None),
    's/gnp18/2000': ('yes', 4, '5ed17dc7b2fd2b39'),
    'ws/gnp18': ('yes', 4, '5ed17dc7b2fd2b39'),
    'ws-target/gnp18': ('yes', 1, '4ab0ebb09a7c1ac1'),
    'onto/gnp18': ('no', 3, None),
    'collapse/gnp18': ('yes', 5, '8a5f303790e705ff'),
    'collapse-target/gnp18': ('no', 3, None),
    's/gnp19/3': ('unknown', 3, None),
    's/gnp19/2000': ('yes', 8, 'dbb6ad5107973dfe'),
    'onto/gnp19': ('yes', 5, 'bc5b97f2260eaa47'),
}


def test_golden_table_covers_every_case():
    assert [ident for ident, _ in _cases()] == list(GOLDEN)


@pytest.mark.parametrize("ident,run", list(_cases()), ids=[i for i, _ in _cases()])
def test_search_matches_golden(ident, run):
    verdict = run()
    got = (verdict.outcome.value, verdict.stats.nodes, _certificate_digest(verdict.certificate))
    assert got == GOLDEN[ident]


MIXED_LABELS = (1, 2, 3, 7, 9, 10, 12, 25, 31, 99, 100, 101, 120, 200)


def _mixed_cases():
    rng = random.Random(19)
    graphs = [(f"mixed-{name}",
               mixed_width_relabel(corpus.FIXTURES[name].builder(), rng, MIXED_LABELS))
              for name in ("rigid-s-collapsible-8", "stuck-7-vertex", "subdivision-demo-7")]
    for i in range(12):
        n = rng.randint(6, 11)
        g = random_graph(rng, n, rng.choice((0.5, 0.6, 0.7)))
        graphs.append((f"mixed-gnp{i}", mixed_width_relabel(g, rng, MIXED_LABELS)))
    for name, g in graphs:
        for budget in (3, 2000):
            yield f"s/{name}/{budget}", lambda g=g, b=budget: s_collapse_search(g, b)
        if len(g.vertices) <= 9:
            yield f"ws/{name}", lambda g=g: ws_reduction_search(g, None, 300)
            if g.edges:
                t = g.without_edge(*g.sorted_edges()[0])
                yield f"ws-target/{name}", lambda g=g, t=t: ws_reduction_search(g, t, 300)


MIXED_GOLDEN = {
    's/mixed-rigid-s-collapsible-8/3': ('unknown', 3, None),
    's/mixed-rigid-s-collapsible-8/2000': ('yes', 7, 'a5dd87b64ab2dec0'),
    'ws/mixed-rigid-s-collapsible-8': ('yes', 7, 'a5dd87b64ab2dec0'),
    'ws-target/mixed-rigid-s-collapsible-8': ('yes', 1, '4cb2df161d39e933'),
    's/mixed-stuck-7-vertex/3': ('no', 0, None),
    's/mixed-stuck-7-vertex/2000': ('no', 0, None),
    'ws/mixed-stuck-7-vertex': ('no', 0, None),
    'ws-target/mixed-stuck-7-vertex': ('no', 1, None),
    's/mixed-subdivision-demo-7/3': ('no', 0, None),
    's/mixed-subdivision-demo-7/2000': ('no', 0, None),
    'ws/mixed-subdivision-demo-7': ('no', 0, None),
    'ws-target/mixed-subdivision-demo-7': ('no', 1, None),
    's/mixed-gnp0/3': ('unknown', 3, None),
    's/mixed-gnp0/2000': ('yes', 5, 'ef8193020930fab6'),
    'ws/mixed-gnp0': ('yes', 5, 'ef8193020930fab6'),
    'ws-target/mixed-gnp0': ('yes', 1, 'f11116634c531d8d'),
    's/mixed-gnp1/3': ('unknown', 3, None),
    's/mixed-gnp1/2000': ('yes', 9, '15adcd0cf23891d0'),
    's/mixed-gnp2/3': ('unknown', 3, None),
    's/mixed-gnp2/2000': ('yes', 10, 'c2f3bfb2c603bc3f'),
    's/mixed-gnp3/3': ('unknown', 3, None),
    's/mixed-gnp3/2000': ('yes', 5, 'b5284c936247832a'),
    'ws/mixed-gnp3': ('yes', 5, 'b5284c936247832a'),
    'ws-target/mixed-gnp3': ('yes', 1, '6d931b8ab34e891f'),
    's/mixed-gnp4/3': ('no', 0, None),
    's/mixed-gnp4/2000': ('no', 0, None),
    'ws/mixed-gnp4': ('no', 0, None),
    'ws-target/mixed-gnp4': ('no', 1, None),
    's/mixed-gnp5/3': ('unknown', 3, None),
    's/mixed-gnp5/2000': ('yes', 6, '8d19aa75490f52a8'),
    'ws/mixed-gnp5': ('yes', 6, '8d19aa75490f52a8'),
    'ws-target/mixed-gnp5': ('yes', 1, '0a5ee47592f1c6fb'),
    's/mixed-gnp6/3': ('unknown', 3, None),
    's/mixed-gnp6/2000': ('yes', 9, '98b4747857adbe5b'),
    's/mixed-gnp7/3': ('unknown', 3, None),
    's/mixed-gnp7/2000': ('yes', 7, 'a0d064fac3d1da8e'),
    'ws/mixed-gnp7': ('yes', 7, 'a0d064fac3d1da8e'),
    'ws-target/mixed-gnp7': ('yes', 1, '9a28abd13ec36396'),
    's/mixed-gnp8/3': ('no', 0, None),
    's/mixed-gnp8/2000': ('no', 0, None),
    'ws/mixed-gnp8': ('no', 0, None),
    'ws-target/mixed-gnp8': ('no', 1, None),
    's/mixed-gnp9/3': ('no', 0, None),
    's/mixed-gnp9/2000': ('no', 0, None),
    'ws/mixed-gnp9': ('no', 0, None),
    'ws-target/mixed-gnp9': ('yes', 1, '0f2969cd76e5d989'),
    's/mixed-gnp10/3': ('unknown', 3, None),
    's/mixed-gnp10/2000': ('yes', 8, 'b0598263d52094a8'),
    'ws/mixed-gnp10': ('yes', 8, 'b0598263d52094a8'),
    'ws-target/mixed-gnp10': ('yes', 1, 'c0889b1ec776e458'),
    's/mixed-gnp11/3': ('no', 0, None),
    's/mixed-gnp11/2000': ('no', 0, None),
    'ws/mixed-gnp11': ('no', 0, None),
    'ws-target/mixed-gnp11': ('no', 1, None),
}


def test_mixed_golden_table_covers_every_case():
    assert [ident for ident, _ in _mixed_cases()] == list(MIXED_GOLDEN)


@pytest.mark.parametrize("ident,run", list(_mixed_cases()), ids=[i for i, _ in _mixed_cases()])
def test_mixed_label_search_matches_golden(ident, run):
    verdict = run()
    got = (verdict.outcome.value, verdict.stats.nodes, _certificate_digest(verdict.certificate))
    assert got == MIXED_GOLDEN[ident]
