"""A golden digest of canonical labeling.

`CANONICAL_GOLDEN` is the digest of `_canonical_full` over the graphs below,
recorded before canonical labeling moved onto integer indices, so any change
to an encoding or a perm shows up here.  The graphs are the search
benchmark's vertex-transitive family (cycles, hypercubes and suspensions,
labelled as there), a seeded relabelled copy of each, and 200 seeded G(n, p)
with n <= 30 relabelled v<k> with k up to 999, whose string order (v10 < v2)
is not numeric order.  The draws with n <= 12 are also checked against the
full individualisation-refinement tree of tests/helpers.py.
"""

import hashlib
import itertools
import random

import pytest

from flagcalc import Graph
from flagcalc import graphs

from .helpers import mixed_width_relabel, naive_canonical_full

CANONICAL_GOLDEN = "ab431ed4faed3723ff41fa340b133574971d73247ab7e38e5e56b9d52194f3b2"


def _cycle(n: int) -> Graph:
    vs = [f"c{i}" for i in range(n)]
    return Graph.make(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


def _path(n: int) -> Graph:
    vs = [f"p{i}" for i in range(n)]
    return Graph.make(vs, [(vs[i], vs[i + 1]) for i in range(n - 1)])


def _hypercube(d: int) -> Graph:
    vs = ["q" + format(i, f"0{d}b") for i in range(2 ** d)]
    return Graph.make(vs, [(vs[i], vs[i ^ (1 << b)])
                           for i in range(2 ** d) for b in range(d) if i < i ^ (1 << b)])


def _suspension(g: Graph) -> Graph:
    return Graph.make(g.vertices | {"s_top", "s_bot"},
                      set(g.edges) | {(apex, v) for apex in ("s_top", "s_bot")
                                      for v in g.vertices})


def vertex_transitive_family() -> list[Graph]:
    out = [_cycle(n) for n in (4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16, 18, 20, 24,
                               32, 36, 38, 40, 42, 44, 46, 48, 52, 56, 64, 72)]
    out += [_hypercube(d) for d in (2, 3, 4, 5)]
    out += [_suspension(_cycle(n)) for n in (4, 9, 16, 24, 32, 40, 48, 56)]
    out += [_suspension(_path(n)) for n in (2, 3, 4, 5, 6, 7, 9)]
    out += [_suspension(_hypercube(d)) for d in (3, 4)]
    return out


def gnp_draws() -> list[Graph]:
    rng = random.Random(2020)
    out = []
    for _ in range(200):
        n, p = rng.randint(1, 30), rng.choice((0.1, 0.3, 0.5, 0.8))
        g = Graph.make(map(str, range(n)), [
            (str(a), str(b)) for a, b in itertools.combinations(range(n), 2)
            if rng.random() < p])
        out.append(mixed_width_relabel(g, rng, range(1000)))
    return out


GNP = gnp_draws()


def golden_graphs() -> list[Graph]:
    rng = random.Random(2014)
    family = vertex_transitive_family()
    return family + [mixed_width_relabel(g, rng, range(1000)) for g in family] + GNP


def test_canonical_labeling_matches_its_golden_digest():
    text = repr([graphs._canonical_full(g) for g in golden_graphs()])
    assert hashlib.sha256(text.encode()).hexdigest() == CANONICAL_GOLDEN


@pytest.mark.parametrize("i", [i for i, g in enumerate(GNP) if len(g.vertices) <= 12])
def test_small_draws_match_the_full_tree(i):
    g = GNP[i]
    assert graphs._canonical_full(g) == naive_canonical_full(g)
