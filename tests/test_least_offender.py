"""Messages that name one offender among several name the least, so they
read the same under every hash seed."""

import os
import subprocess
import sys

SCRIPT = """
from flagcalc import (CollapsePair, ComplexCertificate, Poset, PosetCertificate,
                      PosetDismantlingOrder, PosetMove, SimplicialComplex,
                      check_complex_certificate, check_poset_certificate, cycle_graph)
from flagcalc.posets import PosetMoveKind
from flagcalc.textio import parse_complex_certificate

def say(f, *args):
    try:
        f(*args)
    except ValueError as exc:
        print(exc)

k = SimplicialComplex.from_maximal(["a"])
say(parse_complex_certificate, "+ a b c d | a b c\\n", k)
pair = CollapsePair(frozenset("abcd"), frozenset("abc"))
print(check_complex_certificate(ComplexCertificate(k, (("+", pair),), k)).reason)
x = Poset.make(["x"])
p = Poset.make("abcdefgh", [("a", "e"), ("b", "f"), ("c", "g"), ("d", "h")])
for q, lower, upper in ((x, "qrst", ""), (p, "efgh", ""), (p, "abcd", "efgh")):
    m = PosetMove(PosetMoveKind.ADD, "n", "below", PosetDismantlingOrder(()),
                  frozenset(lower), frozenset(upper))
    print(check_poset_certificate(PosetCertificate(q, (m,), q)).reason)
g = cycle_graph("abcd")
unknown = {"w", "x", "y", "z"}
for f in (g.induced, g.without_vertices, lambda s: g.with_vertex("n", s), p.induced):
    say(f, unknown)
"""

EXPECTED = """\
line 1: moves do not replay on the start complex: facet [a,b,d] missing
facet [a,b,d] missing
relation endpoint 'q' not present
lower set not downward closed at 'e'
'a' < 'f' would be forced between old elements
unknown vertex 'w'
unknown vertex 'w'
unknown vertex 'w'
unknown element 'w'
"""


def test_the_least_offender_is_named_under_every_hash_seed():
    import flagcalc

    src = os.path.dirname(os.path.dirname(os.path.abspath(flagcalc.__file__)))
    for hash_seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout
        assert out == EXPECTED
