import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from flagcalc import (
    CollapsePair,
    ComplexError,
    Graph,
    GraphError,
    GraphMove,
    MoveKind,
    Outcome,
    Poset,
    PosetError,
    SimplicialComplex,
    complete_graph,
    realize_edge_deletion,
    s_collapse_search,
)
from flagcalc.corpus import s_collapsible_rigid_graph, six_regular_graph
from flagcalc.dismantling import GRAPH, cone_order
from flagcalc.identities import random_complex, random_graph, random_poset
from flagcalc.simplicial import ANTICOLLAPSE, COLLAPSE, COMPLEX
from flagcalc.textio import (
    TEXT_FORMS,
    ParseError,
    format_complex,
    format_complex_certificate,
    format_graph,
    format_move_certificate,
    format_poset,
    parse_complex,
    parse_complex_certificate,
    parse_graph,
    parse_move_certificate,
    parse_poset,
)

from .test_cli import _cli


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_graph_round_trip(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(0, 7), rng.choice((0.3, 0.5, 0.7)))
    text = format_graph(g)
    assert parse_graph(text) == g
    assert format_graph(parse_graph(text)) == text


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_complex_round_trip(seed):
    rng = random.Random(seed)
    k = random_complex(rng, rng.randint(1, 5), 0.5)
    text = format_complex(k)
    assert parse_complex(text) == k
    assert format_complex(parse_complex(text)) == text


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_poset_round_trip(seed):
    rng = random.Random(seed)
    p = random_poset(rng, rng.randint(0, 6), rng.choice((0.3, 0.5, 0.7)))
    text = format_poset(p)
    assert parse_poset(text) == p
    assert format_poset(parse_poset(text)) == text


def test_graph_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_graph("v a\nv a\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError):
        parse_graph("v a\ne a b\n")
    with pytest.raises(ParseError):
        parse_graph("v a\nv b\ne a b\ne b a\n")
    with pytest.raises(ParseError):
        parse_graph("x nope\n")


def test_graph_format_ignores_comments_and_blanks():
    g = parse_graph("# a comment\n\nv a\nv b\ne a b\n")
    assert g == complete_graph("ab")


def test_poset_parse_errors():
    with pytest.raises(ParseError):
        parse_poset("p a\np a\n")
    with pytest.raises(ParseError):
        parse_poset("p a\n< a b\n")
    # closure catches cycles introduced by covers
    with pytest.raises(ParseError):
        parse_poset("p a\np b\n< a b\n< b a\n")


def test_complex_parse_errors():
    with pytest.raises(ParseError):
        parse_complex("a b a\n")


@pytest.mark.parametrize("parse,text,line", [
    (parse_graph, "v d\nv e\nv z:z\ne d e\n", 3),  # its witness step would read z:z:d
    (parse_graph, "v #a\nv b\ne #a b\n", 1),        # written back, `#a b` is a comment
    (parse_graph, "v p,q\n", 1),                    # an attachment list would split it
    (parse_complex, "c d\na|b c\n", 2),             # a collapse pair would split it
    (parse_complex, "c #d\n", 1),
    (parse_poset, "p a\np x:y\n", 2),
])
def test_labels_a_text_form_cannot_write_back_are_rejected(parse, text, line):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line_no == line


def test_subset_labels_keep_their_commas():
    g = parse_graph("v [p,q]\nv r\ne [p,q] r\n")
    assert parse_graph(format_graph(g)) == g
    assert parse_complex("[p,q] r\n").vertex_set == {"[p,q]", "r"}


@pytest.mark.parametrize("parse,text,line", [
    (parse_graph, "v a\nv b c\n", 2),             # a unit line holds one label
    (parse_poset, "p a\np b c\n", 2),
    (parse_graph, "v a\nv a|b\n", 2),             # a label a text form cannot write back
    (parse_poset, "p a\np a|b\n", 2),
    (parse_graph, "v a\nv b\nv a\n", 3),          # a duplicate label
    (parse_poset, "p a\np b\np a\n", 3),
    (parse_graph, "v a\nv b\ne a\n", 3),          # a pair line holds two labels
    (parse_poset, "p a\np b\n< a b c\n", 3),
    (parse_graph, "v a\ne a b\n", 2),             # an undeclared label
    (parse_poset, "p a\n< b a\n", 2),
    (parse_graph, "v b\ne a a\n", 2),             # undeclared comes before paired with itself
    (parse_poset, "p b\n< a a\n", 2),
    (parse_graph, "v a\nv b\ne b b\n", 3),        # a label paired with itself
    (parse_poset, "p a\np b\n< b b\n", 3),
    (parse_graph, "v a\nv b\ne a b\ne a b\n", 4),  # a duplicate pair
    (parse_poset, "p a\np b\n< a b\n< a b\n", 4),
    (parse_graph, "v a\nv b\ne a b\ne b a\n", 4),  # an edge is unordered
    (parse_poset, "p a\np b\n< a b\n< b a\n", None),  # a cover is ordered: a cycle
    (parse_graph, "v a\np b\n", 2),               # an unknown directive
    (parse_poset, "p a\nv b\n", 2),
])
def test_graph_and_poset_readers_locate_the_same_errors(parse, text, line):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line_no == line


@pytest.mark.parametrize("label", ["[a],[b]", "[a,b", "a]"])
def test_graph_labels_an_attachment_list_would_misread_are_rejected(label):
    with pytest.raises(ParseError) as err:
        parse_graph(f"v [a]\nv [b]\nv {label}\ne [a] [b]\n")
    assert err.value.line_no == 3


def test_bracketed_graph_labels_that_read_back_whole_still_parse():
    g = parse_graph("v [p,q]\nv a[1]\nv [[a],[a,b]]\n"
                    "e [p,q] a[1]\ne [p,q] [[a],[a,b]]\ne a[1] [[a],[a,b]]\n")
    assert g.vertices == {"[p,q]", "a[1]", "[[a],[a,b]]"}
    cert = realize_edge_deletion(g, ("[p,q]", "a[1]"))
    text = format_move_certificate(cert)
    assert text.startswith("+v _x1 ")
    assert parse_move_certificate(text, g) == cert


_WRITERS = {  # each kind's writer on a value holding label x beside z, and its error
    "graph": (lambda x: format_graph(Graph.make([x, "z"], [(x, "z")])), GraphError),
    "complex": (lambda x: format_complex(SimplicialComplex.from_maximal([[x, "z"]])),
                ComplexError),
    "poset": (lambda x: format_poset(Poset.make([x, "z"], [(x, "z")])), PosetError),
}


@pytest.mark.parametrize("kind", sorted(_WRITERS))
@pytest.mark.parametrize("label", ["a b", "a\tb", "a\nb", "", "x:y", "x|y", "#a", "a,b"])
def test_writers_refuse_a_label_their_reader_would_refuse(kind, label):
    write, error = _WRITERS[kind]
    with pytest.raises(error) as err:
        write(label)
    assert repr(label) in str(err.value)


@pytest.mark.parametrize("label", ["[a", "a]", "[a],[b]", "[a,b"])
def test_graph_writer_refuses_a_label_an_attachment_list_would_misread(label):
    write, error = _WRITERS["graph"]
    with pytest.raises(error) as err:
        write(label)
    assert str(err.value) == (f"label {label!r} would not read back whole from an "
                              "attachment list; nothing written")
    for kind in ("complex", "poset"):  # their readers take the label, so their writers do
        text = _WRITERS[kind][0](label)
        assert TEXT_FORMS[kind].format(TEXT_FORMS[kind].parse(text)) == text


@pytest.mark.parametrize("kind, value", [
    ("graph", Graph.make(["x:y", "#b", "z"], [("x:y", "#b")])),
    ("complex", SimplicialComplex.from_maximal([["x:y", "#b"], ["z"]])),
    ("poset", Poset.make(["x:y", "#b", "z"], [("x:y", "#b")])),
])
def test_writers_name_the_least_bad_label(kind, value):
    with pytest.raises(_WRITERS[kind][1]) as err:
        TEXT_FORMS[kind].format(value)
    assert str(err.value) == "label '#b' starts with '#'; nothing written"


@pytest.mark.parametrize("start, moves, message", [
    # a witness step would read back as three fields
    (complete_graph(["a", "b", "x:y"]),
     lambda adj: [GraphMove(MoveKind.REMOVE_VERTEX, "a", witness=cone_order(adj["a"], "b"))],
     "label 'x:y' holds ':' or '|'"),
    # an added label: `+v #b a` would read back as a comment; '#b' comes before 'x:y'
    (Graph.make(["a", "x:y"], [("a", "x:y")]),
     lambda adj: [GraphMove(MoveKind.ADD_VERTEX, "#b", witness=cone_order("a", "a"),
                            attachment=frozenset("a"))],
     "label '#b' starts with '#'"),
], ids=["witness-step", "added-vertex"])
def test_move_certificate_writer_refuses_a_label_its_parser_refuses(start, moves, message):
    cert = GRAPH.certificate(start, moves)
    with pytest.raises(GraphError) as err:
        format_move_certificate(cert)
    assert str(err.value) == f"{message}; nothing written"


@pytest.mark.parametrize("start, move, message", [
    # unchecked, this is written `- a b z | z`, which reads back as [a,b,z]
    (SimplicialComplex.from_maximal([["a b", "z"]]),
     (COLLAPSE, CollapsePair(frozenset({"a b", "z"}), frozenset({"z"}))),
     "label 'a b' is empty or holds whitespace"),
    (SimplicialComplex.from_maximal([["a"]]),
     (ANTICOLLAPSE, CollapsePair(frozenset({"a", "x|y"}), frozenset({"x|y"}))),
     "label 'x|y' holds ':' or '|'"),
], ids=["start-simplex", "anticollapse"])
def test_complex_certificate_writer_refuses_a_label_its_parser_refuses(start, move, message):
    cert = COMPLEX.certificate(start, lambda _: [move])
    with pytest.raises(ComplexError) as err:
        format_complex_certificate(cert)
    assert str(err.value) == f"{message}; nothing written"


def test_reduce_rejects_a_label_its_certificate_cannot_hold(tmp_path, capsys):
    from flagcalc.cli import main

    graph = tmp_path / "k3.graph"
    graph.write_text("v d\nv e\nv z:z\ne d e\ne d z:z\ne e z:z\n")
    assert main(["reduce", str(graph), "--mode", "dismantle"]) == 3
    assert "line 3: label 'z:z'" in capsys.readouterr().err


def test_move_certificate_round_trip():
    g = s_collapsible_rigid_graph()
    verdict = s_collapse_search(g)
    assert verdict.outcome is Outcome.YES
    cert = verdict.certificate
    text = format_move_certificate(cert)
    back = parse_move_certificate(text, g)
    assert back == cert
    assert format_move_certificate(back) == text


def test_move_certificate_parse_errors():
    g = complete_graph("ab")
    with pytest.raises(ParseError):
        parse_move_certificate("-v a\n", g)  # missing witness line
    with pytest.raises(ParseError):
        parse_move_certificate("-v a\nw b:c:d\n", g)
    with pytest.raises(ParseError):
        parse_move_certificate("!v a\nw\n", g)


def test_mixed_move_certificate_round_trip():
    import random

    from flagcalc import check_certificate
    from flagcalc.identities import random_graph

    from .helpers import random_ws_move_certificate

    rng = random.Random(5)
    seen_kinds = set()
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 6), rng.choice((0.3, 0.5, 0.7)))
        cert = random_ws_move_certificate(rng, g, rng.randint(2, 7))
        assert check_certificate(cert).ok
        text = format_move_certificate(cert)
        back = parse_move_certificate(text, g)
        assert back == cert
        assert format_move_certificate(back) == text
        seen_kinds.update(m.kind.value for m in cert.moves)
    assert seen_kinds == {"+v", "-v", "+e", "-e"}


def test_complex_certificate_round_trip():
    from flagcalc import clique_complex
    from flagcalc.simplicial import COLLAPSE, ComplexCertificate, apply_pair_unchecked, free_pairs
    k = clique_complex(six_regular_graph())
    pair = free_pairs(k)[0]
    cert = ComplexCertificate(k, ((COLLAPSE, pair),),
                              apply_pair_unchecked(k, COLLAPSE, pair))
    text = format_complex_certificate(cert)
    back = parse_complex_certificate(text, k)
    assert back == cert
    assert format_complex_certificate(back) == text


def test_complex_certificate_moves_must_fit_the_start():
    from flagcalc import SimplicialComplex, check_complex_certificate

    k = parse_complex("a b\n")
    for text, line in (("- a b | a\n- a b | a\n", 2),  # the pair is already gone
                       ("+ x y z | q\n", 1),           # not a facet pair
                       ("# add\n+ b c | c\n+ a b | a\n", 3),  # already present
                       ("+ b c d | c d\n", 1)):        # facets b c and b d missing
        with pytest.raises(ParseError) as err:
            parse_complex_certificate(text, k)
        assert err.value.line_no == line, text
    cert = parse_complex_certificate("- a b | a\n+ b c | c\n", k)
    assert cert.end == SimplicialComplex.from_maximal(["bc"])
    # b also lies in b c, so it is not free in a b: the collapse would leave a
    # family that is not a complex, so the parser refuses it at its line
    k = parse_complex("a b\nb c\n")
    with pytest.raises(ParseError, match=r"^line 1: .*\[b\] is also a face of \[b,c\]$") as err:
        parse_complex_certificate("- a b | b\n", k)
    assert err.value.line_no == 1
    assert check_complex_certificate(parse_complex_certificate("- a b | a\n", k))


def test_subdivision_certificates_round_trip():
    from flagcalc import barycentric_graph, check_certificate
    from flagcalc.corpus import subdivision_demo_graph
    from flagcalc.identities import subdivision_certificate

    # hat labels such as [a,b] hold commas; one level up they nest: [[a],[a,b]]
    for g in (subdivision_demo_graph(), barycentric_graph(complete_graph("ab"))):
        cert = subdivision_certificate(g)
        text = format_move_certificate(cert)
        back = parse_move_certificate(text, g)
        assert back == cert
        assert check_certificate(back).ok
        assert format_move_certificate(back) == text
    assert "[[a,b],[b]]" in text


def test_move_parse_errors_name_their_line():
    g = complete_graph("ab")
    for text, line in (("-v a\nw\n+v x [a,b\nw\n", 3),   # unbalanced brackets
                       ("-v a\nw\n+v x a],[b\nw\n", 3),
                       ("-v a\nw\n-v a\nw\n", 3),         # does not replay
                       ("-v a\nw\n+v x ,\nw\n", 3),      # empty attachment
                       ("# start\n-e a b\nw\n+e a a\nw\n", 4)):
        with pytest.raises(ParseError) as err:
            parse_move_certificate(text, g)
        assert err.value.line_no == line, text


_PARSE_MISSING_ATTACHMENT = """
from flagcalc import complete_graph
from flagcalc.textio import ParseError, parse_move_certificate
try:
    parse_move_certificate("+v x p,q,r,s\\nw\\n", complete_graph("ab"))
except ParseError as exc:
    print(exc)
"""


def test_move_parse_errors_do_not_depend_on_the_hash_seed():
    outs = []
    for hash_seed in ("0", "1"):
        _, env = _cli(hash_seed=hash_seed)
        outs.append(subprocess.run([sys.executable, "-c", _PARSE_MISSING_ATTACHMENT], env=env,
                                   capture_output=True, check=True, text=True,
                                   timeout=120).stdout)
    assert outs[0] == outs[1] == ("line 1: moves do not replay on the start graph: "
                                  "attachment vertices ['p', 'q', 'r', 's'] not present\n")


def test_poset_parse_errors_are_located():
    with pytest.raises(ParseError) as err:
        parse_poset("p a\np b\n< a a\n")
    assert err.value.line_no == 3
    with pytest.raises(ParseError) as err:
        parse_poset("p a\np b\np c\n< a b\n< b c\n< c a\n")
    assert err.value.line_no is None
    assert str(err.value) == "whole file: cycle through 'a'"


_LABEL = st.sampled_from(["a", "b", "c", "x", "a:b", "[a,b]", "[a", "a],b"])


def _texts(*shapes):
    """Texts whose lines follow the shapes, each `{}` filled with a label."""
    lines = [st.tuples(*[_LABEL] * shape.count("{}")).map(lambda a, s=shape: s.format(*a))
             for shape in shapes]
    return st.lists(st.one_of(lines), max_size=8).map("\n".join)


_MALFORMED = st.one_of(
    _texts("v {}", "e {} {}", "v {} {}"),
    _texts("p {}", "< {} {}", "< {}"),
    _texts("+v {} {}\nw {}", "-v {}\nw", "+e {} {}\nw {}", "-e {} {}\nw", "w {}"),
    _texts("- {} {} | {}", "+ {} | {} {}", "- {} {}"),
    st.text(max_size=80))


@settings(max_examples=300, deadline=None)
@given(_MALFORMED)
def test_parsers_fail_only_with_located_parse_errors(text):
    from flagcalc import full_simplex
    from flagcalc.textio import parse_moves

    g, k = complete_graph("abc"), full_simplex("abc")
    for parse in (parse_graph, parse_complex, parse_poset, parse_moves,
                  lambda t: parse_move_certificate(t, g),
                  lambda t: parse_complex_certificate(t, k)):
        try:
            parse(text)
        except ParseError as exc:
            assert exc.line_no is None or exc.line_no >= 1
