import random

import pytest
from hypothesis import given, settings, strategies as st

from flagcalc import Outcome, complete_graph, s_collapse_search
from flagcalc.corpus import s_collapsible_rigid_graph, six_regular_graph
from flagcalc.identities import random_complex, random_graph, random_poset
from flagcalc.textio import (
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
    # freeness is for the checker: b also lies in b c, so it is not free in a b
    k = parse_complex("a b\nb c\n")
    cert = parse_complex_certificate("- a b | b\n", k)
    assert cert.end.simplices == {frozenset("a"), frozenset("c"), frozenset("bc")}
    assert not check_complex_certificate(cert)


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
                       ("# start\n-e a b\nw\n+e a a\nw\n", 4)):
        with pytest.raises(ParseError) as err:
            parse_move_certificate(text, g)
        assert err.value.line_no == line, text


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
