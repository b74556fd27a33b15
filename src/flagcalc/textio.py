"""Line-oriented text formats for graphs, complexes, posets and certificates.

All serializers are deterministic (sorted lines), so parse/format round-trips
are bit-exact.  Parse errors carry 1-based line numbers, or name the whole
file when no single line is at fault.

Graphs and posets share one line shape, read by `_parse_declared`: lines that
declare labels (`v`, `p`), and lines that pair two distinct declared labels
once (`e`, `<`).  An edge is unordered and a cover is ordered.  One label rule,
`_label_error`, serves every reader and writer: a writer raises its kind's
error on a label its reader would refuse; a certificate writer checks the
start's labels and those its additions introduce.  A graph label must also
read back whole from a `+v` attachment list.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable, NamedTuple

from .graphs import Graph, GraphError
from .dismantling import GRAPH, DismantlingOrder, GraphMove, MoveCertificate, MoveKind, Rules
from .simplicial import (
    ANTICOLLAPSE,
    COLLAPSE,
    COMPLEX,
    CollapsePair,
    ComplexCertificate,
    ComplexError,
    SimplicialComplex,
)
from .posets import Poset, PosetError


class ParseError(ValueError):
    """Malformed text at a 1-based line, or in the whole file if `line_no` is None."""

    def __init__(self, line_no: int | None, message: str):
        super().__init__(f"{'whole file' if line_no is None else f'line {line_no}'}: {message}")
        self.line_no = line_no


def _content_lines(text: str) -> Iterable[tuple[int, str]]:
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield i, line


_RESERVED = frozenset(":|#,")  # a line with none of these needs no _check_labels


def _label_error(label: str, attachable: bool = False) -> str | None:
    """Why a text form could not write `label` back, or None: the one label
    rule of every reader and writer.  Lines split at whitespace, ':' and '|'
    split witness steps and collapse pairs, a leading '#' starts a comment, and
    a comma splits an attachment list outside a subset label.  An `attachable`
    label, as every graph label is, must also read back whole from a `+v`
    attachment list."""
    if label.split() != [label]:
        return f"label {label!r} is empty or holds whitespace"
    if ":" in label or "|" in label:
        return f"label {label!r} holds ':' or '|'"
    if label[0] == "#":
        return f"label {label!r} starts with '#'"
    if label[0] != "[" and "," in label:
        return f"label {label!r} holds a comma but does not start with '['"
    if attachable and unreadable_label((label,)) is not None:
        return f"label {label!r} would not read back whole from an attachment list"
    return None


def _check_labels(no: int, labels: Iterable[str]) -> None:
    """Raise at line `no` on a label that a text form could not write back."""
    for label in labels:
        err = _label_error(label)
        if err:
            raise ParseError(no, err)


def _require_writable(labels: Iterable[str], error: type, attachable: bool = False) -> None:
    """Raise `error` on the least of `labels` that the kind's reader would
    refuse, so a writer emits nothing that does not read back."""
    bad = min((label for label in labels if _label_error(label, attachable)), default=None)
    if bad is not None:
        raise error(f"{_label_error(bad, attachable)}; nothing written")


def _parse_declared(text: str, unit: str, pair: str, noun: str,
                    ordered: bool) -> tuple[dict[str, int], dict[tuple[str, str], None]]:
    """The labels that `<unit> <label>` lines declare, each with its line, and
    the pairs of declared labels on `<pair> <a> <b>` lines, in file order.  A
    pair joins two distinct labels once; unless `ordered`, `b a` repeats `a b`."""
    labels: dict[str, int] = {}
    pairs: dict[tuple[str, str], None] = {}
    for no, line in _content_lines(text):
        parts = line.split()
        if parts[0] == unit:
            if len(parts) != 2:
                raise ParseError(no, f"expected `{unit} <label>`")
            if not _RESERVED.isdisjoint(line):
                _check_labels(no, parts[1:])
            if parts[1] in labels:
                raise ParseError(no, f"duplicate {noun} {parts[1]!r}")
            labels[parts[1]] = no
        elif parts[0] == pair:
            if len(parts) != 3:
                raise ParseError(no, f"expected `{pair} <label> <label>`")
            a, b = parts[1], parts[2]
            if a not in labels or b not in labels:
                raise ParseError(no, f"`{pair} {a} {b}` uses an undeclared {noun}")
            if a == b:
                raise ParseError(no, f"`{pair} {a} {b}` pairs {a!r} with itself")
            key = (a, b) if ordered or a < b else (b, a)
            if key in pairs:
                raise ParseError(no, f"duplicate pair `{pair} {a} {b}`")
            pairs[key] = None
        else:
            raise ParseError(no, f"unknown directive {parts[0]!r}")
    return labels, pairs


# ---------------------------------------------------------------------------
# graphs: `v <label>` and `e <a> <b>`


def format_graph(g: Graph) -> str:
    _require_writable(g.vertices, GraphError, attachable=True)
    lines = [f"v {v}" for v in g.sorted_vertices()]
    lines.extend(f"e {a} {b}" for a, b in g.sorted_edges())
    return "\n".join(lines) + ("\n" if lines else "")


def unreadable_label(labels: Iterable[str]) -> str | None:
    """The first of `labels` that would not read back whole from a `+v`
    attachment list, or None.  A label with no bracket reads back, and so does
    a flat one, whose only '[' is first and whose only ']' is last."""
    for v in labels:
        if ("[" in v or "]" in v) and not (v.rfind("[") == 0 and v.find("]") == len(v) - 1):
            if _attachment_labels(v) != [v]:
                return v
    return None


def parse_graph(text: str) -> Graph:
    vertices, edges = _parse_declared(text, "v", "e", "vertex", ordered=False)
    bad = unreadable_label(vertices)
    if bad is not None:
        raise ParseError(vertices[bad], _label_error(bad, attachable=True))
    return Graph(frozenset(vertices), frozenset(map(frozenset, edges)))


# ---------------------------------------------------------------------------
# complexes: one maximal simplex per line


def format_complex(k: SimplicialComplex) -> str:
    _require_writable(k.vertex_set, ComplexError)
    lines = sorted(" ".join(sorted(s)) for s in k.maximal_simplices())
    return "\n".join(lines) + ("\n" if lines else "")


def parse_complex(text: str) -> SimplicialComplex:
    tops: list[list[str]] = []
    for no, line in _content_lines(text):
        labels = line.split()
        if not _RESERVED.isdisjoint(line):
            _check_labels(no, labels)
        if len(set(labels)) != len(labels):
            raise ParseError(no, "repeated vertex in a simplex")
        tops.append(labels)
    return SimplicialComplex.from_maximal(tops)


# ---------------------------------------------------------------------------
# posets: `p <label>` and `< <a> <b>` cover relations


def format_poset(p: Poset) -> str:
    _require_writable(p.elements, PosetError)
    lines = [f"p {x}" for x in p.sorted_elements()]
    lines.extend(f"< {a} {b}" for a, b in p.covers())
    return "\n".join(lines) + ("\n" if lines else "")


def parse_poset(text: str) -> Poset:
    elements, covers = _parse_declared(text, "p", "<", "element", ordered=True)
    try:
        return Poset.make(elements, covers)
    except PosetError as exc:  # a cycle through several covers
        raise ParseError(None, str(exc)) from exc


class TextForm(NamedTuple):
    cls: type
    parse: Callable[[str], object]
    format: Callable[[object], str]


# Each structure kind's class and text form, read by the CLI, the corpus and the suite.
TEXT_FORMS = {"graph": TextForm(Graph, parse_graph, format_graph),
              "complex": TextForm(SimplicialComplex, parse_complex, format_complex),
              "poset": TextForm(Poset, parse_poset, format_poset)}


# ---------------------------------------------------------------------------
# graph move certificates: move line, then a `w` witness line


def _format_witness(order: DismantlingOrder) -> str:
    return " ".join(map(":".join, order.steps))


def format_move_certificate(cert: MoveCertificate) -> str:
    added = (m.target for m in cert.moves if m.kind is MoveKind.ADD_VERTEX)
    _require_writable(chain(cert.start.vertices, added), GraphError, attachable=True)
    lines = []
    for m in cert.moves:
        lines.append(m.describe())
        lines.append(("w " + _format_witness(m.witness)).rstrip())
    return "\n".join(lines) + ("\n" if lines else "")


def _parse_witness(no: int, line: str) -> DismantlingOrder:
    parts = line.split()
    if parts[0] != "w":
        raise ParseError(no, "expected a `w` witness line")
    steps = []
    for tok in parts[1:]:
        bits = tok.split(":")
        if len(bits) != 2:
            raise ParseError(no, f"bad witness step {tok!r}")
        steps.append((bits[0], bits[1]))
    return DismantlingOrder(tuple(steps))


def _attachment_labels(text: str) -> list[str] | None:
    """Comma-separated labels, where commas inside square brackets belong to a
    label; None if the brackets do not balance."""
    labels, depth, begin = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                return None
        elif ch == "," and depth == 0:
            labels.append(text[begin:i])
            begin = i + 1
    return None if depth else labels + [text[begin:]]


def _parse_move_lines(text: str) -> list[tuple[int, GraphMove]]:
    rows = list(_content_lines(text))
    if len(rows) % 2:
        raise ParseError(rows[-1][0], "move without a witness line")
    moves: list[tuple[int, GraphMove]] = []
    for (no, mline), (wno, wline) in zip(rows[0::2], rows[1::2]):
        parts = mline.split()
        witness = _parse_witness(wno, wline)
        if parts[0] == "+v":
            if len(parts) != 3:
                raise ParseError(no, "expected `+v <label> <attach,comma-list>`")
            attach = _attachment_labels(parts[2])
            if attach is None:
                raise ParseError(no, f"unbalanced brackets in attachment list {parts[2]!r}")
            move = GraphMove(MoveKind.ADD_VERTEX, parts[1], witness=witness,
                             attachment=frozenset(x for x in attach if x))
        elif parts[0] == "-v":
            if len(parts) != 2:
                raise ParseError(no, "expected `-v <label>`")
            move = GraphMove(MoveKind.REMOVE_VERTEX, parts[1], witness=witness)
        elif parts[0] in ("+e", "-e"):
            if len(parts) != 3:
                raise ParseError(no, f"expected `{parts[0]} <a> <b>`")
            if parts[1] == parts[2]:
                raise ParseError(no, f"edge move on a single vertex {parts[1]!r}")
            kind = MoveKind.ADD_EDGE if parts[0] == "+e" else MoveKind.REMOVE_EDGE
            move = GraphMove(kind, frozenset((parts[1], parts[2])), witness=witness)
        else:
            raise ParseError(no, f"unknown move {parts[0]!r}")
        moves.append((no, move))
    return moves


def parse_moves(text: str) -> tuple[GraphMove, ...]:
    return tuple(m for _, m in _parse_move_lines(text))


def _replay_rows(rows: list[tuple[int, object]], rules: Rules, start):
    """The certificate of parsed (line, move) rows from start, each move vetted
    by `rules.fit`; the first move that does not fit is a ParseError at its line."""
    moves = tuple(m for _, m in rows)
    end, report = rules.replay(rules.work(start), moves, rules.fit)
    if not report:
        raise ParseError(rows[report.failed_at][0],
                         f"moves do not replay on the start {rules.noun}: {report.reason}")
    return rules.cert(start, moves, rules.value(end))


def parse_move_certificate(text: str, start: Graph) -> MoveCertificate:
    return _replay_rows(_parse_move_lines(text), GRAPH, start)


# ---------------------------------------------------------------------------
# complex certificates: `- <sigma> | <tau>` or `+ <sigma> | <tau>`


def format_complex_certificate(cert: ComplexCertificate) -> str:
    added = (pair.sigma for op, pair in cert.moves if op == ANTICOLLAPSE)
    _require_writable(cert.start.vertex_set.union(*added), ComplexError)
    lines = []
    for op, pair in cert.moves:
        lines.append(f"{op} {' '.join(sorted(pair.sigma))} | {' '.join(sorted(pair.tau))}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_complex_certificate(text: str, start: SimplicialComplex) -> ComplexCertificate:
    rows: list[tuple[int, tuple[str, CollapsePair]]] = []
    for no, line in _content_lines(text):
        op, _, rest = line.partition(" ")
        if op not in (COLLAPSE, ANTICOLLAPSE):
            raise ParseError(no, f"unknown operation {op!r}")
        if "|" not in rest:
            raise ParseError(no, "expected `<sigma labels> | <tau labels>`")
        sig, _, tau = rest.partition("|")
        sigma = frozenset(sig.split())
        tauset = frozenset(tau.split())
        if not sigma or not tauset:
            raise ParseError(no, "empty simplex in pair")
        rows.append((no, (op, CollapsePair(sigma, tauset))))
    return _replay_rows(rows, COMPLEX, start)
