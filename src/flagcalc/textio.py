"""Line-oriented text formats for graphs, complexes, posets and certificates.

All serializers are deterministic (sorted lines), so parse/format round-trips
are bit-exact.  Parse errors carry 1-based line numbers, or name the whole
file when no single line is at fault.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

from .graphs import Graph, sorted_pair
from .dismantling import (
    DismantlingOrder,
    GraphMove,
    MoveCertificate,
    MoveKind,
    _apply_move,
    _fit_error,
    _graph_of,
    _working,
    replay,
)
from .simplicial import (
    ANTICOLLAPSE,
    COLLAPSE,
    CollapsePair,
    ComplexCertificate,
    SimplicialComplex,
    _apply_pair_move,
    _coface_counts,
    _pair_fit_error,
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


# ---------------------------------------------------------------------------
# graphs: `v <label>` and `e <a> <b>`


def format_graph(g: Graph) -> str:
    lines = [f"v {v}" for v in g.sorted_vertices()]
    lines.extend(f"e {a} {b}" for a, b in g.sorted_edges())
    return "\n".join(lines) + ("\n" if lines else "")


def parse_graph(text: str) -> Graph:
    vertices: list[str] = []
    edges: list[tuple[str, str]] = []
    seen_v: set[str] = set()
    seen_e: set[frozenset[str]] = set()
    for no, line in _content_lines(text):
        parts = line.split()
        if parts[0] == "v":
            if len(parts) != 2:
                raise ParseError(no, "expected `v <label>`")
            if parts[1] in seen_v:
                raise ParseError(no, f"duplicate vertex {parts[1]!r}")
            seen_v.add(parts[1])
            vertices.append(parts[1])
        elif parts[0] == "e":
            if len(parts) != 3:
                raise ParseError(no, "expected `e <label> <label>`")
            a, b = parts[1], parts[2]
            if a == b:
                raise ParseError(no, f"self-loop on {a!r}")
            if a not in seen_v or b not in seen_v:
                raise ParseError(no, f"edge {a!r}-{b!r} has an undeclared endpoint")
            key = frozenset((a, b))
            if key in seen_e:
                raise ParseError(no, f"duplicate edge {a!r}-{b!r}")
            seen_e.add(key)
            edges.append((a, b))
        else:
            raise ParseError(no, f"unknown directive {parts[0]!r}")
    return Graph.make(vertices, edges)


# ---------------------------------------------------------------------------
# complexes: one maximal simplex per line


def format_complex(k: SimplicialComplex) -> str:
    lines = sorted(" ".join(sorted(s)) for s in k.maximal_simplices())
    return "\n".join(lines) + ("\n" if lines else "")


def parse_complex(text: str) -> SimplicialComplex:
    tops: list[list[str]] = []
    for no, line in _content_lines(text):
        labels = line.split()
        if len(set(labels)) != len(labels):
            raise ParseError(no, "repeated vertex in a simplex")
        tops.append(labels)
    return SimplicialComplex.from_maximal(tops)


# ---------------------------------------------------------------------------
# posets: `p <label>` and `< <a> <b>` cover relations


def format_poset(p: Poset) -> str:
    lines = [f"p {x}" for x in p.sorted_elements()]
    lines.extend(f"< {a} {b}" for a, b in p.covers())
    return "\n".join(lines) + ("\n" if lines else "")


def parse_poset(text: str) -> Poset:
    elements: list[str] = []
    covers: list[tuple[str, str]] = []
    seen: set[str] = set()
    seen_c: set[tuple[str, str]] = set()
    for no, line in _content_lines(text):
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 2:
                raise ParseError(no, "expected `p <label>`")
            if parts[1] in seen:
                raise ParseError(no, f"duplicate element {parts[1]!r}")
            seen.add(parts[1])
            elements.append(parts[1])
        elif parts[0] == "<":
            if len(parts) != 3:
                raise ParseError(no, "expected `< <a> <b>`")
            a, b = parts[1], parts[2]
            if a not in seen or b not in seen:
                raise ParseError(no, f"cover {a!r} < {b!r} uses an undeclared element")
            if a == b:
                raise ParseError(no, f"self-cover {a!r} < {b!r}")
            if (a, b) in seen_c:
                raise ParseError(no, f"duplicate cover {a!r} < {b!r}")
            seen_c.add((a, b))
            covers.append((a, b))
        else:
            raise ParseError(no, f"unknown directive {parts[0]!r}")
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
    return " ".join(f"{v}:{w}" for v, w in order.steps)


def format_move_certificate(cert: MoveCertificate) -> str:
    lines = []
    for m in cert.moves:
        if m.kind is MoveKind.ADD_VERTEX:
            lines.append(f"+v {m.target} {','.join(sorted(m.attachment))}")
        elif m.kind is MoveKind.REMOVE_VERTEX:
            lines.append(f"-v {m.target}")
        else:
            a, b = sorted_pair(m.target)
            lines.append(f"{m.kind.value} {a} {b}")
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


def _split_attachment(no: int, text: str) -> frozenset[str]:
    """Comma-separated labels; commas inside square brackets belong to a label."""
    labels, depth, begin = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                break
        elif ch == "," and depth == 0:
            labels.append(text[begin:i])
            begin = i + 1
    if depth:
        raise ParseError(no, f"unbalanced brackets in attachment list {text!r}")
    labels.append(text[begin:])
    return frozenset(x for x in labels if x)


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
            move = GraphMove(MoveKind.ADD_VERTEX, parts[1], witness=witness,
                             attachment=_split_attachment(no, parts[2]))
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


def _replay_rows(rows: list[tuple[int, object]], state, error: Callable, apply: Callable,
                 kind: str):
    """The state that parsed (line, move) rows reach, each vetted by `error`
    for fit only; the first move that does not fit is a ParseError at its line."""
    end, report = replay(state, (m for _, m in rows), error, apply)
    if not report:
        raise ParseError(rows[report.failed_at][0],
                         f"moves do not replay on the start {kind}: {report.reason}")
    return end


def parse_move_certificate(text: str, start: Graph) -> MoveCertificate:
    rows = _parse_move_lines(text)
    end = _replay_rows(rows, _working(start), _fit_error, _apply_move, "graph")
    return MoveCertificate(start, tuple(m for _, m in rows), _graph_of(end))


# ---------------------------------------------------------------------------
# complex certificates: `- <sigma> | <tau>` or `+ <sigma> | <tau>`


def format_complex_certificate(cert: ComplexCertificate) -> str:
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
    end = _replay_rows(rows, _coface_counts(start), _pair_fit_error, _apply_pair_move, "complex")
    return ComplexCertificate(start, tuple(m for _, m in rows), SimplicialComplex(frozenset(end)))
