"""Command-line surface.

Exit codes: 0 = yes/pass, 1 = no/fail, 2 = unknown (budget exhausted),
3 = usage or data error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import corpus, identities, textio
from .dismantling import (
    DEFAULT_SEARCH_BUDGET,
    Outcome,
    dismantles_onto,
    dismantling_core,
    replay_moves,
    s_collapse_search,
    ws_reduction_search,
)
from .graphs import BudgetExceededError, GraphError, barycentric_graph
from .posets import (
    PosetError,
    barycentric_poset,
    clique_poset,
    comparability_graph,
    face_poset,
    order_complex,
)
from .simplicial import (
    ComplexError,
    barycentric_complex,
    clique_complex,
    inclusion_graph,
    one_skeleton,
)

EXIT_YES, EXIT_NO, EXIT_UNKNOWN, EXIT_ERROR = 0, 1, 2, 3


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(kind: str, path: str):
    return textio.TEXT_FORMS[kind].parse(_read(path))


def _kind_of(path: str, override: str | None) -> str:
    if override:
        return override
    for kind in textio.TEXT_FORMS:
        if path.endswith("." + kind):
            return kind
    raise GraphError(f"cannot infer structure kind of {path!r}; pass --kind")


def _at_least(low: int, text: str) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"{text!r} is less than {low}")
    return value


def non_negative(text: str) -> int:
    return _at_least(0, text)


def instance_size(text: str) -> int:
    """Instance sizes are drawn from [2, max-size], so 2 is the least."""
    return _at_least(2, text)


# option -> (the environment variable that sets it when omitted, its default)
_ENVIRONMENT = {"budget": ("FLAGCALC_BUDGET", DEFAULT_SEARCH_BUDGET),
                "seed": ("FLAGCALC_SEED", 0)}


def _fill_from_environment(args) -> None:
    """Set the command's unset options, naming the variable a bad value came from."""
    for dest, (var, default) in _ENVIRONMENT.items():
        if getattr(args, dest, default) is None:
            text = os.environ.get(var)
            try:
                setattr(args, dest, non_negative(text) if text else default)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{var}: invalid non-negative integer {text!r}") from exc


def cmd_check(args) -> int:
    _load(args.kind, args.file)
    print(f"ok: {args.kind} {args.file}")
    return EXIT_YES


def cmd_reduce(args) -> int:
    g = _load("graph", args.file)
    target = _load("graph", args.target) if args.target else None
    budget = args.budget
    if args.mode == "dismantle":
        if target is None:  # the greedy core's least vertex, which no greedy step deletes
            target = g.induced([min(dismantling_core(g)[0].vertices)]) if g.vertices else g
        verdict = dismantles_onto(g, target, budget)
    elif args.mode == "s":
        if target is not None:
            raise GraphError("mode s searches for reduction to a point; drop --target")
        verdict = s_collapse_search(g, budget)
    else:
        verdict = ws_reduction_search(g, target, budget)
    head = verdict.outcome.value
    if verdict.obstruction:  # the start's reduced mod-2 Betti vector
        head += " betti=" + ",".join(map(str, verdict.obstruction))
    print(f"{head} nodes={verdict.stats.nodes} budget={verdict.stats.budget}")
    if verdict.outcome is Outcome.YES:
        _emit(textio.format_move_certificate(verdict.certificate), args.out)
        return EXIT_YES
    return EXIT_NO if verdict.outcome is Outcome.NO else EXIT_UNKNOWN


_MAPS = {
    "delta-g": ("graph", "complex", clique_complex),
    "gamma": ("complex", "graph", inclusion_graph),
    "sk": ("complex", "graph", one_skeleton),
    "comp": ("poset", "graph", comparability_graph),
    "clique-poset": ("graph", "poset", clique_poset),
    "order-complex": ("poset", "complex", order_complex),
    "face-poset": ("complex", "poset", face_poset),
}

_BD = {"graph": barycentric_graph, "complex": barycentric_complex,
       "poset": barycentric_poset}


def cmd_map(args) -> int:
    if args.functor == "bd":
        src = dst = _kind_of(args.file, args.kind)
        fn = _BD[src]
    else:
        src, dst, fn = _MAPS[args.functor]
    result = fn(_load(src, args.file))
    bad = textio.unreadable_label(sorted(result.vertices)) if dst == "graph" else None
    if bad is not None:  # a complex or poset label that a graph file cannot hold
        raise GraphError(f"output label {bad!r} would not read back whole from an "
                         "attachment list; nothing written")
    _emit(textio.TEXT_FORMS[dst].format(result), args.out)
    return EXIT_YES


def cmd_certify(args) -> int:
    start = _load("graph", args.start)
    moves = textio.parse_moves(_read(args.certificate))
    cur, report = replay_moves(start, moves)
    if not report:
        print(f"invalid at move {report.failed_at}: {report.reason}")
        return EXIT_NO
    if args.end:
        end = _load("graph", args.end)
        if cur != end:
            print("invalid: end graph does not match --end")
            return EXIT_NO
    print("valid")
    return EXIT_YES


def cmd_identities(args) -> int:
    reports = identities.run_property_suite(seed=args.seed, max_size=args.max_size,
                                            budget=args.budget, samples=args.samples)
    failed = False
    for r in reports:
        print(r.line())
        failed = failed or r.verdict == "fail"
    print(f"total={len(reports)} "
          f"fail={sum(r.verdict == 'fail' for r in reports)} "
          f"skip={sum(r.verdict == 'skipped' for r in reports)}")
    return EXIT_NO if failed else EXIT_YES


def cmd_corpus(args) -> int:
    if args.action == "list":
        for name in sorted(corpus.FIXTURES):
            fix = corpus.FIXTURES[name]
            print(f"{name} ({fix.kind}{', optional' if fix.optional else ''})")
        return EXIT_YES
    if args.action == "dump":
        if args.name is None:
            raise GraphError("corpus dump needs a fixture name; `flagcalc corpus list` lists them")
        if args.name not in corpus.FIXTURES:
            raise GraphError(f"unknown fixture {args.name!r}")
        _emit(corpus.FIXTURES[args.name].payload(), args.out)
        return EXIT_YES
    assertions = corpus.verify_corpus()
    ok = True
    for a in assertions:
        print(a.line())
        ok = ok and a.passed
    return EXIT_YES if ok else EXIT_NO


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command tree, built on the first call and shared by every later one.

    Parsing keeps no state in the parser: each call gets a new namespace.
    """
    parser = argparse.ArgumentParser(
        prog="flagcalc",
        description="Graph dismantling, flag-complex collapse and poset weak "
                    "points with machine-checkable certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and validate a structure file")
    p.add_argument("kind", choices=sorted(textio.TEXT_FORMS))
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("reduce", help="search for a reduction of a graph")
    p.add_argument("file")
    p.add_argument("--mode", choices=("s", "ws", "dismantle"), default="s")
    p.add_argument("--budget", type=non_negative)
    p.add_argument("--target")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("map", help="apply a structure-translating map")
    p.add_argument("functor", choices=sorted(_MAPS) + ["bd"])
    p.add_argument("file")
    p.add_argument("--kind", choices=sorted(textio.TEXT_FORMS))
    p.add_argument("--out")
    p.set_defaults(fn=cmd_map)

    p = sub.add_parser("certify", help="replay a graph move certificate")
    p.add_argument("certificate")
    p.add_argument("--start", required=True)
    p.add_argument("--end")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("identities", help="run the cross-structure property suite")
    p.add_argument("--seed", type=non_negative)
    p.add_argument("--max-size", type=instance_size, default=6)
    p.add_argument("--samples", type=non_negative, default=24)
    p.add_argument("--budget", type=non_negative)
    p.set_defaults(fn=cmd_identities)

    p = sub.add_parser("corpus", help="list, dump or verify the built-in fixtures")
    p.add_argument("action", choices=("verify", "list", "dump"))
    p.add_argument("name", nargs="?")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_YES if exc.code == 0 else EXIT_ERROR
    try:
        _fill_from_environment(args)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does: stop quietly, and
        # point stdout at devnull so the interpreter's last flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    except (GraphError, ComplexError, PosetError, textio.ParseError,
            BudgetExceededError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
