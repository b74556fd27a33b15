"""The three benchmark workloads: seeded inputs and the per-instance call chains.

Each workload turns a seed into a fixed list of instances.  An instance runs
in the order the command line uses: parse text, compute, format text, replay
or cross-check.  Every call into flagcalc goes through ``Ctx.call`` under the
name of the public function it calls, which is how the traced run times each
module from outside.  Checks that need an independent oracle too costly for
the timed region go in ``Instance.verify``, which run.py calls once per run,
outside the timing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from flagcalc import cli, corpus, textio
from flagcalc.dismantling import (
    IContractibility,
    Outcome,
    check_certificate,
    greedy_dismantling,
    greedy_dismantling_certificate,
    s_collapse_search,
    s_dismantlable_vertices,
    ws_reduction_search,
)
from flagcalc.graphs import barycentric_graph, canonical_form, complete_subgraphs
from flagcalc.identities import run_property_suite, subdivision_certificate
from flagcalc.posets import (
    barycentric_poset,
    check_poset_certificate,
    clique_poset,
    comparability_graph,
    face_poset,
    order_complex,
    weak_point_cascade,
)
from flagcalc.simplicial import (
    barycentric_complex,
    check_complex_certificate,
    clique_complex,
    collapse_certificate_for_dismantlable,
    collapse_search,
    inclusion_graph,
)

import oracles as orc

# Node budgets are fixed so that verdicts, node counts and UNKNOWNs repeat.
S_BUDGET = 60
WS_BUDGET = 2000
COLLAPSE_BUDGET = 2000
# Per-instance wall-clock limits, enforced by run.py with SIGALRM.  No instance
# comes near the general one today; IContractibility questions run at their
# default node budget, which does not bound their work, so their limit is what
# ends the hopeless ones.  The questions that are decided take a few ms; the
# limit is kept short because a cut-off question's time is fixed waiting that
# no library change can shorten.
INSTANCE_LIMIT_S = 20.0
ICONTRACT_LIMIT_S = 0.2


class Wrong(Exception):
    """An output failed a correctness oracle."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Wrong(what)


class Ctx:
    """Untraced context: calls go straight through, counters still count."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.instance = ""

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


class TracedCtx(Ctx):
    """Records a span (name, start, end, instance) around every call."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: list[tuple[str, float, float, str]] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, start, perf_counter(), self.instance))


@dataclass
class Result:
    verdict: str                  # "yes" | "no" | "unknown" | "done"
    digest: str                   # hash-independent summary of the outputs
    extra: dict = field(default_factory=dict)


@dataclass
class Instance:
    ident: str
    kind: str
    size: str
    run: Callable[[Ctx], Result]
    verify: Callable[[Result], None] = lambda result: None
    limit_s: float = INSTANCE_LIMIT_S
    cutoff_is_unknown: bool = False
    inputs: str = ""              # the input texts, for the input digest


def sha(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\0")
    return h.hexdigest()


def write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def run_cli(ctx: Ctx, name: str, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = ctx.call(name, cli.main, argv)
    return code, out.getvalue()


_PARSE = {"graph": textio.parse_graph, "complex": textio.parse_complex,
          "poset": textio.parse_poset}


def map_cli(ctx: Ctx, functor: str, src: str, dst: str, label: str | None = None):
    """`flagcalc map <functor> src --out dst`, then parse dst back."""
    code, out = run_cli(ctx, f"cli.map.{label or functor}", ["map", functor, src, "--out", dst])
    expect(code == 0, f"map {functor} {os.path.basename(src)} exited {code}: {out.strip()}")
    text = read(dst)
    ctx.add("cli.map.bytes", len(text))
    kind = dst.rsplit(".", 1)[1]
    return ctx.call(f"textio.parse_{kind}", _PARSE[kind], text), text


def outcome(v) -> str:
    return {Outcome.YES: "yes", Outcome.NO: "no", Outcome.UNKNOWN: "unknown"}[v.outcome]


def replay_graph_certificate(ctx: Ctx, cert, what: str) -> str:
    """check_certificate, then format it; returns the certificate text."""
    rep = ctx.call("dismantling.check_certificate", check_certificate, cert)
    expect(rep.ok, f"{what}: certificate rejected at move {rep.failed_at}: {rep.reason}")
    ctx.add("dismantling.check_certificate.witness_steps",
            sum(len(m.witness.steps) for m in cert.moves))
    text = ctx.call("textio.format_move_certificate", textio.format_move_certificate, cert)
    ctx.add("textio.format_move_certificate.bytes", len(text))
    return text


def _drop(h, v):
    """The graph kernel step a greedy order replays: delete, then read adjacency."""
    out = h.without_vertex(v)
    out.adjacency
    return out


def _instance_dir(work: str, ident: str) -> str:
    d = os.path.join(work, ident.replace("/", "-"))
    os.makedirs(d, exist_ok=True)
    return d


def _fill_bins(rng: random.Random, bins, per_bin: int, make,
               measure=orc.clique_count) -> list[tuple[int, orc.Adj]]:
    """Draw graphs from `make` until every size bin holds per_bin of them."""
    slots: list[list[tuple[int, orc.Adj]]] = [[] for _ in bins]
    while any(len(s) < per_bin for s in slots):
        adj = make(rng)
        c = measure(adj)
        for (lo, hi), s in zip(bins, slots):
            if lo <= c < hi and len(s) < per_bin:
                s.append((c, adj))
    return [x for s in slots for x in s]


# ---------------------------------------------------------------------------
# certify: build and replay certificates for cop-win graphs

# Instance sizes are stated as clique counts: the cost of building and
# checking a subdivision certificate grows with cliques, not with vertices.
CERTIFY_BINS = [(16, 32), (32, 48), (48, 64), (64, 80), (80, 96),
                (96, 112), (112, 128), (128, 144), (144, 160), (160, 176)]
CERTIFY_PER_BIN = 10


def _copwin_draw(rng: random.Random) -> orc.Adj:
    return orc.copwin_graph(rng, rng.randint(10, 40), rng.uniform(0.1, 0.6))


def build_certify(seed: int, work: str) -> list[Instance]:
    rng = random.Random(f"certify:{seed}")
    drawn = _fill_bins(rng, CERTIFY_BINS, CERTIFY_PER_BIN, _copwin_draw)
    rng.shuffle(drawn)
    return [_certify_instance(f"certify/{i:03d}", adj, cliques, work)
            for i, (cliques, adj) in enumerate(drawn)]


def _certify_instance(ident: str, adj: orc.Adj, cliques: int, work: str) -> Instance:
    d = _instance_dir(work, ident)
    text = orc.graph_text(adj)
    g_path = os.path.join(d, "g.graph")
    cert_path = os.path.join(d, "greedy.cert")
    end_path = os.path.join(d, "end.graph")
    write(g_path, text)
    bd_edges = orc.comparable_pairs_of_cliques(adj)

    def run(ctx: Ctx) -> Result:
        g = ctx.call("textio.parse_graph", textio.parse_graph, text)
        family = ctx.call("graphs.complete_subgraphs", complete_subgraphs, g)
        expect(len(family) == cliques, f"{len(family)} complete subgraphs, expected {cliques}")
        ctx.add("graphs.complete_subgraphs.cliques", len(family))

        order = ctx.call("dismantling.greedy_dismantling", greedy_dismantling, g)
        expect(order is not None, "cop-win graph reported not dismantlable")
        cur = g
        for v, w in order.steps:
            expect(orc.is_dominating_step(cur.adjacency, v, w),
                   f"greedy step {v}:{w} is not a domination")
            cur = ctx.call("graphs.without_vertex", _drop, cur, v)
        ctx.add("graphs.without_vertex.calls", len(order.steps))
        expect(len(cur.vertices) == 1, "greedy order does not end at one vertex")

        gcert = ctx.call("dismantling.greedy_dismantling_certificate",
                         greedy_dismantling_certificate, g)
        greedy_text = replay_graph_certificate(ctx, gcert, "greedy certificate")

        scert = ctx.call("identities.subdivision_certificate", subdivision_certificate, g)
        ctx.add("identities.subdivision_certificate.moves", len(scert.moves))
        sub_text = replay_graph_certificate(ctx, scert, "subdivision certificate")
        bd = ctx.call("graphs.barycentric_graph", barycentric_graph, g)
        expect(scert.end == bd, "subdivision certificate does not end at barycentric_graph(g)")
        expect(len(bd.vertices) == cliques and len(bd.edges) == bd_edges,
               "barycentric graph has the wrong size")

        ccert = ctx.call("simplicial.collapse_certificate_for_dismantlable",
                         collapse_certificate_for_dismantlable, g)
        ctx.add("simplicial.collapse_certificate_for_dismantlable.moves", len(ccert.moves))
        rep = ctx.call("simplicial.check_complex_certificate", check_complex_certificate, ccert)
        expect(rep.ok, f"collapse certificate rejected at move {rep.failed_at}: {rep.reason}")
        ctx.add("simplicial.check_complex_certificate.moves", len(ccert.moves))
        expect(len(ccert.start.simplices) == cliques and len(ccert.end.simplices) == 1
               and 2 * len(ccert.moves) == cliques - 1,
               "collapse certificate does not take the clique complex to a point")

        end_text = ctx.call("textio.format_graph", textio.format_graph, gcert.end)
        ctx.add("textio.format_graph.bytes", len(end_text))
        write(cert_path, greedy_text)
        write(end_path, end_text)
        code, out = run_cli(ctx, "cli.certify",
                            ["certify", cert_path, "--start", g_path, "--end", end_path])
        expect(code == 0 and out == "valid\n", f"certify exited {code}: {out.strip()}")
        return Result("yes", sha(greedy_text, sub_text, end_text))

    n = len(adj)
    return Instance(ident, "copwin", f"n={n} cliques={cliques}", run, inputs=text)


# ---------------------------------------------------------------------------
# search: time to a verdict

# G(n,p) graphs for s_collapse_search, by quota per row: the cell (n, p) and
# a class of the exhaustive oracle, namely its verdict and, for NO, how many
# labelled states it visits.  That count predicts where flagcalc's search runs
# into its budget, and the cell sets the cost of each node, so every seed gets
# the same mix of easy, hard and budget-bound searches.
GNP_ROWS = (
    [(12, p, "yes", 0, None, k) for p, k in [(0.5, 6), (0.7, 40)]]
    + [(12, p, "no", 0, 64, k) for p, k in [(0.3, 6), (0.5, 7), (0.7, 7)]]
    + [(n, p, "no", 64, 512, k) for n, p, k in [(12, 0.5, 4), (12, 0.7, 5), (14, 0.5, 5)]]
    + [(n, p, "no", 512, 4096, 5) for n, p in [(14, 0.7), (16, 0.5)]])
WS_N = (6, 7)
WS_PER_N = 8


def _gnp_by_class(rng: random.Random) -> list[tuple[str, orc.Adj, orc.SCollapse]]:
    out = []
    for n, p, verdict, lo, hi, count in GNP_ROWS:
        kept = 0
        while kept < count:
            adj = orc.gnp_graph(rng, n, p)
            oracle = orc.SCollapse(adj)
            truth = "yes" if oracle.collapsible() else "no"
            if truth == verdict and lo <= oracle.states() and (hi is None or oracle.states() < hi):
                out.append((f"G({n},{p})", adj, oracle))
                kept += 1
    return out


def build_search(seed: int, work: str) -> list[Instance]:
    rng = random.Random(f"search:{seed}")
    out: list[Instance] = []
    for size, adj, oracle in _gnp_by_class(rng):
        out.append(_gnp_instance(f"search/gnp{len(out):03d}", adj, size, "s", oracle))
    for n in WS_N:
        for _ in range(WS_PER_N):
            adj = orc.gnp_graph(rng, n, 0.5)
            out.append(_gnp_instance(f"search/ws{len(out):03d}", adj, f"G({n},0.5)", "ws",
                                     orc.SCollapse(adj)))

    # A fixed family, so seeds change only the relabelled copies and the order.
    # Canonical labeling explores every branch on these graphs, so they hold
    # the slowest tenth of this workload's instances.
    vt = [(f"C{n}", orc.cycle(n)) for n in (4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16, 18, 20, 24,
                                            32, 36, 38, 40, 42, 44, 46, 48, 52, 56, 64, 72)]
    vt += [(f"Q{d}", orc.hypercube(d)) for d in (2, 3, 4, 5)]
    vt += [(f"susp-C{n}", orc.suspension(orc.cycle(n))) for n in (4, 9, 16, 24, 32, 40, 48, 56)]
    vt += [(f"susp-P{n}", orc.suspension(orc.path(n))) for n in (2, 3, 4, 5, 6, 7, 9)]
    vt += [(f"susp-Q{d}", orc.suspension(orc.hypercube(d))) for d in (3, 4)]
    for name, adj in vt:
        out.append(_vt_instance(f"search/vt-{name}", name, adj, rng))

    d = os.path.join(work, "corpus")
    os.makedirs(d, exist_ok=True)
    for name in sorted(corpus.FIXTURES):
        if corpus.FIXTURES[name].kind == "graph":
            path = os.path.join(d, f"{name}.graph")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["corpus", "dump", name, "--out", path])
            if code != 0:
                raise RuntimeError(f"corpus dump {name} exited {code}")
            out.append(_corpus_reduce_instance(f"search/corpus-{name}", path, work))

    for _ in range(10):
        n, p = rng.choice((4, 5, 6)), rng.choice((0.5, 0.7))
        out.append(_collapse_instance(f"search/collapse{len(out):03d}",
                                      orc.gnp_graph(rng, n, p), f"G({n},{p})"))
    rng.shuffle(out)

    # IContractibility runs last: a wall-clock cut-off stops it at a point that
    # depends on machine speed, so it must not precede instances whose memo
    # hits and counters are compared between runs.
    questions = [("P4", orc.path(4)), ("K4", orc.complete(4)), ("cone-C4", orc.cone(orc.cycle(4))),
                 ("susp-P3", orc.suspension(orc.path(3))), ("C5", orc.cycle(5)),
                 ("octahedron", orc.suspension(orc.cycle(4)))]
    out += [_icontract_instance(f"search/icontract-{name}", adj) for name, adj in questions]
    return out


def _gnp_instance(ident: str, adj: orc.Adj, size: str, mode: str,
                  oracle: orc.SCollapse) -> Instance:
    text = orc.graph_text(adj)

    def run(ctx: Ctx) -> Result:
        g = ctx.call("textio.parse_graph", textio.parse_graph, text)
        if mode == "s":
            order = ctx.call("dismantling.greedy_dismantling", greedy_dismantling, g)
            v = ctx.call("dismantling.s_collapse_search", s_collapse_search, g, S_BUDGET)
            layer = "dismantling.s_collapse_search"
        else:
            order = None
            v = ctx.call("dismantling.ws_reduction_search", ws_reduction_search, g,
                         budget=WS_BUDGET)
            layer = "dismantling.ws_reduction_search"
        verdict = outcome(v)
        ctx.add(f"{layer}.nodes", v.stats.nodes)
        ctx.add(f"{layer}.{verdict}")
        cert_text = ""
        if verdict == "yes":
            cert_text = replay_graph_certificate(ctx, v.certificate, ident)
            expect(len(v.certificate.end.vertices) == 1, "YES certificate does not end at a vertex")
        return Result(verdict, sha(verdict, cert_text),
                      {"dismantlable": order is not None} if mode == "s" else {})

    def verify(res: Result) -> None:
        truth = oracle.collapsible()
        if res.verdict == "yes":
            expect(orc.euler_characteristic(adj) == 1, "YES but chi(clique complex) != 1")
        if mode == "s":
            expect(res.extra["dismantlable"] == oracle.dismantlable(oracle.full),
                   "greedy_dismantling disagrees with exhaustive dismantlability")
            if res.verdict != "unknown":
                expect((res.verdict == "yes") == truth,
                       f"s_collapse_search says {res.verdict}, exhaustive search says {truth}")
        elif res.verdict == "no":
            expect(not truth, "ws search says NO but the graph s-collapses")

    return Instance(ident, f"gnp-{mode}", size, run, verify, inputs=text)


def _vt_instance(ident: str, name: str, adj: orc.Adj, rng: random.Random) -> Instance:
    text = orc.graph_text(adj)
    # Relabelled copies cross-check canonical labeling; Q5's copy alone would
    # cost as much as the rest of the family, so Q5 goes without one.
    twin = orc.graph_text(orc.relabel(adj, rng)) if name != "Q5" else None

    def run(ctx: Ctx) -> Result:
        g = ctx.call("textio.parse_graph", textio.parse_graph, text)
        form = ctx.call("graphs.canonical_form", canonical_form, g)
        if twin is not None:
            h = ctx.call("textio.parse_graph", textio.parse_graph, twin)
            expect(ctx.call("graphs.canonical_form", canonical_form, h) == form,
                   "relabelled copy has another canonical form")
        v = ctx.call("dismantling.s_collapse_search", s_collapse_search, g, S_BUDGET)
        verdict = outcome(v)
        ctx.add("dismantling.s_collapse_search.nodes", v.stats.nodes)
        ctx.add(f"dismantling.s_collapse_search.{verdict}")
        cert_text = ""
        if verdict == "yes":
            cert_text = replay_graph_certificate(ctx, v.certificate, ident)
        return Result(verdict, sha(verdict, cert_text))

    def verify(res: Result) -> None:
        oracle = orc.SCollapse(adj)
        if not oracle.has_s_move():
            # Cycles, hypercubes and their suspensions: no open neighbourhood
            # is dismantlable, so the search must exhaust at once.
            expect(res.verdict == "no", f"{name} has no s-move but search says {res.verdict}")
        elif res.verdict != "unknown":
            expect((res.verdict == "yes") == oracle.collapsible(),
                   f"{name}: search says {res.verdict}")
        if res.verdict == "yes":
            expect(orc.euler_characteristic(adj) == 1, "YES but chi(clique complex) != 1")

    return Instance(ident, "vertex-transitive", f"{name} n={len(adj)}", run, verify,
                    inputs=text + (twin or ""))


def _corpus_reduce_instance(ident: str, path: str, work: str) -> Instance:
    adj = orc.parse_graph_text(read(path))
    cert_path = os.path.join(_instance_dir(work, ident), "reduce.cert")

    def run(ctx: Ctx) -> Result:
        code, out = run_cli(ctx, "cli.reduce", ["reduce", path, "--mode", "s",
                                                "--budget", str(S_BUDGET), "--out", cert_path])
        expect(code in (0, 1, 2), f"reduce exited {code}: {out.strip()}")
        verdict = ("yes", "no", "unknown")[code]
        ctx.add(f"cli.reduce.{verdict}")
        cert_text = ""
        if verdict == "yes":
            code, check = run_cli(ctx, "cli.certify", ["certify", cert_path, "--start", path])
            expect(code == 0 and check == "valid\n", f"certify exited {code}: {check.strip()}")
            cert_text = read(cert_path)
        return Result(verdict, sha(out, cert_text))

    def verify(res: Result) -> None:
        if res.verdict != "unknown":
            truth = orc.SCollapse(adj).collapsible()
            expect((res.verdict == "yes") == truth, f"reduce says {res.verdict}")
        if res.verdict == "yes":
            expect(orc.euler_characteristic(adj) == 1, "YES but chi(clique complex) != 1")

    return Instance(ident, "corpus", f"n={len(adj)}", run, verify, inputs=read(path))


def _collapse_instance(ident: str, adj: orc.Adj, size: str) -> Instance:
    text = orc.graph_text(adj)

    def run(ctx: Ctx) -> Result:
        g = ctx.call("textio.parse_graph", textio.parse_graph, text)
        k = ctx.call("simplicial.clique_complex", clique_complex, g)
        v = ctx.call("simplicial.collapse_search", collapse_search, k, budget=COLLAPSE_BUDGET)
        verdict = outcome(v)
        ctx.add("simplicial.collapse_search.nodes", v.stats.nodes)
        cert_text = ""
        if verdict == "yes":
            cert = v.certificate
            rep = ctx.call("simplicial.check_complex_certificate", check_complex_certificate, cert)
            expect(rep.ok, f"collapse certificate rejected at move {rep.failed_at}: {rep.reason}")
            expect(len(cert.end.simplices) == 1, "collapse does not end at a vertex")
            ctx.add("simplicial.check_complex_certificate.moves", len(cert.moves))
            cert_text = ctx.call("textio.format_complex_certificate",
                                 textio.format_complex_certificate, cert)
        return Result(verdict, sha(verdict, cert_text))

    def verify(res: Result) -> None:
        if res.verdict != "unknown":
            truth = orc.collapsible_complex(orc.all_cliques(adj))
            expect((res.verdict == "yes") == truth, f"collapse_search says {res.verdict}")
        if res.verdict == "yes":
            expect(orc.euler_characteristic(adj) == 1, "YES but chi != 1")

    return Instance(ident, "collapse", size, run, verify, inputs=text)


def _icontract_instance(ident: str, adj: orc.Adj) -> Instance:
    text = orc.graph_text(adj)

    def ask(g) -> str:
        return IContractibility().of(g)

    def run(ctx: Ctx) -> Result:
        g = ctx.call("textio.parse_graph", textio.parse_graph, text)
        answer = ctx.call("dismantling.i_contractibility", ask, g)
        if answer in ("yes", "no"):
            ctx.add("dismantling.i_contractibility.decided")
        return Result(answer, sha(answer))

    def verify(res: Result) -> None:
        if res.verdict == "yes":
            expect(orc.euler_characteristic(adj) == 1, "I-contractible but chi != 1")
        if orc.is_dismantlable(adj):
            expect(res.verdict != "no", "dismantlable graph answered no")

    return Instance(ident, "icontract", f"n={len(adj)}", run, verify,
                    limit_s=ICONTRACT_LIMIT_S, cutoff_is_unknown=True, inputs=text)


# ---------------------------------------------------------------------------
# maps: structure translation and posets

# Sizes are stated as chains of cliques, the element count of the barycentric
# poset: its builders and the covers of its text form grow with that count, and
# one large clique multiplies it far beyond what the clique count suggests.
MAPS_BINS = [(16, 48), (48, 96), (96, 160), (160, 240), (240, 320), (320, 420), (420, 560)]
MAPS_PER_BIN = 10


def _small_copwin_draw(rng: random.Random) -> orc.Adj:
    return orc.copwin_graph(rng, rng.randint(5, 16), rng.uniform(0.2, 0.7))


def build_maps(seed: int, work: str) -> list[Instance]:
    rng = random.Random(f"maps:{seed}")
    out: list[Instance] = []
    for chains, adj in _fill_bins(rng, MAPS_BINS, MAPS_PER_BIN, _small_copwin_draw,
                                  orc.chain_count):
        out.append(_map_graph_instance(f"maps/graph{len(out):03d}", adj, chains, work))
    for _ in range(20):
        n = rng.randint(4, 7)
        elements, rels = orc.random_order(rng, n, rng.uniform(0.2, 0.5))
        out.append(_map_poset_instance(f"maps/poset{len(out):03d}", elements, rels, work))
    for _ in range(20):
        n = rng.randint(4, 8)
        facets = orc.random_facets(rng, n, rng.randint(2, 6), min(4, n))
        out.append(_map_complex_instance(f"maps/complex{len(out):03d}", facets, work))
    out.append(_suite_instance("maps/identities", rng.randrange(1 << 16)))
    out.append(_corpus_verify_instance("maps/corpus-verify"))
    rng.shuffle(out)
    return out


def _map_graph_instance(ident: str, adj: orc.Adj, chains: int, work: str) -> Instance:
    d = _instance_dir(work, ident)
    text = orc.graph_text(adj)
    p = {k: os.path.join(d, f) for k, f in [
        ("g", "g.graph"), ("K", "k.complex"), ("P", "p.poset"), ("Bg", "bd.graph"),
        ("sk", "sk.graph"), ("gamma", "gamma.graph"), ("comp", "comp.graph"),
        ("FP", "fp.poset"), ("OC", "oc.complex"), ("BK", "bd.complex"), ("BP", "bd.poset")]}
    write(p["g"], text)
    cliques = orc.clique_count(adj)
    bd_edges = orc.comparable_pairs_of_cliques(adj)
    oracle = orc.SCollapse(adj)
    s_vertices = [v for i, v in enumerate(oracle.labels)
                  if oracle.s_removable(oracle.full, i)]

    def run(ctx: Ctx) -> Result:
        g = ctx.call("textio.parse_graph", textio.parse_graph, text)
        k, k_text = map_cli(ctx, "delta-g", p["g"], p["K"])
        poset, p_text = map_cli(ctx, "clique-poset", p["g"], p["P"])
        bg, bg_text = map_cli(ctx, "bd", p["g"], p["Bg"], "bd-graph")
        expect(len(k.simplices) == cliques and len(bg.vertices) == cliques
               and len(bg.edges) == bd_edges, "subdivision sizes disagree with the clique count")
        expect(map_cli(ctx, "sk", p["K"], p["sk"])[0] == g, "sk(delta-g(g)) != g")
        expect(map_cli(ctx, "gamma", p["K"], p["gamma"])[0] == bg, "gamma(delta-g(g)) != bd(g)")
        expect(map_cli(ctx, "comp", p["P"], p["comp"])[0] == bg,
               "comparability_graph(clique_poset(g)) != barycentric_graph(g)")
        fp, _ = map_cli(ctx, "face-poset", p["K"], p["FP"])
        oc, oc_text = map_cli(ctx, "order-complex", p["P"], p["OC"])
        bk, _ = map_cli(ctx, "bd", p["K"], p["BK"], "bd-complex")
        bp, bp_text = map_cli(ctx, "bd", p["P"], p["BP"], "bd-poset")
        expect(oc == bk and len(bk.simplices) == chains and len(bp.elements) == chains,
               "order_complex(clique_poset(g)) != barycentric_complex(delta-g(g))")

        expect(ctx.call("posets.clique_poset", clique_poset, g) == fp,
               "clique_poset(g) != face_poset(delta-g(g))")
        expect(ctx.call("posets.face_poset", face_poset, k) == poset,
               "face_poset(delta-g(g)) != clique_poset(g)")
        expect(ctx.call("simplicial.inclusion_graph", inclusion_graph, k) == bg,
               "inclusion_graph(delta-g(g)) != barycentric_graph(g)")
        expect(ctx.call("graphs.barycentric_graph", barycentric_graph, g) == bg,
               "barycentric_graph(g) differs from the bd map")
        expect(ctx.call("simplicial.barycentric_complex", barycentric_complex, k) == oc,
               "barycentric_complex(delta-g(g)) != order_complex(clique_poset(g))")
        expect(ctx.call("posets.order_complex", order_complex, poset) == bk,
               "order_complex(clique_poset(g)) differs from the bd complex map")
        expect(ctx.call("posets.face_poset", face_poset, bk) == bp,
               "barycentric_poset(P) != face_poset(order_complex(P))")
        expect(ctx.call("posets.barycentric_poset", barycentric_poset, poset) == bp,
               "barycentric_poset(clique_poset(g)) differs from the bd poset map")

        sv = ctx.call("dismantling.s_dismantlable_vertices", s_dismantlable_vertices, g)
        expect(sv == s_vertices, "s_dismantlable_vertices disagrees with the exhaustive oracle")
        v = sv[0]
        cert = ctx.call("posets.weak_point_cascade", weak_point_cascade, g, v)
        rep = ctx.call("posets.check_poset_certificate", check_poset_certificate, cert)
        expect(rep.ok, f"poset certificate rejected at move {rep.failed_at}: {rep.reason}")
        ctx.add("posets.check_poset_certificate.moves", len(cert.moves))
        expect(cert.start == poset, "cascade does not start at the clique poset")
        expect(cert.end == ctx.call("posets.clique_poset", clique_poset, g.without_vertex(v)),
               "cascade does not end at the clique poset of g minus v")
        return Result("done", sha(k_text, p_text, bg_text, oc_text, bp_text, str(len(cert.moves))))

    return Instance(ident, "map-graph", f"n={len(adj)} cliques={cliques} chains={chains}", run,
                    inputs=text)


def _map_poset_instance(ident: str, elements, rels, work: str) -> Instance:
    d = _instance_dir(work, ident)
    text = orc.poset_text(elements, rels)
    p = {k: os.path.join(d, f) for k, f in [
        ("P", "p.poset"), ("OC", "oc.complex"), ("FP", "fp.poset"), ("comp", "comp.graph"),
        ("dc", "dc.complex")]}
    write(p["P"], text)

    def run(ctx: Ctx) -> Result:
        poset = ctx.call("textio.parse_poset", textio.parse_poset, text)
        bp = ctx.call("posets.barycentric_poset", barycentric_poset, poset)
        oc, oc_text = map_cli(ctx, "order-complex", p["P"], p["OC"])
        expect(map_cli(ctx, "face-poset", p["OC"], p["FP"])[0] == bp,
               "barycentric_poset(P) != face_poset(order_complex(P))")
        comp, comp_text = map_cli(ctx, "comp", p["P"], p["comp"])
        expect(ctx.call("posets.comparability_graph", comparability_graph, poset) == comp,
               "comparability_graph differs from the comp map")
        expect(map_cli(ctx, "delta-g", p["comp"], p["dc"])[0] == oc,
               "clique_complex(comparability_graph(P)) != order_complex(P)")
        return Result("done", sha(oc_text, comp_text, str(len(bp.elements))))

    return Instance(ident, "map-poset", f"elements={len(elements)}", run, inputs=text)


def _map_complex_instance(ident: str, facets, work: str) -> Instance:
    d = _instance_dir(work, ident)
    text = orc.complex_text(facets)
    p = {k: os.path.join(d, f) for k, f in [
        ("K", "k.complex"), ("gamma", "gamma.graph"), ("BK", "bd.complex"), ("sk", "sk.graph")]}
    write(p["K"], text)
    edges = {frozenset(e) for f in facets for e in _pairs(f)}
    vertices = {v for f in facets for v in f}

    def run(ctx: Ctx) -> Result:
        k = ctx.call("textio.parse_complex", textio.parse_complex, text)
        gamma, gamma_text = map_cli(ctx, "gamma", p["K"], p["gamma"])
        fp = ctx.call("posets.face_poset", face_poset, k)
        expect(ctx.call("posets.comparability_graph", comparability_graph, fp) == gamma,
               "comparability_graph(face_poset(K)) != inclusion_graph(K)")
        bk, bk_text = map_cli(ctx, "bd", p["K"], p["BK"], "bd-complex")
        expect(ctx.call("posets.order_complex", order_complex, fp) == bk,
               "order_complex(face_poset(K)) != barycentric_complex(K)")
        sk, sk_text = map_cli(ctx, "sk", p["K"], p["sk"])
        expect(sk.vertices == vertices and set(sk.edges) == edges,
               "one_skeleton(K) is not the vertices and edges of K")
        return Result("done", sha(gamma_text, bk_text, sk_text))

    return Instance(ident, "map-complex", f"facets={len(facets)}", run, inputs=text)


def _pairs(facet):
    return [(a, b) for i, a in enumerate(facet) for b in facet[i + 1:]]


def _suite_instance(ident: str, suite_seed: int) -> Instance:
    def run(ctx: Ctx) -> Result:
        reports = ctx.call("identities.run_property_suite", run_property_suite, seed=suite_seed)
        # FAIL lines are the suite's own verdicts on library identities, so
        # they are reported as known defects rather than gated.
        failed = sorted({f"run_property_suite(seed={suite_seed}): FAIL {r.property_id}"
                         for r in reports if r.verdict == "fail"})
        # Instance names embed hash(g) & 0xffff, which PYTHONHASHSEED salts, so
        # the digest covers only the sorted (property, verdict) pairs.
        pairs = sorted(f"{r.property_id} {r.verdict}" for r in reports)
        full = sha(*(r.line() for r in reports))
        return Result("done", sha(*pairs), {"hash_dependent_digest": full,
                                            "known_defects": failed})

    return Instance(ident, "identities", f"seed={suite_seed}", run)


def _corpus_verify_instance(ident: str) -> Instance:
    def run(ctx: Ctx) -> Result:
        assertions = ctx.call("corpus.verify_corpus", corpus.verify_corpus)
        failed = [a.line() for a in assertions if not a.passed]
        expect(not failed, f"corpus assertions failed: {failed[:3]}")
        return Result("done", sha(*(a.line() for a in assertions)))

    return Instance(ident, "corpus-verify", "all fixtures", run)


BUILDERS = {"certify": build_certify, "search": build_search, "maps": build_maps}


def subdivision_text_roundtrip(seed: int) -> list[str]:
    """Known defect, reported but not gated: subdivision certificates do not
    survive their text format.  Hat labels such as ``[a,b]`` contain commas,
    and ``+v`` lines separate attachment labels by commas, so parsing splits
    them and ``flagcalc certify`` rejects the file.  The certify workload
    therefore replays the greedy certificate through the command line.
    """
    adj = orc.copwin_graph(random.Random(f"roundtrip:{seed}"), 6, 0.6)
    g = textio.parse_graph(orc.graph_text(adj))
    cert = subdivision_certificate(g)
    text = textio.format_move_certificate(cert)
    try:
        parsed = textio.parse_move_certificate(text, g)
    except ValueError as exc:
        return [f"subdivision certificate text does not parse back: {exc}"]
    rep = check_certificate(parsed)
    if not rep.ok or parsed.end != cert.end:
        return [f"subdivision certificate text replays wrongly: move {rep.failed_at}: {rep.reason}"]
    return []
