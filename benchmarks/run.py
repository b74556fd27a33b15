"""flagcalc benchmark: certify, search and maps workloads, end to end and per layer.

    python3 benchmarks/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.  The
script re-executes itself under a pinned PYTHONHASHSEED, so every run starts
in a fresh interpreter whose hashing is the same.  The workload seed fixes
every input.  One pass runs the workload's instances once, in the seed's
order, after clearing flagcalc's ``lru_cache``s, so each pass warms them the
way one program using the library would.  Passes repeat until ``--seconds``
are used, and every pass must reproduce the first one's work counters and
output digest.  Correctness oracles from ``oracles.py`` run once, outside the timing.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half traced, prints the per-layer metrics (self time per
pass, counts and ratios) and the tracing overhead, and writes the spans.
Both write a report under ``.bench_run/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_run")
PINNED_HASH_SEED = 0
REFERENCE_MS = 0.7
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("certify", "search", "maps"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--hash-seed", type=int, default=PINNED_HASH_SEED,
                    help="PYTHONHASHSEED to run under (the digest check varies it)")
    ap.add_argument("--setup-probe", action="store_true",
                    help="only import and build the inputs, then print their digest")
    return ap.parse_args(argv)


def fail(message: str) -> None:
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(2)


def pin_hash_seed(args) -> None:
    want = str(args.hash_seed)
    if os.environ.get("PYTHONHASHSEED") != want:
        env = dict(os.environ, PYTHONHASHSEED=want)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)


def import_library():
    if not os.path.isfile(os.path.join(SRC, "flagcalc", "__init__.py")):
        fail(f"no flagcalc sources under {SRC}; run from the root of a flagcalc checkout")
    sys.path.insert(0, SRC)
    import flagcalc
    if not os.path.abspath(flagcalc.__file__).startswith(SRC + os.sep):
        fail(f"imported flagcalc from {flagcalc.__file__}, not from {SRC}")
    return flagcalc


def build(workload: str, seed: int, work: str):
    import workloads
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    instances = workloads.BUILDERS[workload](seed, work)
    h = hashlib.sha256()
    for i in instances:
        h.update(f"{i.ident} {i.kind} {i.size}\n{i.inputs}\0".encode())
    digest = h.hexdigest()
    return instances, digest


# ---------------------------------------------------------------------------
# set-up time: fresh interpreters that import and build the inputs


def measure_setup(args, ref) -> tuple[list[float], list[float], set[str]]:
    """Wall seconds of each probe, the same rescaled by the reference kernel
    sampled just before and after it, and the input digests the probes built."""
    env = dict(os.environ, PYTHONHASHSEED=str(args.hash_seed))
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--hash-seed", str(args.hash_seed)]
    wall, scaled, digests = [], [], set()
    for _ in range(SETUP_PROBES):
        before = [ref.sample_ms() for _ in range(Reference.WINDOW)]
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env, cwd=ROOT, text=True)
        try:
            out, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            fail("set-up probe timed out")
        wall.append(perf_counter() - start)
        after = [ref.sample_ms() for _ in range(Reference.WINDOW)]
        scaled.append(wall[-1] * REFERENCE_MS / statistics.median(before + after))
        if proc.returncode != 0:
            fail(f"set-up probe exited {proc.returncode}: {err.strip()[-500:]}")
        digests.add(out.strip().splitlines()[-1])
    return wall, scaled, digests


# ---------------------------------------------------------------------------
# passes


class Cutoff(Exception):
    pass


def _alarm(signum, frame):
    raise Cutoff()


def library_caches():
    """Every lru_cache in flagcalc's modules, found by their cache_info/cache_clear."""
    found = []
    for name in sorted(sys.modules):
        if name == "flagcalc" or name.startswith("flagcalc."):
            for attr in sorted(vars(sys.modules[name])):
                obj = getattr(sys.modules[name], attr)
                if callable(getattr(obj, "cache_clear", None)) and hasattr(obj, "cache_info") \
                        and obj not in found:
                    found.append(obj)
    return found


def memo_snapshot(flagcalc) -> dict[str, int]:
    """Hits and calls of the two big memos; the canonical-form one is private."""
    out = {}
    for label, fn in (("dismantling.greedy_dismantling", flagcalc.dismantling.greedy_dismantling),
                      ("graphs.canonical_form",
                       getattr(flagcalc.graphs, "_canonical_full", None))):
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        out[f"{label}.memo_hits"] = info.hits if info else 0
        out[f"{label}.memo_calls"] = info.hits + info.misses if info else 0
    return out


class Pass:
    def __init__(self):
        self.times_ms: list[float] = []
        self.elapsed = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # wrong outputs, exceptions and cut-offs
        self.decided = 0
        self.results: dict[str, object] = {}
        self.digest = ""
        self.counts: dict[str, int] = {}
        self.spans: list = []
        self.instance_spans: list = []
        self.rss_mb = 0.0
        self.ref_ms: list[float] = []
        self.wall_only: list[bool] = []
        self.scaled_ms: list[float] = []


class Reference:
    """A fixed piece of the benchmark's own pure-Python work, timed between
    instances to track the host's speed.

    On the shared 2-core host this was written on, the same instance ran up to
    1.6x slower from one second to the next.  Each instance's wall time, and
    each set-up probe's, is divided by the median reference time measured
    around it and multiplied by REFERENCE_MS, the kernel's time on a quiet
    core, which cancels those swings; the raw wall times are reported beside
    the rescaled ones.
    """

    WINDOW = 5

    def __init__(self):
        import oracles
        self._oracles = oracles
        self._graph = oracles.gnp_graph(random.Random(7), 12, 0.5)

    def sample_ms(self) -> float:
        start = perf_counter()
        self._oracles.SCollapse(self._graph).collapsible()
        self._oracles.all_cliques(self._graph)
        return (perf_counter() - start) * 1000.0

    @classmethod
    def rescale(cls, times_ms, samples_ms, wall_only) -> list[float]:
        """times_ms[i] sits between samples_ms[i] and samples_ms[i + 1]."""
        out = []
        for i, t in enumerate(times_ms):
            if wall_only[i]:
                out.append(t)
                continue
            near = samples_ms[max(0, i - cls.WINDOW):i + cls.WINDOW + 2]
            out.append(t * REFERENCE_MS / statistics.median(near))
        return out


def run_pass(instances, ctx, caches, flagcalc, ref: Reference) -> Pass:
    import workloads
    for c in caches:
        c.cache_clear()
    ctx.counts = {}
    rec = Pass()
    h = hashlib.sha256()
    memo = None
    start_pass = perf_counter()
    rec.ref_ms.append(ref.sample_ms())
    for inst in instances:
        if inst.cutoff_is_unknown and memo is None:
            memo = memo_snapshot(flagcalc)
            rec.rss_mb = peak_rss_mb()
        ctx.instance = inst.ident
        rec.attempted += 1
        verdict = None
        cut = False
        t0 = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, inst.limit_s)
            try:
                res = inst.run(ctx)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            verdict = res.verdict
            rec.results[inst.ident] = res
        except Cutoff:
            cut = True
            if inst.cutoff_is_unknown:
                verdict = "unknown"
                ctx.add("dismantling.i_contractibility.cut_off")
                rec.results[inst.ident] = workloads.Result("unknown", "cut off by the wall clock")
            else:
                rec.failed += 1
                rec.problems.append(f"{inst.ident}: cut off after {inst.limit_s} s")
        except workloads.Wrong as exc:
            rec.failed += 1
            rec.problems.append(f"{inst.ident}: {exc}")
        except Exception as exc:
            rec.failed += 1
            rec.problems.append(f"{inst.ident}: raised {type(exc).__name__}: {exc}")
            print(f"{inst.ident}: exception\n{traceback.format_exc()}", file=sys.stderr)
        t1 = perf_counter()
        rec.times_ms.append((t1 - t0) * 1000.0)
        rec.wall_only.append(cut)  # a wall-clock limit costs the same at any host speed
        rec.ref_ms.append(ref.sample_ms())
        rec.instance_spans.append((inst.kind, t0, t1, inst.ident))
        if verdict is not None:
            rec.decided += verdict in ("yes", "no", "done")
            h.update(f"{inst.ident} {verdict} {rec.results[inst.ident].digest}\n".encode())
    rec.elapsed = perf_counter() - start_pass
    rec.scaled_ms = Reference.rescale(rec.times_ms, rec.ref_ms, rec.wall_only)
    rec.rss_mb = rec.rss_mb or peak_rss_mb()
    rec.counts = dict(ctx.counts)
    rec.counts.update(memo or memo_snapshot(flagcalc))
    rec.digest = h.hexdigest()
    if hasattr(ctx, "spans"):
        rec.spans, ctx.spans = ctx.spans, []
    return rec


def run_passes(instances, ctx, caches, flagcalc, ref, seconds: float) -> list[Pass]:
    """Whole passes only, as many as fit `seconds` judged by the first one."""
    first = run_pass(instances, ctx, caches, flagcalc, ref)
    total = max(1, round(seconds / max(first.elapsed, 1e-9)))
    return [first] + [run_pass(instances, ctx, caches, flagcalc, ref) for _ in range(total - 1)]


def throughput(passes: list[Pass], scaled: bool) -> float:
    """Instances per second of instance time, rescaled or wall."""
    ms = sum(sum(p.scaled_ms if scaled else p.times_ms) for p in passes)
    return sum(p.attempted for p in passes) * 1000.0 / ms


# ---------------------------------------------------------------------------
# metrics


def quantile(values, q: int) -> float:
    """The q-th decile (q in 1..9) by statistics.quantiles' default method."""
    return statistics.quantiles(values, n=10)[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(passes: list[Pass], counts: dict[str, int]) -> dict[str, float]:
    """Self time per pass (ms at reference speed) for every span name, plus rates.

    A span is rescaled by the factor of the instance it belongs to.
    """
    n = len(passes)
    busy: dict[str, float] = {}
    child = 0.0
    inst = 0.0
    for p in passes:
        factor = {}
        for (_, _, _, ident), wall, scaled in zip(p.instance_spans, p.times_ms, p.scaled_ms):
            factor[ident] = scaled / wall if wall else 1.0
            inst += scaled / 1000.0
        for name, t0, t1, ident in p.spans:
            d = (t1 - t0) * factor[ident]
            busy[name] = busy.get(name, 0.0) + d
            child += d
    out = {f"{k}.ms": v * 1000.0 / n for k, v in busy.items()}
    out["harness.instance_self.ms"] = (inst - child) * 1000.0 / n
    out.update({k: float(v) for k, v in counts.items()})

    def rate(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    out["dismantling.check_certificate.us_per_step"] = rate(
        out.get("dismantling.check_certificate.ms", 0.0),
        counts.get("dismantling.check_certificate.witness_steps", 0), 1000.0)
    out["simplicial.check_complex_certificate.us_per_move"] = rate(
        out.get("simplicial.check_complex_certificate.ms", 0.0),
        counts.get("simplicial.check_complex_certificate.moves", 0), 1000.0)
    for search in ("dismantling.s_collapse_search", "dismantling.ws_reduction_search"):
        out[f"{search}.nodes_per_s"] = rate(counts.get(f"{search}.nodes", 0),
                                            out.get(f"{search}.ms", 0.0), 1000.0)
    for memo in ("dismantling.greedy_dismantling", "graphs.canonical_form"):
        out[f"{memo}.memo_hit_ratio"] = rate(counts.get(f"{memo}.memo_hits", 0),
                                             counts.get(f"{memo}.memo_calls", 0))
    return out


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv) -> int:
    args = parse_args(argv)
    pin_hash_seed(args)
    flagcalc = import_library()
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 10000))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-hash{args.hash_seed}"

    if args.setup_probe:
        work = os.path.join(OUT, f"probe-{os.getpid()}")
        try:
            _, digest = build(args.workload, args.seed, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(digest)
        return 0

    spec = load_spec()
    instances, input_digest = build(args.workload, args.seed, os.path.join(OUT, f"work-{tag}"))
    import workloads
    ref = Reference()
    setup_wall, setup_times, probe_digests = measure_setup(args, ref)
    problems = []
    if probe_digests != {input_digest}:
        problems.append("set-up probes built different inputs from the same seed")

    signal.signal(signal.SIGALRM, _alarm)
    caches = library_caches()
    if args.trace:
        plain = run_passes(instances, workloads.Ctx(), caches, flagcalc, ref, args.seconds / 2)
        traced = run_passes(instances, workloads.TracedCtx(), caches, flagcalc, ref,
                            args.seconds / 2)
        passes = plain + traced
    else:
        plain = passes = run_passes(instances, workloads.Ctx(), caches, flagcalc, ref,
                                    args.seconds)
        traced = []

    first = passes[0]
    for p in passes[1:]:
        if p.digest != first.digest:
            problems.append("a later pass produced different outputs from the first")
            break
        if p.counts != first.counts:
            diff = sorted(k for k in set(p.counts) | set(first.counts)
                          if p.counts.get(k) != first.counts.get(k))
            problems.append(f"work counters differ between passes: {diff}")
            break
    verified = 0
    for inst in instances:
        res = first.results.get(inst.ident)
        if res is None:
            continue
        try:
            inst.verify(res)
            verified += 1
        except workloads.Wrong as exc:
            first.problems.append(f"{inst.ident}: {exc}")
    problems.extend(sorted({w for p in passes for w in p.problems}))
    known_defects = []
    if args.workload == "certify":
        known_defects = workloads.subdivision_text_roundtrip(args.seed)
    for res in first.results.values():
        known_defects.extend(res.extra.get("known_defects", ()))

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    decided = sum(p.decided for p in passes)
    # Each instance's time is its median over the untraced passes, which damps
    # the host's jitter; the deciles are then taken over the instances.
    times = [statistics.median(ts) for ts in zip(*(p.scaled_ms for p in plain))]
    wall = [statistics.median(ts) for ts in zip(*(p.times_ms for p in plain))]
    ips = throughput(plain, scaled=True)
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "wall_setup_s": statistics.median(setup_wall),
        "instances_per_s": ips,
        "instance_ms_p50": statistics.median(times),
        "instance_ms_p90": quantile(times, 9),
        "wall_instances_per_s": throughput(plain, scaled=False),
        "wall_instance_ms_p50": statistics.median(wall),
        "wall_instance_ms_p90": quantile(wall, 9),
        "reference_ms_median": statistics.median(r for p in plain for r in p.ref_ms),
        "decided_share": decided / attempted,
        "failed_share": failed / attempted,
        "peak_rss_mb": first.rss_mb,
    }
    per_layer = {}
    if traced:
        per_layer = layer_metrics(traced, first.counts)
        per_layer["trace.overhead_pct"] = 100.0 * (1.0 - throughput(traced, scaled=True) / ips)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({"failed_share": "ratio", "wall_setup_s": "s", "wall_instances_per_s": "1/s",
                  "wall_instance_ms_p50": "ms", "wall_instance_ms_p90": "ms",
                  "reference_ms_median": "ms"})
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        source = per_layer if args.trace else end_to_end
        metrics[m["name"]] = {"value": float(source.get(m["name"], 0.0)), "unit": m["unit"]}

    kinds: dict[str, list[float]] = {}
    for inst, t in zip(instances, plain[0].scaled_ms):
        kinds.setdefault(inst.kind, []).append(t)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "hash_seed": args.hash_seed, "python": platform.python_version(),
        "platform": platform.platform(), "instances_per_pass": len(instances),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "input_digest": input_digest, "output_digest": first.digest,
        "counters": first.counts, "verified_instances": verified,
        "setup_probe_s": setup_wall, "end_to_end": end_to_end, "per_layer": per_layer,
        "kinds": {k: {"count": len(v), "ms_median": statistics.median(v), "ms_max": max(v),
                      "ms_sum": sum(v)}
                  for k, v in sorted(kinds.items())},
        "hash_dependent": {i: r.extra["hash_dependent_digest"]
                           for i, r in first.results.items()
                           if "hash_dependent_digest" in r.extra},
        "problems": problems, "known_defects": known_defects,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"report-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    if traced:
        with open(os.path.join(OUT, f"spans-{tag}.jsonl"), "w", encoding="utf-8") as fh:
            for k, p in enumerate(traced):
                for kind, t0, t1, ident in p.instance_spans:
                    fh.write(json.dumps({"pass": k, "name": f"instance.{kind}", "start": t0,
                                         "end": t1, "instance": ident, "parent": None}) + "\n")
                for name, t0, t1, ident in p.spans:
                    fh.write(json.dumps({"pass": k, "name": name, "start": t0, "end": t1,
                                         "instance": ident, "parent": ident}) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"instances/pass={len(instances)} passes={len(plain)}+{len(traced)} "
          f"verified={verified} digest={first.digest[:16]}")
    for name, value in end_to_end.items():
        print(f"{name:48s} {value:14.4f} {units.get(name, '')}")
    for name in sorted(per_layer):
        print(f"{name:48s} {per_layer[name]:14.4f} {units.get(name, '')}")
    for d in known_defects:
        print(f"KNOWN DEFECT (reported, not gated) {d}")
    for p in problems[:20]:
        print(f"PROBLEM {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
