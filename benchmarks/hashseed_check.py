"""Self-check of the benchmark: digests and work counters must not depend on
PYTHONHASHSEED or on tracing.

    python3 benchmarks/hashseed_check.py [--write-pins]

For each workload, at workload seed 0, it runs one pass untraced under
PYTHONHASHSEED=0 and one pass traced under PYTHONHASHSEED=1, then requires
identical input digests, output digests and work counters.  It also compares
the digests with ``pinned.json``, so a change that alters any output shows, and prints the
full-line digest of ``run_property_suite``, whose instance names embed
``hash(g)`` and so are expected to differ between hash seeds.
``--write-pins`` records the current digests in ``pinned.json`` instead.
Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pinned.json")
SEED = 0
WORKLOADS = ("certify", "search", "maps")


def run(workload: str, seed: int, trace: int, hash_seed: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
           "--hash-seed", str(hash_seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
    if result is None or not result["correct"]:
        sys.exit(f"{workload} run failed (exit {proc.returncode}):\n{proc.stdout[-2000:]}"
                 f"{proc.stderr[-2000:]}")
    tag = f"{workload}-seed{seed}-trace{trace}-hash{hash_seed}"
    with open(os.path.join(ROOT, ".bench_run", f"report-{tag}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args()

    pins = {}
    if os.path.exists(PINS):
        with open(PINS, encoding="utf-8") as fh:
            pins = json.load(fh)
    ok = True
    for workload in WORKLOADS:
        a = run(workload, SEED, trace=0, hash_seed=0)
        b = run(workload, SEED, trace=1, hash_seed=1)
        for key in ("input_digest", "output_digest", "counters"):
            same = a[key] == b[key]
            ok &= same
            print(f"{workload:8s} {key:14s} {'same' if same else 'DIFFERENT'} "
                  f"under hash seeds 0/1 and trace 0/1")
        for ident, digest in sorted(a["hash_dependent"].items()):
            other = b["hash_dependent"].get(ident)
            print(f"{workload:8s} {ident} full-line digest "
                  f"{'same' if digest == other else 'differs'} under hash seeds 0/1 "
                  f"(hash-dependent instance names; not compared)")
        key = f"{workload}/{SEED}"
        mine = {"input_digest": a["input_digest"], "output_digest": a["output_digest"]}
        if args.write_pins:
            pins[key] = mine
        else:
            same = pins.get(key) == mine
            ok &= same
            print(f"{workload:8s} pinned digests {'match' if same else 'DIFFER'}")
    if args.write_pins:
        with open(PINS, "w", encoding="utf-8") as fh:
            json.dump(pins, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("ok" if ok else "MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
