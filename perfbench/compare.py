#!/usr/bin/env python3
"""Compare two benchmark records written by perfbench/run.py.

Usage, from the root of the repository:

    python3 perfbench/compare.py .bench_out/A.json .bench_out/B.json [--allow-other-host]

Records from hosts with a different CPU count, CPU model or rustc version
are refused (exit code 2) unless --allow-other-host is given, so numbers
from two machines are never compared silently. For each metric both
records carry, prints both values and the change of B against A; an
end-to-end metric that got worse by more than its BENCHMARK.json bound is
marked. When A is an untraced and B a traced run of one workload and seed,
also prints the tracing overhead (the drop from A's throughput_per_s to B's
trace.throughput_per_s) and whether both produced the same simulated
statistics; when they did not, the exit code is 1.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_KEYS = ("cpu_count", "cpu_model", "rustc")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--allow-other-host", action="store_true")
    args = parser.parse_args()
    a, b = (json.load(open(path)) for path in (args.a, args.b))

    differs = [k for k in HOST_KEYS if a["host"].get(k) != b["host"].get(k)]
    if differs:
        print("records come from different hosts:", file=sys.stderr)
        for k in differs:
            print(f"  {k}: {a['host'].get(k)!r} vs {b['host'].get(k)!r}", file=sys.stderr)
        if not args.allow_other_host:
            sys.exit(2)
    for label, r in (("A", a), ("B", b)):
        print(f"{label}: {r['workload']} seed {r['seed']} trace {r['trace']}"
              f" revision {r['host'].get('git_revision') or r['host']['source_digest']}"
              f" load {r['load_avg_start'][0]:.2f}->{r['load_avg_end'][0]:.2f}")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    for name in [n for n in ma if n in mb]:
        va, vb = ma[name]["value"], mb[name]["value"]
        change = (vb - va) / va if va else 0.0
        mark = ""
        if name in bounds:
            worse = -change if bounds[name]["better"] == "higher" else change
            if worse > bounds[name]["bound"]:
                mark = f"  worse than the {bounds[name]['bound']:.0%} bound"
        print(f"  {name:<34} {va:<14.6g} {vb:<14.6g} {change:+8.2%} {ma[name]['unit']}{mark}")

    same_run = a["workload"] == b["workload"] and a["seed"] == b["seed"]
    if same_run and a["trace"] == 0 and b["trace"] == 1:
        untraced = ma.get("throughput_per_s", {}).get("value")
        traced = mb.get("trace.throughput_per_s", {}).get("value")
        if untraced and traced:
            print(f"tracing overhead: {1 - traced / untraced:+.2%} of throughput")
        da, db = a["detail"].get("facts_digest"), b["detail"].get("facts_digest")
        if da or db:
            print(f"simulated statistics identical: {da == db}")
            if da != db:
                sys.exit(1)


if __name__ == "__main__":
    main()
