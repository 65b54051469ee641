#!/usr/bin/env python3
"""Same-runner A/B gate over the benchmark records of two checkouts.

Usage:

    python3 .github/scripts/bench_ab.py BASE_DIR HEAD_DIR
    python3 .github/scripts/bench_ab.py --self-test

BASE_DIR and HEAD_DIR are two checkouts of the repository on one host. Each
has already run every workload of BASE_DIR/BENCHMARK.json once per pair,
untraced, with the pair number as seed (`perfbench/run.py --workload W
--seed P --seconds S --trace 0`), so its records sit in
DIR/.bench_out/W-seedP-trace0.json. The base's BENCHMARK.json names the
workloads and bounds, so a change cannot loosen its own gate.

Exits 1 when a workload has no records or the two sides ran other seeds,
when any run reports "correct": false, or when the head's median of an
end-to-end metric is worse than the base's median by more than that
metric's bound. For each workload it first prints HEAD_DIR's
perfbench/compare.py table of the first pair as a readable record.

--self-test runs the gate on record sets built in memory and exits 0 only
when identical records pass, and a head whose throughput is 30 % lower and
a head with one incorrect run both fail.
"""

import argparse
import copy
import glob
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_runs(tree, workloads):
    """{workload: [untraced records, ordered by seed]}"""
    runs = {}
    for w in workloads:
        records = []
        for path in glob.glob(os.path.join(tree, ".bench_out", f"{w}-seed*-trace0.json")):
            with open(path) as f:
                records.append(json.load(f))
        runs[w] = sorted(records, key=lambda r: r["seed"])
    return runs


def gate(base, head, bench):
    """Print the median comparison and return the list of failures."""
    failures = []
    for side, runs in (("base", base), ("head", head)):
        for w, records in runs.items():
            for r in records:
                if not r["result"]["correct"]:
                    failures.append(f"{w}: {side} run with seed {r['seed']} is not correct")
    print(f"{'workload':<14} {'metric':<18} {'base median':<14} {'head median':<14} change")
    for w in base:
        for m in bench["end_to_end"]:
            name = m["name"]
            b = [r["result"]["metrics"][name]["value"] for r in base[w] if name in r["result"]["metrics"]]
            h = [r["result"]["metrics"][name]["value"] for r in head[w] if name in r["result"]["metrics"]]
            if not b:
                continue
            if len(h) != len(head[w]):
                failures.append(f"{w}: head runs lack {name}")
                continue
            mb, mh = statistics.median(b), statistics.median(h)
            change = (mh - mb) / mb if mb else 0.0
            worse = -change if m["better"] == "higher" else change
            mark = ""
            if worse > m["bound"]:
                mark = f"  worse than the {m['bound']:.0%} bound"
                failures.append(f"{w}: {name} median {mh:.6g} vs {mb:.6g} ({change:+.2%})")
            print(f"{w:<14} {name:<18} {mb:<14.6g} {mh:<14.6g} {change:+8.2%}{mark}")
    for failure in failures:
        print(f"FAIL: {failure}")
    return failures


def self_test(bench):
    def record(w, seed, throughput):
        values = {"setup_s": 0.5, "throughput_per_s": throughput, "latency_ms": 1.2,
                  "peak_rss_mib": 150.0, "ok_ratio": 1.0}
        metrics = {k: {"value": v, "unit": ""} for k, v in values.items()}
        return {"workload": w, "seed": seed, "result": {"correct": True, "metrics": metrics}}

    # Spreads like the measured ones (about 5 %) around a common centre.
    base = {w["name"]: [record(w["name"], s, 1000.0 * (1 + 0.02 * (s - 3))) for s in range(1, 6)]
            for w in bench["workloads"]}
    slower = copy.deepcopy(base)
    for r in next(iter(slower.values())):
        r["result"]["metrics"]["throughput_per_s"]["value"] *= 0.7
    incorrect = copy.deepcopy(base)
    next(iter(incorrect.values()))[2]["result"]["correct"] = False

    ok = True
    for case, head, should_pass in (("identical", copy.deepcopy(base), True),
                                    ("throughput 30 % lower", slower, False),
                                    ("one incorrect run", incorrect, False)):
        print(f"== self-test: {case} ==")
        passed = not gate(base, head, bench)
        print(f"-> {'pass' if passed else 'fail'} (expected {'pass' if should_pass else 'fail'})\n")
        ok &= passed == should_pass
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="?")
    parser.add_argument("head", nargs="?")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            sys.exit(0 if self_test(json.load(f)) else 1)
    if not (args.base and args.head):
        parser.error("BASE_DIR and HEAD_DIR are required without --self-test")

    with open(os.path.join(args.base, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    base = load_runs(args.base, workloads)
    head = load_runs(args.head, workloads)
    for w in workloads:
        seeds = [r["seed"] for r in base[w]]
        if not seeds or seeds != [r["seed"] for r in head[w]]:
            sys.exit(f"FAIL: {w}: base and head must run the same seeds, one record each")
        print(f"== {w}, seed {seeds[0]} ==", flush=True)
        record = f"{w}-seed{seeds[0]}-trace0.json"
        subprocess.run([sys.executable, os.path.join(args.head, "perfbench", "compare.py"),
                        os.path.join(args.base, ".bench_out", record),
                        os.path.join(args.head, ".bench_out", record)])
    print(f"\n== medians of {len(seeds)} interleaved pairs ==")
    sys.exit(1 if gate(base, head, bench) else 0)


if __name__ == "__main__":
    main()
