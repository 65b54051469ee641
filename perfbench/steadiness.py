#!/usr/bin/env python3
"""Measure how steady the benchmark is.

Usage, from the root of the repository:

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 100] [workload ...]

Runs each workload (all of BENCHMARK.json's by default) --runs times
untraced, each with another seed, and prints for every end-to-end metric
its median and its spread: the distance between the first and third
quartile (Python's statistics.quantiles(values, n=4)) as a share of the
median, next to the metric's bound. A spread should stay below a third of
its bound. The values of every run are appended to
.bench_out/steadiness.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    log = open(os.path.join(ROOT, ".bench_out", "steadiness.jsonl"), "a")
    worst = 0.0
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for i in range(args.runs):
            seed = args.first_seed + i
            argv = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed} is not correct: {result}")
            log.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
            log.flush()
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload} ({args.runs} runs)")
        for m in bench["end_to_end"]:
            xs = values[m["name"]]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            worst = max(worst, spread / m["bound"])
            flag = "" if spread < m["bound"] / 3 else "  <-- above a third of the bound"
            print(f"  {m['name']:<18} median {med:<14.6g} spread {spread:7.2%}"
                  f"  bound {m['bound']:.0%}{flag}")
    print(f"worst spread / bound: {worst:.2f}")


if __name__ == "__main__":
    main()
