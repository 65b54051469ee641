#!/usr/bin/env python3
"""Build and run one workload of the tlbmap benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload npb-pipeline --seed 1 --seconds 30 --trace 0

Workloads: npb-pipeline, serve-mix. The benchmark
builds itself (`cargo build --release` of perfbench/Cargo.toml, into
$CARGO_TARGET_DIR or .bench_build), runs the workload, and prints one JSON
object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. Every run also writes a record to .bench_out/: the result,
the run's detail (sample counts, digests, check failures), the host
fingerprint and the load average at start and end. A traced run's spans go
to .bench_out/spans-<workload>-seed<n>-trace1.jsonl. Compare two records
with perfbench/compare.py, which refuses records from different hosts.

The exit code is 1 when any correctness check failed; the result line is
still printed, with "correct": false.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = ("npb-pipeline", "serve-mix")
# The benchmark itself stops after its measured seconds plus set-up and
# checks; this only guards against a hang.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def command_output(argv):
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    roots = ["crates", "perfbench"]
    skip = {"target", ".bench_build", ".bench_out", "__pycache__"}
    paths = []
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, root)):
            dirnames[:] = sorted(d for d in dirnames if d not in skip)
            paths.extend(os.path.join(dirpath, f) for f in filenames)
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def host_fingerprint():
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "rustc": command_output(["rustc", "--version"]),
        "git_revision": command_output(["git", "rev-parse", "HEAD"]),
        "source_digest": source_digest(),
    }


def build(env):
    manifest = os.path.join(BENCH, "Cargo.toml")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        fail("building the benchmark failed (it needs the repository's crates/ next to perfbench/)")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    return os.path.join(target, "release", "tlbmap-perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    binary = build(env)

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    argv = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        argv += ["--spans-out", os.path.join(out_dir, f"spans-{tag}.jsonl")]
    load_start = os.getloadavg()
    started = time.time()
    try:
        done = subprocess.run(
            argv,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    try:
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        fail(f"the benchmark exited with code {done.returncode} and printed no result")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_unix": started,
        "wall_s": time.time() - started,
        "host": host_fingerprint(),
        "load_avg_start": load_start,
        "load_avg_end": os.getloadavg(),
        "detail": detail,
        "result": result,
    }
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as f:
        json.dump(record, f, indent=1)
    with open(os.path.join(out_dir, "history.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")

    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    if done.returncode != 0 or result["failed"] > 0:
        fail(f"{result['failed']} of {result['attempted']} operations failed their checks")


if __name__ == "__main__":
    main()
