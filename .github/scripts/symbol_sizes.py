#!/usr/bin/env python3
"""Report how the engine's function sizes moved between two binaries.

Usage:

    python3 .github/scripts/symbol_sizes.py BASE_BINARY HEAD_BINARY
    python3 .github/scripts/symbol_sizes.py --self-test

Reads both binaries' symbol tables with `nm -S -C` and compares every
function of the engine crates (`tlbmap_sim`, `tlbmap_cache`,
`tlbmap_mem`, including their trait impls). Prints each function whose
size changed, appeared or disappeared, then the totals. Under thin LTO a
change in an unrelated crate can alter how these functions are inlined
and compiled (DESIGN "Cross-crate inlining"), which a five-pair timing
gate cannot see; this report names the functions that moved.

Report only: exits 0 whatever moved, and 2 when a binary cannot be read.

--self-test runs the comparison on symbol tables built in memory and exits
0 only when unchanged functions are left out, grown, added and removed ones
are reported with their sizes, and functions of other crates are ignored.
"""

import re
import subprocess
import sys

ENGINE = re.compile(r"^<?tlbmap_(sim|cache|mem)::")
# Legacy-mangled Rust names end in a hash that differs between builds of
# the same source in different directories.
HASH = re.compile(r"::h[0-9a-f]{16}$")


def engine_functions(nm_output):
    """{demangled name: total size in bytes} of the engine's functions.

    Monomorphised copies that share a name are summed."""
    sizes = {}
    for line in nm_output.splitlines():
        parts = line.split(None, 3)
        if len(parts) != 4 or parts[2] not in ("t", "T"):
            continue
        name = HASH.sub("", parts[3])
        if ENGINE.match(name):
            sizes[name] = sizes.get(name, 0) + int(parts[1], 16)
    return sizes


def compare(base, head):
    """The report lines for two {name: size} tables."""
    lines = []
    for name in sorted(base.keys() | head.keys()):
        b, h = base.get(name), head.get(name)
        if b == h:
            continue
        if b is None:
            lines.append(f"  added    {h:>7}          {name}")
        elif h is None:
            lines.append(f"  removed  {b:>7}          {name}")
        else:
            lines.append(f"  changed  {b:>7} -> {h:<7} {h - b:+} {name}")
    total_b, total_h = sum(base.values()), sum(head.values())
    unchanged = sum(1 for name in base if head.get(name) == base[name])
    lines.append(
        f"engine functions: {len(base)} base, {len(head)} head, {unchanged} unchanged; "
        f"bytes {total_b} -> {total_h} ({total_h - total_b:+})"
    )
    return lines


def read(binary):
    result = subprocess.run(["nm", "-S", "-C", binary], capture_output=True, text=True)
    if result.returncode != 0:
        raise RuntimeError(f"error: nm could not read {binary}: {result.stderr.strip()}")
    return engine_functions(result.stdout)


def self_test():
    base = "\n".join([
        "0000000000001000 0000000000000100 T tlbmap_sim::engine::simulate_observed::h0123456789abcdef",
        "0000000000002000 0000000000000040 t tlbmap_sim::sched::RunQueue::push",
        "0000000000003000 0000000000000030 t tlbmap_cache::set::Set::probe",
        "0000000000004000 0000000000000020 t <tlbmap_mem::tlb::Tlb as core::fmt::Debug>::fmt",
        "0000000000005000 0000000000000500 T tlbmap_mapping::matching::CompleteMatcher::scan",
        "0000000000006000 0000000000000008 D tlbmap_sim::engine::TABLE",
    ])
    head = "\n".join([
        "0000000000001000 0000000000000152 T tlbmap_sim::engine::simulate_observed::hfedcba9876543210",
        "0000000000002000 0000000000000040 t tlbmap_sim::sched::RunQueue::push",
        "0000000000004000 0000000000000020 t <tlbmap_mem::tlb::Tlb as core::fmt::Debug>::fmt",
        "0000000000007000 0000000000000010 t tlbmap_mem::mmu::Mmu::lookup",
        "0000000000005000 0000000000000900 T tlbmap_mapping::matching::CompleteMatcher::scan",
    ])
    lines = compare(engine_functions(base), engine_functions(head))
    report = "\n".join(lines)
    checks = [
        ("grown function reported with its delta",
         "changed      256 -> 338     +82 tlbmap_sim::engine::simulate_observed" in report),
        ("added function reported", "added         16          tlbmap_mem::mmu::Mmu::lookup" in report),
        ("removed function reported", "removed       48          tlbmap_cache::set::Set::probe" in report),
        ("unchanged functions left out", "RunQueue::push" not in report and "Debug" not in report),
        ("other crates and data ignored", "tlbmap_mapping" not in report and "TABLE" not in report),
        ("totals", lines[-1] == "engine functions: 4 base, 4 head, 2 unchanged; "
                               "bytes 400 -> 450 (+50)"),
    ]
    failed = [what for what, ok in checks if not ok]
    print(report)
    for what in failed:
        print(f"self-test FAILED: {what}")
    return 1 if failed else 0


def main():
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    if len(sys.argv) != 3:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    try:
        base, head = read(sys.argv[1]), read(sys.argv[2])
    except (OSError, RuntimeError) as e:
        print(e, file=sys.stderr)
        return 2
    print(f"engine symbol sizes: {sys.argv[1]} -> {sys.argv[2]}")
    for line in compare(base, head):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
