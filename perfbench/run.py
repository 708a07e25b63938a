#!/usr/bin/env python3
"""Serving-loop benchmark: builds perfbench/serve_bench from source and runs
one workload.

    python3 perfbench/run.py --workload mixed_100k --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under perfbench-cmake/; per-run results and, for --trace 1, the
span file go to results/ beside it. Build output goes to stderr; the last
line of stdout is the result JSON. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds serve_bench; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("run.py: the psens sources (CMakeLists.txt, src/) are not "
                 "next to perfbench/; run from a full checkout")
    out = os.path.join(build_dir(), "perfbench-cmake")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "serve_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return os.path.join(out, "serve_bench")


def run(binary, args):
    """Runs serve_bench; returns (stdout lines, parsed result)."""
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", results]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run.py: serve_bench exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        sys.exit("run.py: malformed result line: " + lines[-1])
    return lines, result


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main():
    args = parse_args()
    binary = build()
    lines, _ = run(binary, args)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
