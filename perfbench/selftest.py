#!/usr/bin/env python3
"""Self-test of the serving-loop benchmark.

    python3 perfbench/selftest.py [--slots N]

For every workload it serves a short prefix three times: untraced at the
workload's thread count, untraced at threads=1, and traced. The three outcome
digests (selections, values, costs, payments, valuation calls) must be
identical, which is the repository's bit-identity contract across thread
counts and shows the traced path issues ServeSlot's calls faithfully. Each
run's result line must pass the slot checks and name every metric of
BENCHMARK.json with its unit. Exits 0 when everything holds.
"""

import argparse
import json
import math
import os
import subprocess
import sys

import run

WORKLOAD_THREADS = {"mixed_100k": 1, "churn_1m": 4, "sieve_100k": 1}


def serve(binary, workload, slots, trace, threads=None):
    cmd = [binary, "--workload", workload, "--seed", "7", "--slots",
           str(slots), "--trace", str(trace)]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise AssertionError("%s exited with %d" % (cmd, proc.returncode))
    lines = proc.stdout.splitlines()
    digest = next(l.split()[1] for l in lines if l.startswith("digest "))
    return digest, json.loads(lines[-1])


def check_result(result, expected, label):
    """Returns a list of problems with one result line."""
    problems = []
    if set(result) != run.RESULT_KEYS:
        problems.append("%s: result keys %s" % (label, sorted(result)))
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("%s: slot checks failed: %s of %s" %
                        (label, result.get("failed"), result.get("attempted")))
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append("%s: metrics %s, expected %s" %
                        (label, sorted(metrics), sorted(expected)))
    for name, unit in expected.items():
        m = metrics.get(name, {})
        if m.get("unit") != unit:
            problems.append("%s: %s has unit %r, expected %r" %
                            (label, name, m.get("unit"), unit))
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append("%s: %s has value %r" % (label, name, v))
    return problems


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--slots", type=int, default=12)
    args = p.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if [w["name"] for w in spec["workloads"]] != list(WORKLOAD_THREADS):
        sys.exit("selftest: BENCHMARK.json workloads differ from %s" %
                 list(WORKLOAD_THREADS))
    binary = run.build()
    problems = []
    for workload, threads in WORKLOAD_THREADS.items():
        d_native, r_native = serve(binary, workload, args.slots, 0)
        d_serial, r_serial = serve(binary, workload, args.slots, 0, threads=1)
        d_traced, r_traced = serve(binary, workload, args.slots, 1)
        same = d_native == d_serial == d_traced
        print("%-11s threads=%d %s  threads=1 %s  traced %s  %s" %
              (workload, threads, d_native, d_serial, d_traced,
               "identical" if same else "DIFFER"))
        if not same:
            problems.append("%s: digests differ" % workload)
        problems += check_result(r_native, end_to_end, workload + " trace 0")
        problems += check_result(r_serial, end_to_end,
                                 workload + " trace 0 threads=1")
        problems += check_result(r_traced, per_layer, workload + " trace 1")
    for problem in problems:
        print("FAIL " + problem)
    print("selftest: %s" % ("FAILED" if problems else "passed"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
