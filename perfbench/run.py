#!/usr/bin/env python3
"""Benchmark entry point for the OPTIMUS simulator.

    python3 perfbench/run.py --workload dma_stream --seed 1 --seconds 35

Builds perfbench_sim from the checkout's sources into .bench_build/
(the first run in a checkout compiles the simulator libraries), runs
one workload for the given host-time budget, prints every metric with
its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (the traced run also writes its host-time
spans to .bench_build/spans/). The exit code is 0 only when every
correctness check passed. See perfbench/README.md for the workloads,
the metrics and the seeds.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench_sim")

WORKLOADS = ("dma_stream", "svc_mixed", "fleet_migrate")
# The seed to use by default, and one kept out of tuning so a claimed
# change can be re-checked on inputs it was not written against.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
# A run must end within 180 s; perfbench_sim starts no rep after
# --seconds have passed, so this timeout only trips on a hang.
RUN_MARGIN_S = 150


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def parse_seed(text):
    if text == "default":
        return DEFAULT_SEED
    if text == "heldout":
        return HELD_OUT_SEED
    try:
        seed = int(text)
    except ValueError:
        fail("--seed takes an integer, 'default' or 'heldout'")
    if seed < 0:
        fail("--seed must not be negative")
    return seed


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_sim",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, check=False)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", default=str(DEFAULT_SEED))
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    seed = parse_seed(args.seed)
    if not 0 < args.seconds <= 60:
        fail("--seconds must be in (0, 60]")

    spec = load_spec()
    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_MARGIN_S,
                              check=False)
    except subprocess.TimeoutExpired:
        fail("perfbench_sim did not finish in time")
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail("perfbench_sim exited with %d" % done.returncode)
    raw = json.loads(lines[-1])

    group = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[group]:
        if m["name"] not in raw[group]:
            fail("perfbench_sim did not report " + m["name"])
        metrics[m["name"]] = {"value": raw[group][m["name"]],
                              "unit": m["unit"]}

    print("workload %s  seed %d  sim-threads %d  reps %d (+%d traced)  "
          "fingerprint %s" % (raw["workload"], seed, raw["sim_threads"],
                              raw["reps"], raw["traced_reps"],
                              raw["fingerprint"]))
    for name, m in metrics.items():
        print("  %-26s %16.6g %s" % (name, m["value"], m["unit"]))
    fail_frac = raw["failed"] / max(1, raw["attempted"])
    print("  %-26s %16.6g %s  (%d of %d operations)" % (
        "fail_frac", fail_frac, "ratio", raw["failed"], raw["attempted"]))
    for v in raw["violations"]:
        print("  VIOLATION: " + v)

    print(json.dumps({"correct": raw["correct"],
                      "attempted": max(1, raw["attempted"]),
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if raw["correct"] and done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
