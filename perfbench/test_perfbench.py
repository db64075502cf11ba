#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds perfbench_sim like run.py does, then checks that simulated
results are a pure function of the seed (across processes, and between
fleet_migrate's one-thread reps and its pooled rep), that run.py's
last line follows the result contract, and that run.py fails cleanly
without the simulator sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def is_host_timed(name):
    """Per-layer metrics measured in host time; all others are exact."""
    return ("host_" in name or
            name.startswith(("host.", "setup.", "trace.", "sim.pool_")))


def sim_run(workload, seed=3):
    out = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1"],
        stdout=subprocess.PIPE, text=True, check=False, timeout=170)
    return json.loads(out.stdout.strip().splitlines()[-1])


def exact_part(raw):
    sim = {k: v for k, v in raw["end_to_end"].items()
           if k.startswith("sim_")}
    layer = {k: v for k, v in raw["per_layer"].items()
             if not is_host_timed(k)}
    return raw["fingerprint"], sim, layer


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_fleet_pooled_rep_matches(self):
        # Every fleet_migrate run also runs one rep at 2 to 4
        # sim-threads, and is correct only if that rep's results match
        # the one-thread reps exactly.
        raw = sim_run("fleet_migrate")
        self.assertTrue(raw["correct"], raw["violations"])
        self.assertGreaterEqual(raw["pool_threads"], 2)
        self.assertGreater(raw["per_layer"]["sim.pool_host_s"], 0)
        self.assertGreater(raw["per_layer"]["fleet.migrations"], 0)

    def test_repeat_of_a_seed_is_identical(self):
        for workload in run.WORKLOADS:
            a = sim_run(workload)
            b = sim_run(workload)
            self.assertTrue(a["correct"], a["violations"])
            self.assertEqual(exact_part(a), exact_part(b))
            self.assertEqual(a["failed"], 0)

    def test_seeds_change_the_inputs(self):
        a = sim_run("svc_mixed", seed=1)
        b = sim_run("svc_mixed", seed=2)
        self.assertNotEqual(a["fingerprint"], b["fingerprint"])

    def test_result_line_contract(self):
        spec = run.load_spec()
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", "svc_mixed", "--seed", "default",
                 "--seconds", "1", "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=True, timeout=170)
            last = json.loads(out.stdout.strip().splitlines()[-1])
            self.assertEqual(set(last),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertIs(last["correct"], True)
            self.assertGreaterEqual(last["attempted"], 1)
            self.assertEqual(last["failed"], 0)
            want = {m["name"]: m["unit"] for m in spec[group]}
            self.assertEqual(
                {k: v["unit"] for k, v in last["metrics"].items()}, want)

    def test_fails_without_sources(self):
        tmp_root = os.path.join(run.BUILD, "tmp")
        os.makedirs(tmp_root, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "dma_stream", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=170, check=False)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn("{", out.stdout)


if __name__ == "__main__":
    unittest.main()
