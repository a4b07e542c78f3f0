"""Tests of the benchmark itself (not of the library).

    python3 bench/selftest.py

Takes about a minute: it runs every workload traced, twice, for a few
seconds each. The file name keeps it out of the library's pytest run.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import run
from tracer import Tracer
from worker import import_library
from workloads import WORKLOADS

SECONDS = 3.0


class TracedRuns(unittest.TestCase):
    def test_counts_repeat_between_traced_runs(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                first, second = (run.run_workload(name, seed, SECONDS, 1)[0]
                                 for seed in (3, 4))
                self.assertTrue(first["correct"] and second["correct"])
                self.assertEqual(first["metrics"].keys(),
                                 second["metrics"].keys())
                exact = [k for k, m in first["metrics"].items()
                         if m["unit"] == "count"]
                self.assertTrue(exact)
                for key in exact:
                    self.assertEqual(first["metrics"][key],
                                     second["metrics"][key], key)

    def test_registered_metrics_match_the_runs(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        registered = {m["name"]: m["unit"] for m in spec["per_layer"]}
        line = run.run_workload("denoise-sinogram", 5, 1.0, 1)[0]
        self.assertEqual(registered,
                         {k: m["unit"] for k, m in line["metrics"].items()})


class TailLatency(unittest.TestCase):
    def test_median_over_blocks(self):
        # 250 ops make two blocks of 125; each block's 115th-fastest op
        # leaves ten beyond it
        self.assertEqual(run.tail_latency(list(range(250))), (176.5, 92.0, 2))

    def test_burst_moves_only_its_block(self):
        steady = [1.0] * 300
        burst = steady[:50] + [9.0] * 20 + steady[70:]
        self.assertEqual(run.tail_latency(burst)[0], 1.0)

    def test_few_ops(self):
        self.assertEqual(run.tail_latency(list(range(25))), (14, 60.0, 1))
        self.assertEqual(run.tail_latency([3.0, 1.0, 2.0]), (3.0, 100.0, 1))


class TracerHygiene(unittest.TestCase):
    def test_bindings_restored_by_identity(self):
        pr = import_library()
        modules = [m for n, m in sys.modules.items()
                   if n == "poissonridge" or n.startswith("poissonridge.")]
        before = [(m, dict(vars(m))) for m in modules]
        tracer = Tracer()
        tracer.install()
        self.assertTrue(getattr(pr.denoise, "bench_traced", False))
        self.assertTrue(getattr(pr.ridgelet.drt_rotation, "bench_traced", False))
        self.assertEqual(tracer.uninstall(), [])
        for module, namespace in before:
            for attr, value in namespace.items():
                self.assertIs(getattr(module, attr), value, attr)

    def test_self_times_nest(self):
        pr = import_library()
        workload = WORKLOADS["denoise-image"](pr)
        counts = workload.make_input(pr, 0, 0)
        untraced = workload.digest(workload.run(pr, counts))
        tracer = Tracer()
        tracer.install()
        try:
            tracer.active = True
            with tracer.span("op"):
                traced = workload.digest(workload.run(pr, counts))
        finally:
            tracer.active = False
            self.assertEqual(tracer.uninstall(), [])
        self.assertEqual(traced, untraced)
        self_s = tracer.self_times()
        self.assertEqual(tracer.check_nesting(self_s), [])
        names = {name for name, *_ in tracer.spans}
        self.assertLessEqual({"op", "ridgelet.denoise"}, names)


class Packaging(unittest.TestCase):
    def test_fails_without_the_library(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(run.BENCH_DIR, os.path.join(tmp, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "verify-dist",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
