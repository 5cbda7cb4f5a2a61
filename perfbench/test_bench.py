#!/usr/bin/env python3
"""The benchmark's own tests. Run from anywhere:

    python3 perfbench/test_bench.py

They build the benchmark if needed and run every workload at tiny size.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import compare  # noqa: E402


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"] + list(extra)
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, timeout=900)
    return out


class TinyWorkloads(unittest.TestCase):
    def check(self, trace, kind):
        spec = bench()
        for w in [x["name"] for x in spec["workloads"]]:
            with self.subTest(workload=w, trace=trace):
                out = run(w, trace)
                self.assertEqual(out.returncode, 0, out.stderr[-2000:])
                result = json.loads(out.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], out.stderr[-2000:])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                names = {m["name"]: m["unit"] for m in spec[kind]}
                self.assertEqual(set(result["metrics"]), set(names))
                for name, unit in names.items():
                    self.assertEqual(result["metrics"][name]["unit"], unit, name)
                    self.assertIsInstance(result["metrics"][name]["value"], (int, float))

    def test_end_to_end_metrics_present(self):
        self.check(0, "end_to_end")

    def test_per_layer_metrics_present(self):
        self.check(1, "per_layer")


class FailureAccounting(unittest.TestCase):
    def test_wrong_reply_value_counts_as_failed(self):
        out = run("dense_solve", 0, "--inject-wrong", "2")
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        detail = [l for l in out.stdout.splitlines() if l.startswith("detail ")][0]
        self.assertGreater(json.loads(detail[len("detail "):])["failed_frac"], 0.0)


class Generator(unittest.TestCase):
    def test_bucketed_rg_matches_library_generator(self):
        tool = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                            "perfbench", "perfbench_tool")
        if not os.path.exists(tool):
            run("dense_solve", 0)  # builds it
        out = subprocess.run([tool, "selftest"], stdout=subprocess.PIPE, text=True)
        self.assertEqual(out.returncode, 0)


class Compare(unittest.TestCase):
    def test_verdicts(self):
        before = {s: 1.0 + 0.01 * (s % 3) for s in range(10)}
        faster = {s: 0.5 + 0.01 * (s % 3) for s in range(10)}
        self.assertEqual(compare.verdict(before, faster, "lower", 0.1)["verdict"], "better")
        self.assertEqual(compare.verdict(faster, before, "lower", 0.1)["verdict"], "worse")
        self.assertEqual(compare.verdict(before, dict(before), "lower", 0.1)["verdict"], "same")
        noisy = {s: 1.0 + 0.5 * (s % 2) for s in range(10)}
        self.assertEqual(compare.verdict(noisy, noisy, "lower", 0.1)["verdict"], "unresolved")

    def test_tables_from_result_sets(self):
        tmp = tempfile.mkdtemp()
        try:
            # The change halves cycle latency and doubles peak memory.
            for side, scale in (("before", {}), ("after", {"cycle_p50_s": 0.5,
                                                           "peak_rss_mb": 2.0})):
                os.makedirs(os.path.join(tmp, side))
                for seed in range(1, 11):
                    metrics = {m["name"]: {"value": scale.get(m["name"], 1.0) * (1 + 0.001 * seed),
                                           "unit": m["unit"]}
                               for m in bench()["end_to_end"]}
                    line = json.dumps({"correct": True, "attempted": 1, "failed": 0,
                                       "metrics": metrics})
                    path = os.path.join(tmp, side, "dense_solve.0.%d.txt" % seed)
                    with open(path, "w") as f:
                        f.write("noise\n" + line + "\n")
            out = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "compare.py"),
                                  os.path.join(tmp, "before"), os.path.join(tmp, "after")],
                                 stdout=subprocess.PIPE, text=True, check=True).stdout
            rows = {line.split("|")[2].strip(): line for line in out.splitlines()
                    if line.startswith("| dense_solve |")}
            self.assertIn("better", rows["cycle_p50_s (s)"])
            self.assertIn("worse", rows["peak_rss_mb (MB)"])
            self.assertIn("same", rows["setup_s (s)"])
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()
