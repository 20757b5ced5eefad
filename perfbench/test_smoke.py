#!/usr/bin/env python3
"""The benchmark's own tests: every workload at tiny size (--smoke).

    python3 perfbench/test_smoke.py

For each workload in BENCHMARK.json and serve_mixed, untraced and
traced: the run exits 0, its last stdout line is the JSON result with
exactly the metric names BENCHMARK.json lists (end-to-end untraced,
per-layer traced) and their units, correct is true, nothing failed
(fail_ratio 0), and the traced run wrote its span JSON and printed the
tracing overhead and self-time table.
It also checks that the benchmark fails, without a result line, in a
directory holding only BENCHMARK.json and perfbench/.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
# The gated workloads plus serve_mixed, which run.py keeps runnable
# although BENCHMARK.json does not gate it (see README.md).
WORKLOADS = [w["name"] for w in BENCH["workloads"]] + ["serve_mixed"]


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=600)


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        out = run(workload, trace)
        text = out.stdout.decode()
        self.assertEqual(out.returncode, 0, out.stderr.decode()[-2000:])
        result = json.loads(text.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertIn("fail_ratio                    0 ", text)
        want = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in want])
        for m in want:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        if trace:
            self.assertIn("== tracing overhead", text)
            self.assertIn("== per-layer self time", text)
            spans = os.path.join(ROOT, ".bench_out",
                                 "spans-%s-seed7.json" % workload)
            with open(spans) as f:
                events = json.load(f)["traceEvents"]
            self.assertTrue(events)
            self.assertTrue({"name", "ts", "dur", "args"} <= set(events[0]))

    def test_workloads(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    self.check(w, trace)

    def test_fails_without_sources(self):
        scratch = os.path.join(ROOT, ".bench_run")
        os.makedirs(scratch, exist_ok=True)
        d = tempfile.mkdtemp(dir=scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = run(BENCH["workloads"][0]["name"], 0, cwd=d)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn(b'"metrics"', out.stdout)
        finally:
            shutil.rmtree(d, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
