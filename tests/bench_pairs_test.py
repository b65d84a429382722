#!/usr/bin/env python3
"""Unit tests for scripts/bench_pairs.py, run via ctest.

The summary arithmetic (quartiles, win counts, the median-versus-IQR test)
is checked on fixed numbers; the command line is checked end to end
against two fake checkouts whose perfbench/run.py prints a canned result.
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, "scripts", "bench_pairs.py")

spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "qps", "unit": "1/s", "better": "higher"},
           {"name": "read_p99_ms", "unit": "ms", "better": "lower"}]


def result(qps, p99, correct=True):
    return {"correct": correct, "attempted": 10, "failed": 0,
            "metrics": {"qps": {"value": qps, "unit": "1/s"},
                        "read_p99_ms": {"value": p99, "unit": "ms"}}}


class SummaryTest(unittest.TestCase):
    def test_quantiles_interpolate_between_ranks(self):
        self.assertEqual(bench_pairs.quantile([5], 0.25), 5)
        self.assertEqual(bench_pairs.quartiles([4, 1, 3, 2]),
                         (1.75, 2.5, 3.25))
        self.assertEqual(bench_pairs.quartiles([1, 2, 3, 4, 5]),
                         (2.0, 3.0, 4.0))
        self.assertRaises(ValueError, bench_pairs.quantile, [], 0.5)

    def test_sides_alternate_first(self):
        self.assertEqual(bench_pairs.side_order(0), ("parent", "change"))
        self.assertEqual(bench_pairs.side_order(1), ("change", "parent"))
        self.assertEqual(bench_pairs.side_order(2), ("parent", "change"))

    def test_wins_follow_the_metric_direction(self):
        pairs = [{"parent": result(100, 10), "change": result(200, 5)},
                 {"parent": result(110, 10), "change": result(105, 12)},
                 {"parent": result(120, 10), "change": result(120, 6)}]
        qps, p99 = bench_pairs.summarize(pairs, METRICS)
        self.assertEqual((qps["wins"], qps["pairs"]), (1, 3))  # A tie loses.
        self.assertEqual((p99["wins"], p99["pairs"]), (2, 3))
        self.assertEqual(qps["parent"], (105.0, 110.0, 115.0))
        self.assertEqual(qps["change"], (112.5, 120.0, 160.0))
        # |120 - 110| = 10 is not more than the parent's IQR of 10.
        self.assertFalse(qps["separated"])
        self.assertEqual(p99["parent"], (10.0, 10.0, 10.0))
        self.assertTrue(p99["separated"])

    def test_pairs_with_a_failed_run_are_not_counted(self):
        pairs = [{"parent": result(100, 10), "change": None},
                 {"parent": result(100, 10), "change": result(300, 3)}]
        qps, _ = bench_pairs.summarize(pairs, METRICS)
        self.assertEqual((qps["wins"], qps["pairs"]), (1, 1))
        self.assertEqual(qps["change"], (300.0, 300.0, 300.0))
        qps, _ = bench_pairs.summarize(pairs[:1], METRICS)
        self.assertEqual(qps["pairs"], 0)
        self.assertNotIn("parent", qps)

    def test_parse_result_rejects_failed_runs(self):
        good = json.dumps(result(100, 10))
        self.assertIsNotNone(
            bench_pairs.parse_result(0, "build noise\n" + good + "\n")[0])
        self.assertEqual(bench_pairs.parse_result(1, good)[1], "exit code 1")
        self.assertEqual(bench_pairs.parse_result(0, "no json")[1],
                         "no JSON result line")
        self.assertEqual(bench_pairs.parse_result(0, "")[1],
                         "no JSON result line")
        self.assertEqual(
            bench_pairs.parse_result(0, json.dumps(result(1, 1, False)))[1],
            '"correct": false')


# A fake perfbench/run.py: qps is the checkout's base value plus the seed,
# and a seed listed in FAIL_SEEDS reports "correct": false.
FAKE_RUN = textwrap.dedent("""\
    import json, os, sys
    args = sys.argv[1:]
    seed = int(args[args.index("--seed") + 1])
    base = float(open("base.txt").read())
    log = os.environ["BENCH_PAIRS_TEST_LOG"]
    with open(log, "a") as f:
        f.write("%s %d\\n" % (os.path.basename(os.getcwd()), seed))
    correct = str(seed) not in os.environ.get("FAIL_SEEDS", "").split()
    print("building...", file=sys.stderr)
    print(json.dumps({"correct": correct, "metrics": {
        "qps": {"value": base + seed, "unit": "1/s"},
        "read_p99_ms": {"value": 1000.0 / (base + seed), "unit": "ms"}}}))
    """)


class CommandLineTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.log = os.path.join(self._dir.name, "runs.log")
        self.checkouts = {}
        for side, base in (("parent", 100), ("change", 400)):
            root = os.path.join(self._dir.name, side)
            os.makedirs(os.path.join(root, "perfbench"))
            with open(os.path.join(root, "perfbench", "run.py"), "w") as f:
                f.write(FAKE_RUN)
            with open(os.path.join(root, "base.txt"), "w") as f:
                f.write(str(base))
            with open(os.path.join(root, "BENCHMARK.json"), "w") as f:
                json.dump({"end_to_end": METRICS}, f)
            self.checkouts[side] = root

    def tearDown(self):
        self._dir.cleanup()

    def run_script(self, fail_seeds=""):
        env = dict(os.environ, BENCH_PAIRS_TEST_LOG=self.log,
                   FAIL_SEEDS=fail_seeds)
        return subprocess.run(
            [sys.executable, SCRIPT, self.checkouts["parent"],
             self.checkouts["change"], "--workload", "agg_read",
             "--pairs", "3", "--seconds", "1", "--seed0", "7"],
            capture_output=True, text=True, env=env)

    def test_alternates_sides_with_a_fresh_seed_per_pair(self):
        proc = self.run_script()
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        with open(self.log) as f:
            runs = f.read().split("\n")[:-1]
        self.assertEqual(runs, ["parent 7", "change 7", "change 8",
                                "parent 8", "parent 9", "change 9"])
        self.assertIn("pair 1 seed 8 change qps=408", proc.stdout)
        self.assertIn("3/3 (higher is better; medians differ by more than "
                      "the parent IQR)", proc.stdout)
        self.assertIn("108 [107.5, 108.5]", proc.stdout)

    def test_exits_1_when_a_run_is_incorrect(self):
        proc = self.run_script(fail_seeds="8")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn('FAILED: "correct": false', proc.stdout)
        self.assertIn("2/2", proc.stdout)
        self.assertIn("2 run(s) failed", proc.stdout)


if __name__ == "__main__":
    unittest.main()
