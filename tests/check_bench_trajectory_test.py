#!/usr/bin/env python3
"""Unit tests for scripts/check_bench_trajectory.py, run via ctest.

Each case writes synthetic JSON-lines bench output to a temp dir and
checks the script's exit code and output, in particular the satellite
rule: a speedup gate whose current OR baseline record was captured with
hardware_threads=1 is skipped (exit 0) with a loud warning, because
parallel speedups measured on one core are noise.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, "scripts", "check_bench_trajectory.py")


def record(bench, shards, threads, hardware_threads=8, **params):
    merged = {"shards": shards, "threads": threads,
              "hardware_threads": hardware_threads,
              "bit_identical": "true"}
    merged.update(params)
    return {"bench": bench, "params": merged, "mean_seconds": 0.01}


def shard_run(serial_rps, parallel_rps, hardware_threads=8):
    return [record("shard_query", 1, 1, hardware_threads,
                   rows_per_second=serial_rps),
            record("shard_query", 4, 4, hardware_threads,
                   rows_per_second=parallel_rps)]


def select_run(query_rps, select_rps):
    """A bench_shard run's shard_query and shard_select 1x1 points."""
    return [record("shard_query", 1, 1, rows_per_second=query_rps),
            record("shard_select", 1, 1, rows_per_second=select_rps)]


def ivm_run(speedup, hardware_threads=8):
    return [record("ivm_select", 0, 1, hardware_threads,
                   speedup_incremental_vs_recompute=speedup)]


class CheckBenchTrajectoryTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self._dir.cleanup()

    def write(self, name, records):
        path = os.path.join(self._dir.name, name)
        with open(path, "w") as f:
            for r in records:
                f.write(json.dumps(r) + "\n")
        return path

    def run_script(self, current, baseline, *extra):
        return subprocess.run(
            [sys.executable, SCRIPT, current, "--baseline", baseline,
             *extra],
            capture_output=True, text=True)

    def run_speedup(self, current, baseline):
        return self.run_script(current, baseline, "--metric", "speedup",
                               "--series", "ivm_select",
                               "--shards", "0", "--threads", "1")

    def test_speedup_within_threshold_passes(self):
        current = self.write("current.json", ivm_run(45.0))
        baseline = self.write("baseline.json", ivm_run(50.0))
        result = self.run_speedup(current, baseline)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("OK", result.stdout)

    def test_speedup_regression_fails(self):
        current = self.write("current.json", ivm_run(20.0))
        baseline = self.write("baseline.json", ivm_run(50.0))
        result = self.run_speedup(current, baseline)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("FAIL", result.stdout)

    def test_speedup_skipped_when_current_is_single_core(self):
        # A speedup recorded on a 1-CPU host must not arm the gate, no
        # matter how bad it looks.
        current = self.write("current.json",
                             ivm_run(0.38, hardware_threads=1))
        baseline = self.write("baseline.json", ivm_run(50.0))
        result = self.run_speedup(current, baseline)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("SKIPPED", result.stdout)
        self.assertIn("hardware_threads=1", result.stdout)

    def test_speedup_skipped_when_baseline_is_single_core(self):
        current = self.write("current.json", ivm_run(50.0))
        baseline = self.write("baseline.json",
                              ivm_run(0.40, hardware_threads=1))
        result = self.run_speedup(current, baseline)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("SKIPPED", result.stdout)

    def test_throughput_gate_still_runs_on_single_core(self):
        # Normalized throughput is a within-run ratio of the same series;
        # the 1-CPU case only warns, it does not skip.
        current = self.write("current.json",
                             shard_run(100.0, 350.0, hardware_threads=1))
        baseline = self.write("baseline.json",
                              shard_run(100.0, 360.0, hardware_threads=1))
        result = self.run_script(current, baseline)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("WARNING", result.stdout)
        self.assertIn("OK", result.stdout)

    def test_throughput_regression_fails(self):
        current = self.write("current.json", shard_run(100.0, 150.0))
        baseline = self.write("baseline.json", shard_run(100.0, 360.0))
        result = self.run_script(current, baseline)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("FAIL", result.stdout)

    def run_select_gate(self, current, baseline):
        return self.run_script(current, baseline, "--series", "shard_select",
                               "--shards", "1", "--threads", "1",
                               "--threshold", "0.50")

    def test_select_series_gate_divides_by_the_query_point(self):
        # The throughput metric honours --series: shard_select 1x1 over the
        # same run's shard_query 1x1. A host twice as fast moves both.
        current = self.write("current.json", select_run(2e6, 8e6))
        baseline = self.write("baseline.json", select_run(1e6, 4e6))
        result = self.run_select_gate(current, baseline)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("shard_select", result.stdout)
        self.assertIn("current 4.000", result.stdout)
        self.assertIn("OK", result.stdout)

    def test_select_series_gate_fails_on_a_pool_sized_row_cost(self):
        # A per-row step II cost that grows with the pool made shard_select
        # at 1 shard x 1 thread about 10x slower than the re-recorded
        # baseline while shard_query barely moved.
        current = self.write("current.json", select_run(9e5, 2.8e5))
        baseline = self.write("baseline.json", select_run(9e5, 3.6e6))
        result = self.run_select_gate(current, baseline)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("FAIL", result.stdout)

    def test_select_series_gate_needs_its_record(self):
        current = self.write("current.json", shard_run(100.0, 350.0))
        baseline = self.write("baseline.json", select_run(1e6, 4e6))
        result = self.run_select_gate(current, baseline)
        self.assertEqual(result.returncode, 2, result.stdout)
        self.assertIn("no 'shard_select' record", result.stdout)

    def test_ns_per_node_fails_when_cost_rises(self):
        current = self.write(
            "current.json",
            [record("hotpath_skewed_batch", 0, 1, ns_per_node=1000.0)])
        baseline = self.write(
            "baseline.json",
            [record("hotpath_skewed_batch", 0, 1, ns_per_node=700.0)])
        result = self.run_script(current, baseline, "--metric",
                                 "ns-per-node", "--series",
                                 "hotpath_skewed_batch", "--shards", "0",
                                 "--threads", "1")
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("FAIL", result.stdout)

    def resync_run(self, tail_bytes, full_bytes, hardware_threads=8):
        return [record("resync_tail", 2, 0, hardware_threads,
                       resync_entries=0, resync_bytes=tail_bytes),
                record("resync_full", 2, 0, hardware_threads,
                       resync_entries=4, resync_bytes=full_bytes)]

    def run_resync(self, current, baseline, *extra):
        return self.run_script(current, baseline, "--metric",
                               "resync-bytes", "--shards", "2",
                               "--threads", "0", *extra)

    def test_resync_bytes_within_threshold_passes(self):
        current = self.write("current.json", self.resync_run(0, 30000))
        baseline = self.write("baseline.json", self.resync_run(0, 29000))
        result = self.run_resync(current, baseline)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("OK", result.stdout)
        self.assertIn("resync_full", result.stdout)

    def test_resync_bytes_fails_when_payload_grows(self):
        # Lower is better: a full resync that ships far more bytes than
        # the committed baseline is a regression.
        current = self.write("current.json", self.resync_run(0, 60000))
        baseline = self.write("baseline.json", self.resync_run(0, 29000))
        result = self.run_resync(current, baseline)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("FAIL", result.stdout)

    def test_resync_bytes_tail_series_gates_on_zero(self):
        # The tail path's expected payload is zero; any bytes at all mean
        # surviving workers stopped passing the chain proof.
        current = self.write("current.json", self.resync_run(5000, 30000))
        baseline = self.write("baseline.json", self.resync_run(0, 30000))
        result = self.run_resync(current, baseline, "--series",
                                 "resync_tail")
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("FAIL", result.stdout)

    def test_resync_bytes_runs_on_single_core(self):
        # Byte counts are workload-determined: no 1-CPU skip.
        current = self.write("current.json",
                             self.resync_run(0, 30000, hardware_threads=1))
        baseline = self.write("baseline.json",
                              self.resync_run(0, 29000, hardware_threads=1))
        result = self.run_resync(current, baseline)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("OK", result.stdout)
        self.assertNotIn("SKIPPED", result.stdout)

    def overhead_run(self, pct):
        return [record("metrics_overhead", 2, 0, qps_on=9000.0,
                       qps_off=9300.0, overhead_pct=pct)]

    def run_overhead(self, current, *extra):
        # overhead-pct is an absolute ceiling: no --baseline on purpose.
        return subprocess.run(
            [sys.executable, SCRIPT, current, "--metric", "overhead-pct",
             "--shards", "2", "--threads", "0", *extra],
            capture_output=True, text=True)

    def test_overhead_pct_under_ceiling_passes(self):
        current = self.write("current.json", self.overhead_run(3.2))
        result = self.run_overhead(current)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("OK", result.stdout)
        self.assertIn("metrics_overhead", result.stdout)

    def test_overhead_pct_over_ceiling_fails(self):
        # Default ceiling is 5%: instrumentation costing more than that
        # breaks the observability layer's contract.
        current = self.write("current.json", self.overhead_run(8.0))
        result = self.run_overhead(current)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("FAIL", result.stdout)

    def test_overhead_pct_negative_passes(self):
        # Run-to-run noise can make the instrumented server come out
        # faster; a negative overhead is trivially under the ceiling.
        current = self.write("current.json", self.overhead_run(-1.1))
        result = self.run_overhead(current)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("OK", result.stdout)

    def test_overhead_pct_custom_threshold(self):
        current = self.write("current.json", self.overhead_run(8.0))
        result = self.run_overhead(current, "--threshold", "0.10")
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("OK", result.stdout)

    def test_overhead_pct_missing_record_exits_2(self):
        current = self.write("current.json", ivm_run(50.0))
        result = self.run_overhead(current)
        self.assertEqual(result.returncode, 2, result.stdout)

    def test_baseline_still_required_for_other_metrics(self):
        current = self.write("current.json", shard_run(100.0, 350.0))
        result = subprocess.run(
            [sys.executable, SCRIPT, current, "--metric", "throughput"],
            capture_output=True, text=True)
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertIn("--baseline is required", result.stderr)

    def test_missing_record_exits_2(self):
        current = self.write("current.json", ivm_run(50.0))
        baseline = self.write("baseline.json", [])
        result = self.run_speedup(current, baseline)
        self.assertEqual(result.returncode, 2, result.stdout)

    def test_non_bit_identical_record_fails(self):
        broken = record("ivm_select", 0, 1, 8,
                        speedup_incremental_vs_recompute=50.0)
        broken["params"]["bit_identical"] = "false"
        current = self.write("current.json", [broken])
        baseline = self.write("baseline.json", ivm_run(50.0))
        result = self.run_speedup(current, baseline)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("bit-identical", result.stdout)


if __name__ == "__main__":
    unittest.main()
