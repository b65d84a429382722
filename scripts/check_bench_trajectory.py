#!/usr/bin/env python3
"""Gate benchmark trajectories against committed baselines.

Two metrics over JSON-lines bench output:

--metric throughput (default; `bench_shard --json`): compares the
*normalized* 4-way sharded throughput

    normalized = T(shards=4, threads=4) / T(shards=1, threads=1)

where T is rows per second of the "shard_query" series within one run.
Normalizing by the same run's serial single-shard point cancels the
absolute speed of the machine, so a baseline committed from one host
remains meaningful on CI runners.

--metric speedup (`bench_ivm --json`): compares the recorded
`speedup_incremental_vs_recompute` field of the summary record selected
by --series/--shards/--threads. The speedup is already a within-run
ratio, so no further normalization is applied. When either side's record
was captured with hardware_threads=1 the gate is SKIPPED (exit 0, loud
warning): speedups measured on a single core are scheduling noise, not
signal.

--metric ns-per-node (`bench_hotpath --json`): compares the compile +
probability cost per d-tree node of the selected record. Lower is
better, so the check fails when the current value rises more than
--threshold above the baseline (the inverse of the other metrics).

--metric resync-bytes (`bench_serve --json`): compares the shipped
resync payload bytes of the record selected by --series (default
resync_full; resync_tail gates the WAL-shipping tail path, whose
expected value is zero -- any growth there means surviving workers
stopped passing the chain proof). Bytes are deterministic functions of
the workload, not the machine, so no normalization or hardware skip
applies. Lower is better, as for ns-per-node.

--metric overhead-pct (`bench_serve --json`): gates the metrics_overhead
record's overhead_pct field -- the qps lost to instrumentation relative
to the same server with the metrics kill switch thrown -- against an
ABSOLUTE ceiling of --threshold (as a fraction; default 0.05 = 5%). No
baseline file is needed or read: the bound is the observability layer's
contract, not a trajectory. The record is captured at shards=2
threads=0, so pass --shards 2 --threads 0.

Unless stated otherwise the check fails when the current value drops
more than --threshold below the baseline's.

Exit codes: 0 ok, 1 regression, 2 missing/invalid data.

Usage:
    check_bench_trajectory.py CURRENT.json --baseline BASELINE.json \
        [--metric throughput|speedup] [--series ivm_select] \
        [--threshold 0.20] [--shards 4] [--threads 4]

Refreshing a baseline: download the matching BENCH_*.json from a
bench-trajectory run on the target runner class and commit it at the
repository root (see docs/CI.md).
"""

import argparse
import json
import sys

# The record field the speedup metric reads.
SPEEDUP_FIELD = "speedup_incremental_vs_recompute"


def load_records(path):
    records = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            records.append(json.loads(line))
    return records


def find_record(records, bench, shards, threads):
    for r in records:
        p = r.get("params", {})
        if (r.get("bench") == bench and p.get("shards") == shards
                and p.get("threads") == threads):
            if p.get("bit_identical") not in (None, "true"):
                print(f"FAIL: {bench} shards={shards} threads={threads} "
                      "was not bit-identical to the reference")
                sys.exit(1)
            return p
    print(f"ERROR: no '{bench}' record with shards={shards} "
          f"threads={threads}")
    sys.exit(2)


def throughput(records, bench, shards, threads):
    return float(find_record(records, bench, shards, threads)
                 ["rows_per_second"])


def field_from(record, bench, field):
    if field not in record:
        print(f"ERROR: record '{bench}' has no field '{field}'")
        sys.exit(2)
    return float(record[field])


def field_value(records, bench, shards, threads, field):
    return field_from(find_record(records, bench, shards, threads), bench,
                      field)


def normalized(records, shards, threads):
    fast = throughput(records, "shard_query", shards, threads)
    base = throughput(records, "shard_query", 1, 1)
    if base <= 0:
        print("ERROR: non-positive serial throughput")
        sys.exit(2)
    return fast / base


def warn_if_weak_baseline(records):
    if any(r.get("params", {}).get("hardware_threads") == 1
           for r in records):
        print("WARNING: baseline was captured on a 1-CPU host, so the "
              "regression floor is far below healthy multi-core "
              "throughput; refresh it from a bench-trajectory artifact "
              "to make the gate meaningful (docs/CI.md)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current")
    parser.add_argument("--baseline",
                        help="committed baseline JSON (required for every "
                             "metric except overhead-pct)")
    parser.add_argument("--metric",
                        choices=["throughput", "speedup", "ns-per-node",
                                 "resync-bytes", "overhead-pct"],
                        default="throughput")
    parser.add_argument("--series", default="shard_query",
                        help="bench name of the record to gate on "
                             "(speedup / ns-per-node metrics)")
    parser.add_argument("--threshold", type=float, default=None,
                        help="allowed fractional drop (default 0.20 = 20%%); "
                             "for overhead-pct, the absolute overhead "
                             "ceiling as a fraction (default 0.05 = 5%%)")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--threads", type=int, default=4)
    args = parser.parse_args()

    if args.threshold is None:
        args.threshold = 0.05 if args.metric == "overhead-pct" else 0.20
    if args.metric != "overhead-pct" and args.baseline is None:
        parser.error(f"--baseline is required for --metric {args.metric}")

    if args.metric == "overhead-pct":
        series = (args.series if args.series != "shard_query"
                  else "metrics_overhead")
        current = field_value(load_records(args.current), series,
                              args.shards, args.threads, "overhead_pct")
        ceiling = args.threshold * 100.0
        print(f"{series} instrumentation overhead: current {current:.3f}%, "
              f"ceiling {ceiling:.3f}%")
        if current > ceiling:
            print(f"FAIL: metrics overhead exceeds the "
                  f"{args.threshold:.0%} contract")
            sys.exit(1)
        print("OK")
        return

    lower_is_better = False
    if args.metric == "throughput":
        current = normalized(load_records(args.current), args.shards,
                             args.threads)
        baseline_records = load_records(args.baseline)
        # Only throughput baselines degrade on a 1-CPU host; speedups are
        # within-run ratios and stay meaningful there.
        warn_if_weak_baseline(baseline_records)
        baseline = normalized(baseline_records, args.shards, args.threads)
        label = f"normalized {args.shards}-way throughput"
    elif args.metric == "ns-per-node":
        current = field_value(load_records(args.current), args.series,
                              args.shards, args.threads, "ns_per_node")
        baseline_records = load_records(args.baseline)
        warn_if_weak_baseline(baseline_records)
        baseline = field_value(baseline_records, args.series, args.shards,
                               args.threads, "ns_per_node")
        label = f"{args.series} ns per d-tree node"
        lower_is_better = True
    elif args.metric == "resync-bytes":
        series = (args.series if args.series != "shard_query"
                  else "resync_full")
        current = field_value(load_records(args.current), series,
                              args.shards, args.threads, "resync_bytes")
        # Byte counts are workload-determined, not machine-determined: no
        # 1-CPU baseline warning or skip applies.
        baseline = field_value(load_records(args.baseline), series,
                               args.shards, args.threads, "resync_bytes")
        label = f"{series} shipped resync bytes"
        lower_is_better = True
    else:
        current_record = find_record(load_records(args.current), args.series,
                                     args.shards, args.threads)
        baseline_record = find_record(load_records(args.baseline),
                                      args.series, args.shards, args.threads)
        # Speedups measured on a 1-CPU host are noise, not signal: every
        # thread shares one core, so a "speedup" is mostly scheduling
        # overhead. Gating on such a number fails healthy code and passes
        # broken code, so the only safe move is to skip loudly.
        single = [name for name, record in (("current", current_record),
                                            ("baseline", baseline_record))
                  if record.get("hardware_threads") == 1]
        if single:
            print(f"SKIPPED: speedup gate for {args.series} {SPEEDUP_FIELD}: "
                  f"the {' and '.join(single)} run(s) were captured with "
                  "hardware_threads=1, where parallel speedups are "
                  "meaningless. Refresh from a multi-core bench-trajectory "
                  "artifact to arm this gate (docs/CI.md).")
            sys.exit(0)
        current = field_from(current_record, args.series, SPEEDUP_FIELD)
        baseline = field_from(baseline_record, args.series, SPEEDUP_FIELD)
        label = f"{args.series} {SPEEDUP_FIELD}"

    if lower_is_better:
        ceiling = (1.0 + args.threshold) * baseline
        print(f"{label}: current {current:.3f}, "
              f"baseline {baseline:.3f}, ceiling {ceiling:.3f}")
        if current > ceiling:
            print(f"FAIL: {label} regressed more "
                  f"than {args.threshold:.0%} above the committed baseline")
            sys.exit(1)
    else:
        floor = (1.0 - args.threshold) * baseline
        print(f"{label}: current {current:.3f}, "
              f"baseline {baseline:.3f}, floor {floor:.3f}")
        if current < floor:
            print(f"FAIL: {label} regressed more "
                  f"than {args.threshold:.0%} below the committed baseline")
            sys.exit(1)
    print("OK")


if __name__ == "__main__":
    main()
