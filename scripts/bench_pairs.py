#!/usr/bin/env python3
"""Alternated paired runs of the repository benchmark on two checkouts.

Usage:

    scripts/bench_pairs.py <parent-checkout> <change-checkout> \\
        --workload agg_read --pairs 10 --seconds 45 --seed0 1000

Pair i runs `python3 perfbench/run.py --workload W --seed <seed0 + i>
--seconds S --trace 0` once from the root of each checkout: the parent
first in even pairs, the change first in odd ones, so a slow stretch of the
host falls on both sides alike. Each checkout builds into its own
`.bench_build/` (CARGO_TARGET_DIR is dropped from the runs' environment,
since one build directory cannot serve two source trees).

Prints every run's end-to-end metrics (the `end_to_end` list of the change
checkout's BENCHMARK.json) as it finishes; then, per metric, each side's
median and quartiles, the number of pairs the change wins, and whether the
medians lie further apart than the parent's interquartile range. Exits 1,
after the summary, when any run failed: a non-zero exit, no JSON result
line, or `"correct": false`. Pairs with a failed run count for no metric.
"""

import argparse
import json
import os
import subprocess
import sys

SIDES = ("parent", "change")


def side_order(pair_index):
    """The order in which pair `pair_index` runs the two sides."""
    return SIDES if pair_index % 2 == 0 else SIDES[::-1]


def quantile(values, q):
    """The q-quantile of `values`, interpolating linearly between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values):
    """(first quartile, median, third quartile) of `values`."""
    return tuple(quantile(values, q) for q in (0.25, 0.5, 0.75))


def change_wins(parent, change, better):
    """True when the change's value beats the parent's (ties do not)."""
    return change > parent if better == "higher" else change < parent


def summarize(pairs, metrics):
    """Per-metric summary of complete pairs.

    `pairs` is a list of {"parent": result, "change": result} dicts, where a
    result is perfbench's JSON object or None for a failed run; `metrics`
    is BENCHMARK.json's `end_to_end` list. Returns one dict per metric with
    the quartiles of each side, the change's win count, the number of pairs
    counted, and whether the medians differ by more than the parent's
    interquartile range.
    """
    complete = [p for p in pairs
                if p["parent"] is not None and p["change"] is not None]
    summary = []
    for metric in metrics:
        name = metric["name"]
        values = {side: [p[side]["metrics"][name]["value"] for p in complete]
                  for side in SIDES}
        entry = {"name": name, "better": metric["better"],
                 "pairs": len(complete),
                 "wins": sum(change_wins(par, chg, metric["better"])
                             for par, chg in zip(values["parent"],
                                                 values["change"]))}
        if complete:
            for side in SIDES:
                entry[side] = quartiles(values[side])
            q1, median, q3 = entry["parent"]
            entry["separated"] = abs(entry["change"][1] - median) > q3 - q1
        summary.append(entry)
    return summary


def parse_result(returncode, stdout):
    """perfbench's JSON result, or None with the reason the run failed."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if returncode != 0:
        return None, "exit code %d" % returncode
    if not isinstance(result, dict) or "metrics" not in result:
        return None, "no JSON result line"
    if result.get("correct") is not True:
        return None, '"correct": %s' % json.dumps(result.get("correct"))
    return result, None


def run_once(checkout, workload, seed, seconds):
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True)
    result, reason = parse_result(proc.returncode, proc.stdout)
    if result is None:
        sys.stdout.write("".join(proc.stderr.splitlines(True)[-20:]))
    return result, reason


def format_run(result, metrics):
    return " ".join("%s=%.6g" % (m["name"],
                                 result["metrics"][m["name"]]["value"])
                    for m in metrics)


def print_summary(summary):
    print("%-14s %-34s %-34s %s" % ("metric", "parent median [q1, q3]",
                                    "change median [q1, q3]", "change wins"))
    for entry in summary:
        if entry["pairs"] == 0:
            print("%-14s no complete pair" % entry["name"])
            continue
        cells = ["%.6g [%.6g, %.6g]" % (e[1], e[0], e[2])
                 for e in (entry["parent"], entry["change"])]
        print("%-14s %-34s %-34s %d/%d (%s is better; medians differ by "
              "%s the parent IQR)" %
              (entry["name"], cells[0], cells[1], entry["wins"],
               entry["pairs"], entry["better"],
               "more than" if entry["separated"] else "no more than"))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Alternated perfbench runs of two checkouts.")
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seed0", type=int, required=True,
                        help="seed of pair 0; pair i uses seed0 + i")
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    checkouts = {"parent": args.parent, "change": args.change}
    pairs = []
    failed = 0
    for i in range(args.pairs):
        seed = args.seed0 + i
        pair = {}
        for side in side_order(i):
            result, reason = run_once(checkouts[side], args.workload, seed,
                                      args.seconds)
            pair[side] = result
            if result is None:
                failed += 1
                print("pair %d seed %d %-6s FAILED: %s" %
                      (i, seed, side, reason))
            else:
                print("pair %d seed %d %-6s %s" %
                      (i, seed, side, format_run(result, metrics)))
            sys.stdout.flush()
        pairs.append(pair)
    print_summary(summarize(pairs, metrics))
    if failed:
        print("%d run(s) failed" % failed)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
