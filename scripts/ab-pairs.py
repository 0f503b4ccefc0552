#!/usr/bin/env python3
"""Runs perfbench in two checkouts, alternating, and compares the pairs.

    scripts/ab-pairs.py --parent DIR --change DIR --workload campaign \\
        [--seed 1] [--seconds 10] [--pairs 8]

Each pair runs `python3 perfbench/run.py` once in the parent checkout and
once in the change checkout, with the same workload, seed and --seconds,
untraced (--trace 0, the mode that prints the end-to-end metrics). The
order flips every pair (parent first in pairs 1, 3, ...; change first in
pairs 2, 4, ...), so a drift of the host over the session does not favour
either side. Each checkout builds its own .bench_build/ on its first
run; run.py keeps the build out of the measured run.

For every end-to-end metric that BENCHMARK.json lists (read from the change
checkout) the script prints each pair's two values and the change/parent
ratio, then both sides' medians and interquartile ranges, the ratio of the
medians, the change's wins (pairs in which it is strictly better, in the
metric's own direction) and whether the median moved by more than the
parent's interquartile range.

Exit status is 0 when every run succeeded, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def end_to_end_metrics(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def run_once(checkout, args):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("perfbench failed in %s (status %d)"
                           % (checkout, proc.returncode))
    metrics = json.loads(lines[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()}


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def better(a, b, direction):
    """True when a is strictly better than b."""
    return a < b if direction == "lower" else a > b


def ratio(change, parent):
    return change / parent if parent else float("nan")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="source checkout of the parent commit")
    parser.add_argument("--change", required=True,
                        help="source checkout of the change")
    parser.add_argument("--workload", required=True,
                        choices=("fleet", "campaign", "arena"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--pairs", type=int, default=8)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    metrics = end_to_end_metrics(sides["change"])
    runs = {"parent": [], "change": []}
    print("workload=%s seed=%d seconds=%g pairs=%d"
          % (args.workload, args.seed, args.seconds, args.pairs))
    try:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side], args))
            cells = []
            for name, _ in metrics:
                p = runs["parent"][-1][name]
                c = runs["change"][-1][name]
                cells.append("%s %.6g -> %.6g (x%.3f)" % (name, p, c,
                                                          ratio(c, p)))
            print("pair %d (%s first): %s" % (i + 1, order[0],
                                              "; ".join(cells)), flush=True)
    except RuntimeError as error:
        print("ab-pairs: %s" % error, file=sys.stderr)
        return 1

    print("%-18s %12s %12s %12s %12s %9s %6s %s" % (
        "metric", "parent_med", "parent_iqr", "change_med", "change_iqr",
        "ratio", "wins", "beyond_iqr"))
    for name, direction in metrics:
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        p1, pm, p3 = quartiles(p)
        c1, cm, c3 = quartiles(c)
        wins = sum(better(cv, pv, direction) for pv, cv in zip(p, c))
        beyond = better(cm, pm, direction) and abs(cm - pm) > p3 - p1
        print("%-18s %12.6g %12.6g %12.6g %12.6g %9.3f %3d/%-2d %s" % (
            name, pm, p3 - p1, cm, c3 - c1, ratio(cm, pm), wins, args.pairs,
            "yes" if beyond else "no"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
