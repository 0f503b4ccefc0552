#!/usr/bin/env python3
"""Runs perfbench in two checkouts, alternating, and compares the pairs.

    scripts/ab-pairs.py --parent DIR --change DIR --workload campaign \\
        [--seed 1] [--seconds 10] [--pairs 8]
    scripts/ab-pairs.py --aa --change DIR --workload arena [--workload ...]

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

With --aa the script pairs the --change checkout with itself ("a" and "b"
runs, alternating in the same way), for each --workload given, and prints
the noise floor of every end-to-end metric: each side's median and
interquartile range, the A/A ratio of the medians (b over a) and the
quartiles of the per-pair b/a ratios. A before/after claim smaller than
that spread cannot be told from noise on the host.

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


def run_once(checkout, workload, args):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(args.seed),
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


def run_pairs(sides, workload, args, metrics):
    """Alternating runs of the two sides; returns each side's metric dicts."""
    names = list(sides)
    runs = {name: [] for name in names}
    print("workload=%s seed=%d seconds=%g pairs=%d"
          % (workload, args.seed, args.seconds, args.pairs))
    for i in range(args.pairs):
        order = names if i % 2 == 0 else names[::-1]
        for side in order:
            runs[side].append(run_once(sides[side], workload, args))
        cells = []
        for name, _ in metrics:
            p = runs[names[0]][-1][name]
            c = runs[names[1]][-1][name]
            cells.append("%s %.6g -> %.6g (x%.3f)" % (name, p, c,
                                                      ratio(c, p)))
        print("pair %d (%s first): %s" % (i + 1, order[0], "; ".join(cells)),
              flush=True)
    return runs


def print_comparison(runs, metrics, pairs):
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
            name, pm, p3 - p1, cm, c3 - c1, ratio(cm, pm), wins, pairs,
            "yes" if beyond else "no"))


def print_noise_floor(workload, runs, metrics):
    print("%-18s %12s %12s %12s %12s %9s %17s" % (
        "metric", "a_med", "a_iqr", "b_med", "b_iqr", "aa_ratio",
        "pair_ratio_q1-q3"))
    for name, _ in metrics:
        a = [r[name] for r in runs["a"]]
        b = [r[name] for r in runs["b"]]
        a1, am, a3 = quartiles(a)
        b1, bm, b3 = quartiles(b)
        r1, _, r3 = quartiles([ratio(bv, av) for av, bv in zip(a, b)])
        print("%-18s %12.6g %12.6g %12.6g %12.6g %9.3f %8.3f-%-8.3f" % (
            name, am, a3 - a1, bm, b3 - b1, ratio(bm, am), r1, r3))
    print("noise floor for %s above" % workload)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent",
                        help="source checkout of the parent commit")
    parser.add_argument("--change", required=True,
                        help="source checkout of the change")
    parser.add_argument("--workload", required=True, action="append",
                        choices=("fleet", "campaign", "arena"),
                        help="repeatable; one table per workload")
    parser.add_argument("--aa", action="store_true",
                        help="pair --change with itself: the noise floor")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--pairs", type=int, default=8)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.aa == (args.parent is not None):
        parser.error("give --parent, or --aa without it")

    change = os.path.abspath(args.change)
    if args.aa:
        sides = {"a": change, "b": change}
    else:
        sides = {"parent": os.path.abspath(args.parent), "change": change}
    metrics = end_to_end_metrics(change)
    for workload in args.workload:
        try:
            runs = run_pairs(sides, workload, args, metrics)
        except RuntimeError as error:
            print("ab-pairs: %s" % error, file=sys.stderr)
            return 1
        if args.aa:
            print_noise_floor(workload, runs, metrics)
        else:
            print_comparison(runs, metrics, args.pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
