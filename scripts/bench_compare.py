#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change, pair by pair.

Usage:
    bench_compare.py --parent DIR --change DIR [--benchmark BENCHMARK.json]

Each DIR holds one file per run, named ``<workload>-seed<N>.out``, that
holds the standard output of

    python3 perfbench/run.py --workload <workload> --seed <N> --trace 0 ...

The last non-empty line of such a file is the run's JSON result. Runs of
the two sides are paired by workload and seed. For each workload and
each end-to-end metric that BENCHMARK.json declares, the script prints
the medians, the parent's spread and a verdict:

- ``better``: the change is better in at least 9 of every 10 pairs (and
  there are at least 10 pairs), and the medians differ in the better
  direction by more than the parent's interquartile range (IQR);
- ``WORSE``: the change's median is worse than the parent's by more
  than the metric's bound (a share of the parent's median);
- ``unresolved``: neither of the above, and the parent's or the
  change's IQR exceeds the bound, so the runs spread too widely to
  tell;
- ``identical``: every pair agrees exactly (simulated metrics);
- ``few-pairs``: none of the above, with fewer than 10 pairs, too few
  to claim a gain;
- ``same``: none of the above.

Exit status: 1 if any metric is WORSE or a result line is missing or
marks its run incorrect, 0 otherwise. Standard library only; writes
nothing.
"""

import argparse
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_FILE = re.compile(r"^(?P<workload>.+)-seed(?P<seed>\d+)\.out$")
MIN_PAIRS_FOR_CLAIM = 10
WIN_SHARE = 0.9


def load_runs(directory):
    """{(workload, seed): result dict} for every run file in directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        m = RUN_FILE.match(name)
        if not m:
            continue
        with open(os.path.join(directory, name)) as f:
            lines = [ln for ln in f.read().splitlines() if ln.strip()]
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        runs[(m.group("workload"), int(m.group("seed")))] = result
    return runs


def metric_value(result, name):
    """A metric of a result line: {"value": v, "unit": u} or a bare v."""
    m = result["metrics"].get(name)
    return m["value"] if isinstance(m, dict) else m


def quartiles(values):
    """(q1, median, q3), linearly interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare_metric(parent, change, better, bound):
    """Verdict for one metric; parent and change are paired value lists."""
    sign = 1.0 if better == "higher" else -1.0
    n = len(parent)
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    scale = abs(pmed) if pmed else 1.0
    rel = sign * (cmed - pmed) / scale + 0.0  # no "-0.0%"
    row = {
        "pairs": n,
        "parent_median": pmed,
        "change_median": cmed,
        "gain": rel,
        "parent_iqr": (p3 - p1) / scale,
        "change_iqr": (c3 - c1) / (abs(cmed) if cmed else 1.0),
        "wins": wins,
    }
    if all(p == c for p, c in zip(parent, change)):
        row["verdict"] = "identical"
    elif rel < -bound:
        row["verdict"] = "WORSE"
    elif (n >= MIN_PAIRS_FOR_CLAIM and wins >= WIN_SHARE * n and
          sign * (cmed - pmed) > p3 - p1):
        row["verdict"] = "better"
    elif row["parent_iqr"] > bound or row["change_iqr"] > bound:
        row["verdict"] = "unresolved"
    elif n < MIN_PAIRS_FOR_CLAIM:
        row["verdict"] = "few-pairs"
    else:
        row["verdict"] = "same"
    return row


def compare(parent_runs, change_runs, metrics):
    """Rows of (workload, metric name, row dict) plus a list of errors."""
    rows, errors = [], []
    keys = sorted(set(parent_runs) & set(change_runs))
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        for key in sorted(runs):
            result = runs[key]
            if result is None:
                errors.append("%s %s seed %d: no JSON result line"
                              % (side, key[0], key[1]))
            elif not result.get("correct", False):
                errors.append("%s %s seed %d: run marked incorrect"
                              % (side, key[0], key[1]))
    for key in sorted(set(parent_runs) ^ set(change_runs)):
        errors.append("%s seed %d: no partner run" % key)
    workloads = sorted({w for w, _ in keys})
    for workload in workloads:
        seeds = [s for w, s in keys if w == workload and
                 parent_runs[(w, s)] and change_runs[(w, s)]]
        for metric in metrics:
            name = metric["name"]
            pairs = [(metric_value(parent_runs[(workload, s)], name),
                      metric_value(change_runs[(workload, s)], name))
                     for s in seeds]
            pairs = [(p, c) for p, c in pairs
                     if p is not None and c is not None]
            if not pairs:
                continue
            row = compare_metric([p for p, _ in pairs],
                                 [c for _, c in pairs],
                                 metric["better"], metric["bound"])
            rows.append((workload, name, row))
    return rows, errors


def format_rows(rows):
    header = ("%-22s %-26s %5s %12s %12s %8s %8s %8s %7s  %s"
              % ("workload", "metric", "pairs", "parent", "change",
                 "gain", "p.iqr", "c.iqr", "wins", "verdict"))
    out = [header, "-" * len(header)]
    for workload, name, r in rows:
        out.append("%-22s %-26s %5d %12.6g %12.6g %+7.1f%% %7.1f%% "
                   "%7.1f%% %3d/%-3d  %s"
                   % (workload, name, r["pairs"], r["parent_median"],
                      r["change_median"], 100 * r["gain"],
                      100 * r["parent_iqr"], 100 * r["change_iqr"],
                      r["wins"], r["pairs"], r["verdict"]))
    return "\n".join(out)


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--benchmark",
                   default=os.path.join(ROOT, "BENCHMARK.json"))
    args = p.parse_args(argv)
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    rows, errors = compare(load_runs(args.parent), load_runs(args.change),
                           metrics)
    print(format_rows(rows))
    for e in errors:
        print("error: " + e)
    worse = [r for r in rows if r[2]["verdict"] == "WORSE"]
    return 1 if worse or errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
