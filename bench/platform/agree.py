#!/usr/bin/env python3
"""Compares two sets of platform-benchmark runs, metric by metric.

  python3 bench/platform/agree.py A.json B.json

A and B are files written by `run.py --runs N --out FILE`. For every
(workload, end-to-end metric) pairing it prints each set's median and
quartiles, the spread (interquartile distance over the median), how much
B's median is worse than A's, and a verdict against the metric's bound in
BENCHMARK.json:

  PASS        B is no worse than A by more than the bound, and both sets
              repeat within the bound.
  BETTER      every run of B reads better than every run of A.
  UNRESOLVED  a set's spread is wider than the bound (and B does not win
              every pair), so "no change" cannot be claimed.
  REGRESSED   B's median is worse than A's by more than the bound.

--spread A.json prints only each metric's spread within one set (the
repeatability check), against a third of its bound. Exits 1 when any
pairing is REGRESSED or UNRESOLVED (or, with --spread, above its limit).
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_runs(path):
    with open(path) as f:
        doc = json.load(f)
    values = {}  # (workload, metric) -> [values]
    for run in doc["runs"]:
        for name, m in run["result"]["metrics"].items():
            values.setdefault((run["workload"], name), []).append(m["value"])
    return values


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def spread(v):
    q1, med, q3 = quartiles(v)
    return (q3 - q1) / med if med else float("inf")


def worse_by(a_med, b_med, better):
    """How much worse B is than A, as a share of A (negative = better)."""
    if a_med == 0:
        return 0.0
    d = (b_med - a_med) / a_med
    return d if better == "lower" else -d


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("a")
    ap.add_argument("b", nargs="?")
    ap.add_argument("--spread", action="store_true",
                    help="repeatability of one set only")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    a = load_runs(args.a)
    workloads = sorted({w for (w, _) in a})
    bad = 0
    if args.spread or args.b is None:
        print("%-15s %-20s %5s %12s %12s %12s %8s %8s" %
              ("workload", "metric", "n", "q1", "median", "q3", "spread",
               "limit"))
        for w in workloads:
            for m in metrics:
                v = a.get((w, m["name"]))
                if not v:
                    print("%-15s %-20s MISSING" % (w, m["name"]))
                    bad += 1
                    continue
                q1, med, q3 = quartiles(v)
                s = spread(v)
                limit = m["bound"] / 3
                flag = ""
                if s > limit:
                    flag = "  OVER"
                    bad += 1
                print("%-15s %-20s %5d %12.4g %12.4g %12.4g %7.1f%% %7.1f%%%s" %
                      (w, m["name"], len(v), q1, med, q3, 100 * s,
                       100 * limit, flag))
        sys.exit(1 if bad else 0)

    b = load_runs(args.b)
    print("%-15s %-20s %12s %12s %8s %8s %8s %8s  %s" %
          ("workload", "metric", "median A", "median B", "spreadA",
           "spreadB", "worse", "bound", "verdict"))
    for w in workloads:
        for m in metrics:
            va, vb = a.get((w, m["name"])), b.get((w, m["name"]))
            if not va or not vb:
                print("%-15s %-20s MISSING" % (w, m["name"]))
                bad += 1
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            sa, sb = spread(va), spread(vb)
            worse = worse_by(ma, mb, m["better"])
            bound = m["bound"]
            if m["better"] == "lower":
                b_wins_all = max(vb) < min(va)
            else:
                b_wins_all = min(vb) > max(va)
            if b_wins_all:
                verdict = "BETTER"
            elif worse > bound:
                verdict = "REGRESSED"
            elif max(sa, sb) > bound:
                verdict = "UNRESOLVED"
            else:
                verdict = "PASS"
            if verdict in ("REGRESSED", "UNRESOLVED"):
                bad += 1
            print("%-15s %-20s %12.4g %12.4g %7.1f%% %7.1f%% %7.1f%% %7.1f%%  %s"
                  % (w, m["name"], ma, mb, 100 * sa, 100 * sb, 100 * worse,
                     100 * bound, verdict))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
