#!/usr/bin/env python3
"""Compares two sets of benchmark results of one workload.

    python3 perfbench/compare.py --base a1.json a2.json ... --new b1.json b2.json ...

Each file is a result written by perfbench/run.py (perfbench/out/result-*.json).
For every end-to-end metric it prints both sides' median, their spread
(interquartile range / median) and whether the new median is worse than the
base median by more than the metric's bound in BENCHMARK.json. It refuses (exit 2) to compare results
measured on different CPU counts or build types, or of different workloads,
because those numbers are not comparable. Exit 1 when a metric regressed
beyond its bound, 0 otherwise.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MUST_MATCH = ("nproc", "build_type", "workload", "avx2")


def load(paths):
    out = []
    for p in paths:
        with open(p) as f:
            out.append(json.load(f))
    return out


def spread(values):
    q1, med, q3 = summary(values)
    return (q3 - q1) / med if med else 0.0


def summary(values):
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    else:
        q1 = med = q3 = values[0]
    return q1, med, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    base, new = load(args.base), load(args.new)

    stamps = [r["stamp"] for r in base + new]
    for key in MUST_MATCH:
        seen = sorted({str(s.get(key)) for s in stamps})
        if len(seen) > 1:
            print("compare: refusing: results differ in %s (%s)" %
                  (key, ", ".join(seen)), file=sys.stderr)
            return 2
    if not all(r["correct"] for r in base + new):
        print("compare: refusing: a result failed its output checks",
              file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        specs = json.load(f)["end_to_end"]
    regressed = False
    print("%-24s %12s %12s %8s %6s %7s %7s  %s" %
          ("metric", "base_median", "new_median", "change", "bound",
           "base_iqr", "new_iqr", "verdict"))
    for spec in specs:
        name = spec["name"]
        b = [r["end_to_end"][name]["value"] for r in base]
        n = [r["end_to_end"][name]["value"] for r in new]
        _, bm, _ = summary(b)
        nq1, nm, nq3 = summary(n)
        change = (nm - bm) / bm if bm else 0.0
        worse = change if spec["better"] == "lower" else -change
        verdict = "ok"
        if worse > spec["bound"]:
            verdict = "REGRESSED"
            regressed = True
        print("%-24s %12.6g %12.6g %+7.1f%% %5.0f%% %6.1f%% %6.1f%%  %s "
              "(new q1..q3 %.6g..%.6g)" %
              (name, bm, nm, 100 * change, 100 * spec["bound"],
               100 * spread(b), 100 * spread(n), verdict, nq1, nq3))
    # Ungated numbers (tails, workload-specific metrics) for information.
    shared = set.intersection(*(set(r["workload_specific"]) for r in base + new))
    for name in sorted(shared):
        _, bm, _ = summary([r["workload_specific"][name]["value"] for r in base])
        _, nm, _ = summary([r["workload_specific"][name]["value"] for r in new])
        change = "%+7.1f%%" % (100 * (nm - bm) / bm) if bm else "    n/a"
        print("%-24s %12.6g %12.6g %s      (not gated)" % (name, bm, nm, change))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
