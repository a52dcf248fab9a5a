#!/usr/bin/env python3
"""Compare two end-to-end benchmark results against BENCHMARK.json's bounds.

    python3 bench/e2e/compare.py A.json B.json

A and B are files run.sh writes: build-bench/results.json (every workload)
or build-bench/<workload>.json (one). For each workload both files hold and
each end-to-end metric, prints A's and B's median with quartiles, B's
change against A (positive = better), and a verdict:

  better / worse  B's median beats / trails A's by more than the bound
  same            the medians differ by no more than the bound
  unresolved      a side's spread ((p75 - p25) / median) exceeds the bound
                  and the two sides' samples overlap

Exits 1 when any verdict is "worse".
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(path):
    data = json.loads(Path(path).read_text())
    runs = data["workloads"] if "workloads" in data else [data]
    return {r["workload"]: r for r in runs}


def samples(result, name):
    m = result["metrics"][name]
    return m["samples"] or [m["value"]]


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4, method="inclusive")
    return q[0], statistics.median(v), q[2]


def verdict(a, b, better, bound):
    a25, am, a75 = quartiles(a)
    b25, bm, b75 = quartiles(b)
    gain = (bm - am) / am if better == "higher" else (am - bm) / am
    spread = max((a75 - a25) / am, (b75 - b25) / bm)
    separated = min(b) > max(a) or max(b) < min(a)
    if spread > bound and not separated:
        return gain, "unresolved"
    if gain < -bound:
        return gain, "worse"
    if gain > bound:
        return gain, "better"
    return gain, "same"


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    a, b = load(argv[1]), load(argv[2])
    fmt = "{:<15} {:<15} {:>34} {:>34} {:>8}  {}"
    print(fmt.format("workload", "metric", "A median [p25, p75]",
                     "B median [p25, p75]", "change", "verdict"))
    worse = False
    for w in (w for w in a if w in b):
        for m in metrics:
            sa, sb = samples(a[w], m["name"]), samples(b[w], m["name"])
            gain, v = verdict(sa, sb, m["better"], m["bound"])
            worse |= v == "worse"
            qa, qb = quartiles(sa), quartiles(sb)
            print(fmt.format(
                w, m["name"],
                f"{qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]",
                f"{qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]",
                f"{gain:+.1%}", v))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
