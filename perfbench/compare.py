#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds rows appended by `run.py --record FILE`. For every
workload x end-to-end metric the tool prints both medians and quartiles
and a verdict, using the bounds and directions of BENCHMARK.json:

  unresolved  the run-to-run spread (quartile distance over median) of
              either side is wider than the bound, and not every change
              run reads better than every base run;
  worse       the change's median is worse than the base's by more than
              the bound;
  improved    at least 10 pairs (matched by seed, else by order), the
              change wins at least nine tenths of them (ties count for
              neither), and the medians differ by more than the base's
              quartile distance;
  unchanged   otherwise.

Headline outputs (simulated results, precision) are listed beside them;
a simulated result that moved at all is marked, since a host-time change
must leave it exactly as it was.
"""

import argparse
import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9
SIMULATED = ("sim_ms", "crophe_vs_mad", "model_err_pct", "pod_scaling")


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def fmt_quartiles(q):
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def verdict(base, change, better, bound):
    """Verdict for one metric; `base` and `change` are run values paired
    by index."""
    sign = 1.0 if better == "higher" else -1.0
    mb = statistics.median(base)
    mc = statistics.median(change)
    gain = sign * (mc - mb) / abs(mb)
    noisy = max(spread(base), spread(change)) > bound
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if noisy and not all_better:
        return "unresolved"
    if -gain > bound:
        return "worse"
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    q1, _, q3 = quartiles(base)
    if (gain > 0 and len(pairs) >= MIN_PAIRS and
            wins >= WIN_SHARE * len(pairs) and abs(mc - mb) > q3 - q1):
        return "improved"
    return "unresolved" if noisy else "unchanged"


def paired(base_rows, change_rows):
    """Rows of both sides in matching order. Runs are matched by seed, and
    runs that share a seed in file order, when that pairs as many runs as
    the shorter side has; otherwise all runs are paired in file order."""
    n = min(len(base_rows), len(change_rows))
    bs, cs = {}, {}
    for r in base_rows:
        bs.setdefault(r["seed"], []).append(r)
    for r in change_rows:
        cs.setdefault(r["seed"], []).append(r)
    b_out, c_out = [], []
    for seed in sorted(set(bs) & set(cs)):
        for b, c in zip(bs[seed], cs[seed]):
            b_out.append(b)
            c_out.append(c)
    if len(b_out) == n:
        return b_out, c_out
    return base_rows[:n], change_rows[:n]


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default="BENCHMARK.json",
                    help="bounds and directions (default: ./BENCHMARK.json)")
    args = ap.parse_args()
    if not os.path.exists(args.benchmark):
        ap.error(f"{args.benchmark} not found; run from the repository root")
    with open(args.benchmark) as f:
        spec = json.load(f)
    base = [r for r in load(args.base) if not r["trace"]]
    change = [r for r in load(args.change) if not r["trace"]]

    workloads = sorted({r["workload"] for r in base} &
                       {r["workload"] for r in change})
    if not workloads:
        print("no workload has untraced runs on both sides", file=sys.stderr)
        return 1
    print(f"{'workload':11} {'metric':16} {'base median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'delta':>8}  verdict")
    for w in workloads:
        b_rows, c_rows = paired([r for r in base if r["workload"] == w],
                                [r for r in change if r["workload"] == w])
        for m in spec["end_to_end"]:
            bv = [r["metrics"][m["name"]] for r in b_rows]
            cv = [r["metrics"][m["name"]] for r in c_rows]
            v = verdict(bv, cv, m["better"], m["bound"])
            bq, cq = quartiles(bv), quartiles(cv)
            delta = 100.0 * (cq[1] - bq[1]) / bq[1]
            print(f"{w:11} {m['name']:16} {fmt_quartiles(bq):>30} "
                  f"{fmt_quartiles(cq):>30} {delta:+7.2f}%  {v}  "
                  f"(n={len(bv)} pairs, bound {100 * m['bound']:.0f}%)")
        for name in sorted(b_rows[0]["headline"]):
            bv = [r["headline"][name] for r in b_rows]
            cv = [r["headline"][name] for r in c_rows]
            mark = ""
            if name in SIMULATED and set(bv) != set(cv):
                mark = "  <- simulated result changed"
            print(f"{w:11} {name:16} {statistics.median(bv):12.6g} -> "
                  f"{statistics.median(cv):.6g}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
