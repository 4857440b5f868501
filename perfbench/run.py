#!/usr/bin/env python3
"""Build and run the CROPHE benchmark for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dse-cold --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench on
first use, runs the C++ harness for the workload, checks its outputs and
prints the metrics. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. --record FILE also
appends the run, with its host/thread/backend metadata, to a JSON-lines
file that compare.py reads.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402

WORKLOADS = ("dse-cold", "dse-warm", "ckks-infer")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
STATE_DIR = os.path.join(".bench_build", "state")
# A run must end within 180 s; the one that builds within 900 s.
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 890
BUILD_JOBS = 4


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the harness; returns its path or None."""
    src = os.path.dirname(os.path.abspath(__file__))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", src, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(BUILD_JOBS),
                  "--target", "crophe_perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("error: build step failed:", " ".join(cmd))
            return None
    return os.path.join(BUILD_DIR, "crophe_perfbench")


def harness_env():
    """The caller's environment without CROPHE_* overrides (thread count,
    plan-cache and autotune directories, forced tiles)."""
    return {k: v for k, v in os.environ.items() if not k.startswith("CROPHE_")}


def run_harness(binary, args, limit_s):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state", STATE_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=harness_env(), timeout=limit_s, text=True)
    except subprocess.TimeoutExpired:
        log(f"error: harness exceeded {limit_s:.0f} s")
        return None
    if proc.returncode != 0:
        log(f"error: harness exited with {proc.returncode}")
        return None
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def fmt(value):
    return f"{value:.6g}"


def report(args, raw, values, specs):
    meta = raw["meta"]
    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}: closed loop, 1 caller, "
          f"{meta['threads']} thread(s)")
    for key in sorted(meta):
        print(f"  meta.{key} = {meta[key]}")
    n = len(raw["pass_s"])
    pct, _, _ = metrics.tail(raw["pass_s"])
    what = "inference" if raw["unit"] == "inference" else "sweep"
    print(f"  {n} timed {what}(s); latency_ms_tail = p{pct:.1f} of {n} "
          f"samples" + (" (the maximum: fewer than "
                        f"{2 * metrics.TAIL_BEYOND} samples)"
                        if pct == 100.0 else ""))
    print(f"  host probe = {fmt(metrics.probe_ms(raw))} ms "
          "(median of one before and one after the timed passes; "
          "higher = slower host)")
    units = {name: unit for name, unit, _ in metrics.HEADLINE}
    for name, value in metrics.headline_metrics(raw).items():
        print(f"  {name} = {fmt(value)} {units[name]}")
    print("metrics:")
    for name, unit, better in specs:
        print(f"  {name} = {fmt(values[name])} {unit} ({better} is better)")
    if args.trace:
        print("self time per span name, s per traced "
              f"{'pass' if raw['unit'] == 'pair' else raw['unit']}:")
        for span, secs in sorted(raw["self_s"].items()):
            print(f"  {span} = {fmt(secs / raw['traced_units'])}")
    for failure in raw["failures"]:
        print(f"  FAILED: {failure}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record", help="append the run to this JSON-lines file")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    start = time.monotonic()
    built = os.path.exists(os.path.join(BUILD_DIR, "crophe_perfbench"))
    binary = build()
    if binary is None:
        return 1
    limit = (RUN_LIMIT_S if built else BUILD_LIMIT_S) - \
        (time.monotonic() - start)
    raw = run_harness(binary, args, limit)
    if raw is None:
        return 1

    if args.trace:
        values = metrics.per_layer(raw)
        specs = metrics.PER_LAYER
    else:
        values = metrics.end_to_end(raw)
        specs = metrics.END_TO_END
    finite = all(math.isfinite(v) for v in values.values())
    positive = bool(args.trace) or all(v > 0 for v in values.values())
    correct = raw["failed"] == 0 and finite and positive
    report(args, raw, values, specs)

    if args.record:
        row = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "seconds": args.seconds,
               "meta": raw["meta"], "correct": correct,
               "attempted": raw["attempted"], "failed": raw["failed"],
               "metrics": values, "headline": metrics.headline_metrics(raw),
               "probe_ms": metrics.probe_ms(raw)}
        with open(args.record, "a") as f:
            f.write(json.dumps(row) + "\n")

    units = {name: unit for name, unit, _ in specs}
    print(json.dumps({
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": v, "unit": units[name]}
                    for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
