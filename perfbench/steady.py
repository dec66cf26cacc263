#!/usr/bin/env python3
"""Steadiness check: runs the benchmark on several seeds and reports, per
end-to-end metric, the median, the quartiles and the spread.

    python3 perfbench/steady.py --workload narrow --seeds 1-10 [--out FILE]

Each run measures for BENCHMARK.json's `run_seconds`. The spread is the
distance between the first and third quartile, as
`statistics.quantiles(values, n=4)` gives them, as a share of the median;
it is set against the metric's bound in BENCHMARK.json. With `--out`, every
run's result line is appended to FILE as JSON, so two sets of runs can be
compared later with `--compare A B`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["run_seconds"], {m["name"]: m["bound"] for m in spec["end_to_end"]}


def summarize(results, bound):
    """Per metric: (median, q1, q3, spread) over the runs' values."""
    rows = {}
    for name in bound:
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        if len(values) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(values, n=4)
        rows[name] = (statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values))
    return rows


def report(rows, bound):
    print("%-22s %12s %12s %12s %8s %7s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, (med, q1, q3, spread) in rows.items():
        flag = "" if spread < bound[name] / 3 else ("  over bound/3" if spread < bound[name]
                                                    else "  OVER BOUND")
        print("%-22s %12.4f %12.4f %12.4f %7.1f%% %6.0f%%%s"
              % (name, med, q1, q3, spread * 100, bound[name] * 100, flag))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    run_seconds, bound = bounds()

    if args.compare:
        first, second = (summarize(load(p), bound) for p in args.compare)
        print("%-22s %12s %12s %8s %7s" % ("metric", "median A", "median B", "B vs A", "bound"))
        for name in first:
            a, b = first[name][0], second[name][0]
            print("%-22s %12.4f %12.4f %7.1f%% %6.0f%%" % (name, a, b, (b - a) / a * 100,
                                                          bound[name] * 100))
        return 0

    results = []
    for seed in seeds(args.seeds):
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(run_seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        lines = done.stdout.decode().strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        print("seed %d: exit %d, %.0f s, %s" % (
            seed, done.returncode, time.perf_counter() - started,
            "no result" if result is None else "correct=%s attempted=%d failed=%d" % (
                result["correct"], result["attempted"], result["failed"])), flush=True)
        if result is None:
            continue
        results.append(result)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps(result) + "\n")
    report(summarize(results, bound), bound)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
