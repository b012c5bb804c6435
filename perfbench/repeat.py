#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload NAME [--workload NAME ...]
                                [--seeds 1-10] [--seconds 12] [--trace 0]

For every workload, runs perfbench/run.py once per seed (one after the
other) and prints, per metric, the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median, plus the
failed share of operations per run. Exits non-zero if any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="12")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    ok = True
    for wl in args.workload:
        values, shares, walls = {}, [], []
        for seed in seed_list(args.seeds):
            t0 = time.perf_counter()
            p = subprocess.run(
                [sys.executable, run, "--workload", wl, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True, text=True)
            walls.append(time.perf_counter() - t0)
            if p.returncode != 0:
                print("%s seed %d FAILED: %s" % (wl, seed,
                                                 p.stderr.strip()[-300:]))
                ok = False
                continue
            res = json.loads(p.stdout.strip().splitlines()[-1])
            shares.append(res["failed"] / res["attempted"])
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append((m["value"], m["unit"]))
        print("%s: %d runs of %.0f-%.0f s, failed share per run %s" % (
            wl, len(shares), min(walls), max(walls), sorted(set(shares))))
        for k, vs in values.items():
            xs = [v for v, _ in vs]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 \
                else (xs[0], 0, xs[0])
            spread = (q3 - q1) / med if med else float("nan")
            print("  %-34s median %14.6g  q1 %14.6g  q3 %14.6g  spread "
                  "%6.3f  %s" % (k, med, q1, q3, spread, vs[0][1]))
            print("    runs: " + " ".join("%.5g" % x for x in xs))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
