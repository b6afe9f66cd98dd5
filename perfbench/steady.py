#!/usr/bin/env python3
"""Steadiness check: runs a workload k times with different seeds and prints,
for every end-to-end metric, the median, the quartiles and the run-to-run
spread (interquartile range over median) next to the metric's bound in
BENCHMARK.json. With --sets 2 it runs a second set and compares the medians
in both directions.

    python3 perfbench/steady.py --workload paths_large --runs 10 --sets 2

Run from the root of a checkout. A metric passes when every set's spread is
within its bound and, with two sets, when the larger of the two medians
exceeds the smaller by no more than the bound, whichever set is slower. The
share of failed operations must be identical in every run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed (workload {workload}, seed {seed}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"wrong answer (workload {workload}, seed {seed}):\n{proc.stdout}")
    return result


def run_set(workload, seeds, seconds):
    results = []
    for seed in seeds:
        r = run_once(workload, seed, seconds)
        print(f"  seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)
        results.append(r)
    return results


def summarize(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = (statistics.median(values), q1, q3)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    sets = []
    for s in range(args.sets):
        seeds = range(args.first_seed + s * args.runs, args.first_seed + (s + 1) * args.runs)
        print(f"set {s + 1}: workload {args.workload}, seeds {seeds.start}..{seeds.stop - 1}")
        sets.append(run_set(args.workload, seeds, seconds))

    ok = True
    shares = {r["failed"] / r["attempted"] for rs in sets for r in rs}
    if len(shares) != 1:
        ok = False
        print(f"FAIL: failed-operation share differs between runs: {sorted(shares)}")
    summaries = [summarize(rs) for rs in sets]
    print(f"\n{'metric':26} {'bound':>6} " +
          " ".join(f"{'median' + str(i + 1):>12} {'q1':>10} {'q3':>10} {'spread':>7}"
                   for i in range(len(sets))) +
          (f" {'apart':>7}" if len(sets) == 2 else "") + "  verdict")
    for name, meta in bounds.items():
        bound = meta["bound"]
        cells, verdict = [], "ok"
        for summ in summaries:
            med, q1, q3 = summ[name]
            spread = (q3 - q1) / med if med else float("inf")
            cells.append(f"{med:12.5g} {q1:10.5g} {q3:10.5g} {spread:7.3f}")
            if spread > bound:
                verdict = "SPREAD"
        if len(summaries) == 2:
            m1, m2 = summaries[0][name][0], summaries[1][name][0]
            apart = max(m1, m2) / min(m1, m2) - 1 if min(m1, m2) > 0 else float("inf")
            cells.append(f"{apart:7.3f}")
            if apart > bound:
                verdict = "DRIFT"
        ok = ok and verdict == "ok"
        print(f"{name:26} {bound:6.2f} " + " ".join(cells) + f"  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
