#!/usr/bin/env python3
"""Steadiness check for the ucbench benchmark.

Runs the benchmark command from BENCHMARK.json on chosen workloads, once per
seed, and prints for every end-to-end metric its median, its quartile spread
(Q3 - Q1 over the median, quartiles as statistics.quantiles(values, n=4)
gives them) and the metric's bound. A spread under a third of the bound is
steady; over the bound, the metric (or its workload) cannot be gated and must
be re-tuned or dropped. Every metric, setup_s too, is judged this way. The
share of failed operations must be the same in every run.

    python3 ucbench/steady.py                          # every workload, 10 seeds
    python3 ucbench/steady.py --workloads sweep-resume --runs 5
    python3 ucbench/steady.py --overhead               # traced vs untraced run,
                                                       # and the per-layer metrics
    python3 ucbench/steady.py --compare A.json B.json  # median drift of two sets

Run it from anywhere; it runs the benchmark at the repository root. Raw
results go to .ucbench/steady-<time>.json for --compare.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(bench, workload, seed, trace):
    """One benchmark run; returns (result, traced end-to-end or None)."""
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    t0 = time.time()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - t0
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    traced = None
    for line in p.stderr.splitlines():
        if line.startswith("ucbench: traced end-to-end "):
            traced = json.loads(line[len("ucbench: traced end-to-end "):])
    print(f"  {workload} seed {seed} trace {trace}: {wall:.0f}s, "
          f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}", flush=True)
    return result, traced


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def table(bench, results):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"\n{'workload':<16} {'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}  verdict")
    worst = "steady"
    for workload, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, s = spread(values)
            if s <= bound / 3:
                verdict = "steady"
            elif s <= bound:
                verdict = "within bound"
                worst = "within bound" if worst == "steady" else worst
            else:
                verdict = "OVER BOUND"
                worst = "OVER BOUND"
            print(f"{workload:<16} {name:<16} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} "
                  f"{s:>8.4f} {bound:>6.2f}  {verdict}")
        print(f"{workload:<16} failed share: {sorted(shares)} over {len(runs)} runs")
        if len(shares) != 1:
            worst = "OVER BOUND"
    print(f"\noverall: {worst}")


def compare(bench, a, b):
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    print(f"{'workload':<16} {'metric':<16} {'median A':>14} {'median B':>14} "
          f"{'worse by':>9} {'bound':>6}")
    regressed = False
    for workload in a:
        for name, (bound, better) in bounds.items():
            ma = statistics.median(r["metrics"][name]["value"] for r in a[workload])
            mb = statistics.median(r["metrics"][name]["value"] for r in b[workload])
            worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
            flag = "" if worse <= bound else "  REGRESSED"
            regressed = regressed or worse > bound
            print(f"{workload:<16} {name:<16} {ma:>14.4f} {mb:>14.4f} "
                  f"{worse:>+9.4f} {bound:>6.2f}{flag}")
        sa = {r["failed"] / r["attempted"] for r in a[workload]}
        sb = {r["failed"] / r["attempted"] for r in b[workload]}
        if sa != sb:
            regressed = True
            print(f"{workload:<16} failed share differs: {sorted(sa)} vs {sorted(sb)}")
    print(f"\noverall: {'REGRESSED' if regressed else 'within bounds'}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--runs", type=int, default=10, help="seeds per workload")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--overhead", action="store_true",
                    help="compare a traced and an untraced run per workload")
    ap.add_argument("--compare", nargs=2, metavar="FILE")
    args = ap.parse_args()
    if args.runs < 2 and not (args.compare or args.overhead):
        ap.error("--runs must be at least 2: quartiles need two values")
    bench = spec()
    if args.compare:
        with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
            compare(bench, json.load(fa), json.load(fb))
        return
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    if args.overhead:
        for w in workloads:
            plain, _ = run(bench, w, args.first_seed, 0)
            layers, traced = run(bench, w, args.first_seed, 1)
            for name, m in plain["metrics"].items():
                t = traced[name]["value"]
                print(f"  {w:<16} {name:<16} untraced {m['value']:>14.4f} "
                      f"traced {t:>14.4f} ({(t / m['value'] - 1) * 100:+.1f}%)")
            for name, m in layers["metrics"].items():
                print(f"  {w:<16} {name:<32} {m['value']:>16.4f} {m['unit']}")
        return
    results = {}
    for w in workloads:
        results[w] = [run(bench, w, s, 0)[0]
                      for s in range(args.first_seed, args.first_seed + args.runs)]
    out = os.path.join(ROOT, ".ucbench", f"steady-{int(time.time())}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(results, f)
    table(bench, results)
    print(f"raw results: {out}")


if __name__ == "__main__":
    main()
