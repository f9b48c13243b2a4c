#!/usr/bin/env python3
"""Steadiness tool: how much do the end-to-end metrics move between runs?

Measure: run each workload N times, each with its own seed, and save
every run's metrics.

    python3 perfbench/steady.py run --runs 10 --seed0 1 --out a.json [--workloads sparse-fanout,...]

For every workload and end-to-end metric it prints the median, the
quartiles (statistics.quantiles(values, n=4)), the quartile spread
(q3 - q1) / median, the full range (max - min) / median, and the bound
from BENCHMARK.json. A spread above a third of its bound is flagged,
set-up time included. Each run's host steal (CPU time the hypervisor
gave to other machines, from /proc/stat) and wall time are printed next
to its figures: on a shared host steal explains most of the spread.

Compare: two saved sets of runs of the same commit, or a parent and a
change.

    python3 perfbench/steady.py compare a.json b.json

For every workload and metric it prints both medians, the relative
change in the metric's worse direction, and whether that change stays
within the bound; it also checks that the share of failed operations is
identical. Exit code 1 if any bound is broken.

Run from the repository root; it calls perfbench/run.py.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time

BENCH = json.load(open("BENCHMARK.json"))
METRICS = {m["name"]: m for m in BENCH["end_to_end"]}


def one_run(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    if out.returncode != 0 or not last.startswith("{"):
        sys.exit(f"steady.py: {' '.join(cmd)} exited {out.returncode}: {last}")
    steal = re.search(r"host steal ([0-9.]+)% of CPU time", out.stdout)
    result = json.loads(last)
    result["steal_pct"] = float(steal.group(1)) if steal else None
    result["wall_s"] = round(wall, 1)
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med, (max(values) - min(values)) / med


def measure(args):
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in BENCH["workloads"]]
    seconds = args.seconds or BENCH["run_seconds"]
    runs = {}
    for w in workloads:
        runs[w] = []
        for i in range(args.runs):
            r = one_run(w, args.seed0 + i, seconds)
            runs[w].append(r)
            print(f"{w} seed {args.seed0 + i}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
                  + f", host steal {r['steal_pct']}%, wall {r['wall_s']} s", flush=True)
    if args.out:
        json.dump(runs, open(args.out, "w"), indent=1)
    print(f"\n{'workload':20} {'metric':20} {'median':>10} {'q1':>10} {'q3':>10} {'iqr/med':>8} {'range/med':>9} {'bound':>6}")
    for w, rs in runs.items():
        for name, meta in METRICS.items():
            med, q1, q3, iqr, rng = spread([r["metrics"][name]["value"] for r in rs])
            flag = "" if iqr < meta["bound"] / 3 else "  <- above bound/3"
            print(f"{w:20} {name:20} {med:10.4g} {q1:10.4g} {q3:10.4g} {iqr:8.3f} {rng:9.3f} {meta['bound']:6}{flag}")
        shares = {r["failed"] / r["attempted"] for r in rs}
        print(f"{w:20} failed share {sorted(shares)}; host steal % per run {[r['steal_pct'] for r in rs]}")


def compare(args):
    a, b = json.load(open(args.first)), json.load(open(args.second))
    ok = True
    print(f"{'workload':20} {'metric':20} {'first':>10} {'second':>10} {'worse by':>9} {'bound':>6}")
    for w in a:
        if w not in b:
            continue
        for name, meta in METRICS.items():
            m1 = statistics.median(r["metrics"][name]["value"] for r in a[w])
            m2 = statistics.median(r["metrics"][name]["value"] for r in b[w])
            worse = (m2 - m1) / m1 if meta["better"] == "lower" else (m1 - m2) / m1
            bad = worse > meta["bound"]
            ok &= not bad
            print(f"{w:20} {name:20} {m1:10.4g} {m2:10.4g} {worse:9.3f} {meta['bound']:6}{'  <- over bound' if bad else ''}")
        sa = {r["failed"] / r["attempted"] for r in a[w]}
        sb = {r["failed"] / r["attempted"] for r in b[w]}
        if sa != sb:
            ok = False
            print(f"{w:20} failed shares differ: {sorted(sa)} vs {sorted(sb)}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--seconds", type=int, default=0, help="run length (default: BENCHMARK.json run_seconds)")
    r.add_argument("--workloads", default="")
    r.add_argument("--out", default="")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args()
    if args.cmd == "run":
        measure(args)
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
