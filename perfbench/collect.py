#!/usr/bin/env python3
"""Repeat the benchmark across seeds and summarise its spread.

Usage (from the repository root):

    python3 perfbench/collect.py [--runs 10] [--first-seed 1000]
        [--workloads a,b] [--traced-runs 1] [--label TEXT] [--out FILE]

Runs every (or each named) workload --runs times untraced, each run with
its own seed, plus --traced-runs traced runs. For every end-to-end metric
it reports the median, the quartiles from statistics.quantiles(n=4) and
the spread (q3 - q1) / median, and marks spreads above a third of the
metric's bound ("wide") or above the bound itself ("UNSTEADY"). With
--out it writes every run's result and info lines plus the summary as one
JSON trajectory entry (see perfbench/README.md).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    start = time.time()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900)
    lines = proc.stdout.splitlines()
    info = None
    for line in lines[:-1]:
        if line.startswith('{"info"'):
            info = json.loads(line)["info"]
    return {
        "seed": seed,
        "trace": trace,
        "exit": proc.returncode,
        "wall_s": round(time.time() - start, 3),
        "info": info,
        "result": json.loads(lines[-1]) if lines else None,
    }


def summarise(runs, spec):
    out = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["result"]["metrics"][name]["value"] for r in runs
                  if r["result"] and name in r["result"]["metrics"]]
        if len(values) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med if med else float("inf")
        bound = metric["bound"]
        out[name] = {
            "median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound,
            "status": ("UNSTEADY" if spread > bound else
                       "wide" if spread > bound / 3 else "ok"),
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1000)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--traced-runs", type=int, default=0)
    ap.add_argument("--label", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    seconds = spec["run_seconds"]

    entry = {
        "label": args.label,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {"machine": platform.machine(), "nproc": os.cpu_count(),
                 "python": platform.python_version()},
        "run_seconds": seconds,
        "workloads": {},
    }
    failed = False
    for w in names:
        runs = []
        for i in range(args.runs):
            r = run_once(w, args.first_seed + i, seconds, 0)
            runs.append(r)
            ok = r["exit"] == 0 and r["result"] and r["result"]["correct"]
            failed |= not ok
            print(f"{w} seed={r['seed']} exit={r['exit']} "
                  f"wall={r['wall_s']}s", file=sys.stderr, flush=True)
        traced = []
        for i in range(args.traced_runs):
            r = run_once(w, args.first_seed + i, seconds, 1)
            traced.append(r)
            failed |= r["exit"] != 0
        summary = summarise(runs, spec)
        entry["workloads"][w] = {"summary": summary, "runs": runs,
                                 "traced_runs": traced}
        for name, s in summary.items():
            print(f"{w:13s} {name:24s} median={s['median']:.6g} "
                  f"spread={s['spread']:.4f} bound={s['bound']} "
                  f"{s['status']}", flush=True)

    if args.out:
        with open(args.out, "w") as f:
            json.dump(entry, f, indent=1)
            f.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
