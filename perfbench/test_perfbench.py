#!/usr/bin/env python3
"""The benchmark's own test.

Runs every workload at test size (--tiny) under two seeds, untraced and
traced, and checks that each run passes its output checks and emits
exactly the metrics BENCHMARK.json declares, each with its declared unit.
Then checks the negative cases: a perturbed served history must be caught
(non-zero exit, "correct": false), and a directory holding only
BENCHMARK.json and perfbench/ must fail without printing a result.

Usage (from the repository root): python3 perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
SEEDS = (1, 2)


def run(args, cwd=ROOT):
    return subprocess.run(RUN + args, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def result_of(proc):
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                what = f"{w} seed={seed} trace={trace}"
                proc = run(["--workload", w, "--seed", str(seed),
                            "--seconds", "1", "--trace", str(trace),
                            "--tiny"])
                res = result_of(proc)
                if proc.returncode != 0 or res is None:
                    expect(False, f"{what}: exit {proc.returncode}\n"
                                  f"{proc.stderr[-2000:]}")
                    continue
                expect(set(res) == {"correct", "attempted", "failed",
                                    "metrics"}, f"{what}: result keys")
                expect(res["correct"] and res["failed"] == 0 and
                       res["attempted"] >= 1, f"{what}: output checks pass")
                got = {n: m["unit"] for n, m in res["metrics"].items()}
                expect(got == declared[trace],
                       f"{what}: every declared metric with its unit")

    proc = run(["--workload", "fhdnn_served", "--seed", "1", "--seconds", "1",
                "--trace", "0", "--tiny", "--perturb-served-history"])
    res = result_of(proc)
    expect(proc.returncode != 0 and res is not None and
           res["correct"] is False and res["failed"] > 0,
           "perturbed served history is caught")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    bare = os.path.join(build_dir, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fhdnn_ber",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180, env={**os.environ, "CARGO_TARGET_DIR": ".bench_build"})
    expect(proc.returncode != 0 and proc.stdout.strip() == "",
           "a checkout without the library fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
