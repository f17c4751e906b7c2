#!/usr/bin/env python3
"""Build and run the FHDnn benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library from ../src and the benchmark binaries into the
directory named by $CARGO_TARGET_DIR (default .bench_build), runs the
untraced (--trace 0) or traced (--trace 1) binary, checks that its result
line carries exactly the metrics BENCHMARK.json declares for that mode,
and forwards its output. The last stdout line is the JSON result. Exit
status is non-zero when the build, a run, an output check or the metric
contract fails. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build incrementally; tool output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}, [
        w["name"] for w in spec["workloads"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="test-sized inputs (the benchmark's own test)")
    ap.add_argument("--perturb-served-history", action="store_true",
                    help="negative test: corrupt the served history")
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no FHDnn source tree next to {HERE}; nothing to benchmark")
        return 2
    metrics, workloads = declared_metrics(args.trace == 1)
    if args.workload not in workloads:
        log(f"unknown workload {args.workload}; expected one of {workloads}")
        return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(os.getcwd(), build_dir)
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)

    binary = os.path.join(build_dir,
                          "perfbench_traced" if args.trace else "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--work-dir", work_dir]
    if args.tiny:
        cmd.append("--tiny")
    if args.perturb_served_history:
        cmd.append("--perturb-served-history")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"benchmark exited with status {proc.returncode}")
        return proc.returncode or 3

    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or \
            got != metrics:
        missing = sorted(set(metrics) - set(got))
        extra = sorted(set(got) - set(metrics))
        wrong = sorted(n for n in set(got) & set(metrics)
                       if got[n] != metrics[n])
        log(f"result breaks the metric contract: missing={missing} "
            f"extra={extra} wrong_unit={wrong}")
        return 4
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
