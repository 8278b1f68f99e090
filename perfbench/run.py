#!/usr/bin/env python3
"""Builds and runs the syzygy-slo benchmark (see perfbench/NOTES.md).

Run from the root of a checkout, for example:

    python3 perfbench/run.py --threads 2 --readers 2 \\
        --workload sim_table3 --seed 1 --seconds 20 --trace 0

On first use the benchmark is compiled from the checkout's sources into
.bench_build/perfbench (under $CARGO_TARGET_DIR when that is set). Build
logs go to standard error; the last line of standard output is the JSON
result. Without the repository's sources the build fails and the script
exits 1 without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sim_table3", "advise_corpus", "serve_mixed")
BUILD_JOBS = 4
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds slo_perfbench; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "slo_perfbench",
                  "-j", str(BUILD_JOBS)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def check_result(line, trace):
    """Raises ValueError unless the JSON line carries exactly the metrics
    BENCHMARK.json lists for this kind of run, with their units."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected keys %s" % sorted(result))
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "unexpected %s" % (sorted(set(want) - set(got)),
                                            sorted(set(got) - set(want))))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, required=True,
                    help="FE fan-out of every timed advice run")
    ap.add_argument("--readers", type=int, required=True,
                    help="closed-loop GetAdvice connections in serve_mixed")
    args = ap.parse_args()

    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    cmd = [os.path.join(build_dir, "slo_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--threads", str(args.threads), "--readers", str(args.readers),
           "--work-dir", work_dir, "--repo-root", root]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print("perfbench: slo_perfbench exited %d" % proc.returncode,
              file=sys.stderr)
        return 1
    try:
        check_result(proc.stdout.rstrip("\n").split("\n")[-1], args.trace)
    except (ValueError, KeyError, OSError) as e:
        sys.stderr.write(proc.stdout)
        print("perfbench: bad result: %s" % e, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
