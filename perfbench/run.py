#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build); span files of traced runs go to .bench_out/. The last line of
stdout is the run's JSON result; the exit status is non-zero when the build
fails or a correctness check fails.
"""
import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("offline_table", "serve_hits", "serve_mixed", "tracker_stream")
SETTLE_SECONDS = 2


def build(build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(os.path.abspath(build_dir))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 2

    # setup_s times one cold set-up from the program's start. A pause lets
    # the build check and the previous run's load drain first: right after
    # a serve_hits run, tracker_stream's set-up read 15-19 ms over five
    # runs, and 14-17 ms after a 2 s pause.
    time.sleep(SETTLE_SECONDS)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spans = None
    if args.trace:
        os.makedirs(".bench_out", exist_ok=True)
        spans = os.path.join(".bench_out",
                             f"spans_{args.workload}_{args.seed}.jsonl")
        cmd += ["--spans", spans]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        if lines:
            print(lines[-1])
        return run.returncode or 1
    if spans is not None:
        # Per-module self-time table and span nesting check.
        table = subprocess.run(
            [sys.executable, os.path.join(HERE, "spans.py"), spans],
            stdout=sys.stderr)
        if table.returncode != 0:
            return table.returncode
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
