#!/usr/bin/env python3
"""Builds and runs the ABG simulator benchmark for one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: closed-figures, open-phased, open-workflow, open-hier. The
benchmark package is built from source into $CARGO_TARGET_DIR (default
`.bench_build`). The run's details (including the pinned ABG_THREADS)
and metadata are printed before the last line, which is the result
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See perfbench/README.md for what each metric means.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
WORKLOADS = ("closed-figures", "open-phased", "open-workflow", "open-hier")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be between 1 and 60")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(
        os.environ,
        CARGO_TARGET_DIR=target,
        # Keeps cargo's own cache files inside the build directory.
        CARGO_HOME=os.path.join(target, "cargo-home"),
    )

    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail("build failed")

    try:
        rustc = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, timeout=60
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rustc = "unknown"

    binary = os.path.join(target, "release", "abg-perfbench")
    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    try:
        run = subprocess.run(command, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        fail(f"run exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("run printed no result")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"malformed result: {lines[-1]}")

    for line in lines[:-1]:
        print(line)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": int(args.trace),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "rustc": rustc,
    }
    print(json.dumps({"meta": meta}))
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
