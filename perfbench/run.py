#!/usr/bin/env python3
"""Decode-path benchmark: build the runner from source, run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload offload-stream --seed 1 \
        --seconds 30 --trace 0

The first run configures and builds perfbench/ (which compiles the runtime
libraries from src/) into .bench_build/perfbench; later runs only check
that the build is up to date. The runner's last stdout line is the JSON
result; see perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "work"
RUNNER = BUILD_DIR / "perfbench_runner"
WORKLOADS = ("offload-stream", "long-context", "shared-prefix")
BUILD_JOBS = "4"


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log):
    """Run a build command with its output in the log file; True on success."""
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode == 0


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no runtime sources at {ROOT / 'src'}; run from a full checkout", 2)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", BUILD_JOBS, "--target", *targets])
    for cmd in steps:
        if not run_logged(cmd, log):
            with open(log) as f:
                sys.stderr.write("".join(f.readlines()[-40:]))
            fail(f"build failed; full log in {log}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    build(["perfbench_runner"])
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(RUNNER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--workdir", str(WORK_DIR)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
