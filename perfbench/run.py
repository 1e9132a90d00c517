#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload echo-1k --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles the
libraries under src/) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later calls rebuild incrementally.  Build output goes to stderr, so
the last line of stdout is the benchmark's result object.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/: run from a full checkout")
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(os.path.join(ROOT, out)),
                             "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j", jobs], stdout=sys.stderr, check=True)
    return build_dir


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    try:
        if args.self_test:
            build_dir = build("perfbench_tests")
            sys.exit(subprocess.run(
                [os.path.join(build_dir, "perfbench_tests")],
                cwd=build_dir).returncode)
        if not args.workload:
            fail("--workload is required")
        build_dir = build("perfbench")
    except subprocess.CalledProcessError as e:
        fail("build failed: %s" % e, 3)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        # cwd is the build directory, so nothing the server writes (for
        # example flight-recorder dumps) lands among the sources.
        run = subprocess.run(cmd, cwd=build_dir, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail("benchmark exited with %d" % run.returncode, 5)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last line is not JSON", 5)
    if set(result) != RESULT_KEYS:
        fail("result keys %s" % sorted(result), 5)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
