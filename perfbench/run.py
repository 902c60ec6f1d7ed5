#!/usr/bin/env python3
"""SHOAL benchmark command.

    python3 perfbench/run.py --workload build|refresh|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. Builds perfbench/ (which pulls in the
repository's libraries and shoal_serve) as a Release CMake project under
$CARGO_TARGET_DIR (default .bench_build), then runs the driver. Build
output goes to stderr; the driver's last stdout line is the result JSON.
Traced runs (--trace 1) also write <workload>-seed<N>.trace.json
(Chrome trace, Perfetto loadable) and .layers.json under
<build dir>/perfbench/out.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TARGETS = ["perfbench", "shoal_serve_bin"]


def build(build_dir):
    """Configures (once) and builds the driver; returns False on failure."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", build_dir, "-j", jobs, "--target"] + TARGETS
    return subprocess.call(command, stdout=sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["build", "refresh", "serve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that every output check rejects a "
                             "planted wrong answer")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    root = os.getcwd()
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target_dir, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "perfbench")
    serve_bin = os.path.join(build_dir, "shoal", "examples", "shoal_serve")
    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    command = [binary, "--work-dir", work_dir, "--serve-bin", serve_bin]
    if args.selftest:
        command += ["--selftest", "1"]
    else:
        command += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", repr(args.seconds),
                    "--trace", str(args.trace),
                    "--out-dir", os.path.join(build_dir, "out")]
    sys.stdout.flush()
    return subprocess.call(command)


if __name__ == "__main__":
    sys.exit(main())
