#!/usr/bin/env python3
"""Builds and runs the EMAP monitoring-loop benchmark (see README.md).

Run from the repository root:

    python3 loopbench/run.py --workload batch-clean --seed 1 --seconds 10 --trace 0
    python3 loopbench/run.py --selftest

The benchmark package (loopbench/CMakeLists.txt) is configured and built
from source into $CARGO_TARGET_DIR/loopbench (default .bench_build/loopbench)
on first use; later runs rebuild incrementally.  Build output goes to
stderr, so the last stdout line is the benchmark's JSON result.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir() -> pathlib.Path:
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "loopbench"


def build(out: pathlib.Path) -> int:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print(f"loopbench: program sources not found under {ROOT}",
              file=sys.stderr)
        return 2
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        code = subprocess.call(configure, stdout=sys.stderr)
        if code != 0:
            return code
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(
        ["cmake", "--build", str(out), "--parallel", jobs, "--target",
         "loopbench", "loopbench_selftest"], stdout=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["batch-clean", "batch-faulted"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the helpers' self-tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    code = build(out)
    if code != 0:
        print(f"loopbench: build failed ({code})", file=sys.stderr)
        return code if code > 0 else 1
    work = out.parent / "loopbench-work"
    if args.selftest:
        return subprocess.call([str(out / "loopbench_selftest"), str(work)],
                               cwd=ROOT)
    return subprocess.call(
        [str(out / "loopbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--work-dir", str(work)], cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
