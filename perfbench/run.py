#!/usr/bin/env python3
"""Builds and runs the silod benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The first call configures and builds the
silod library and the benchmark program under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later calls reuse the build.  Build output goes to
stderr; stdout is the metric table of silobench, and its last line is the JSON
result.  Exits non-zero without a result when the build or a check fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["flow-gavel400", "flow-alluxio400", "fine-96", "serve-sjf"]


def build(build_dir: Path) -> None:
    def run(cmd):
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit(f"perfbench: {' '.join(cmd)} failed ({result.returncode})")

    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run(["cmake", "-S", str(HERE), "-B", str(build_dir), *generator,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", str(build_dir), "-j", jobs])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None or not args.seconds):
        parser.error("--workload, --seed and --seconds are required")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"
    build(build_dir)
    if args.selftest:
        return subprocess.run([str(build_dir / "silobench_selftest")]).returncode

    work_dir = build_dir / "run"
    work_dir.mkdir(parents=True, exist_ok=True)
    return subprocess.run([
        str(build_dir / "silobench"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", str(work_dir),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
