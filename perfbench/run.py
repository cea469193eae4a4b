#!/usr/bin/env python3
"""Builds and runs the dbsherlockd fleet benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ingest|explain|mixed --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest      # the benchmark's own tests

The first run configures a Release build of dbsherlockd and of the
benchmark binary under .bench_build/ (or $CARGO_TARGET_DIR) in the
checkout; later runs rebuild only what changed. Build output goes to
stderr, so the last line of stdout is always the benchmark's JSON result.
Exits non-zero, without a result, when the build fails, and non-zero with
a result whose "correct" is false when a correctness gate fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(target)
    return path if path.is_absolute() else ROOT / path


def build(out: Path, targets) -> None:
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target",
                    *targets], check=True, stdout=sys.stderr)


def run_bench(out: Path, argv) -> int:
    workdir = out / "work" / f"run-{os.getpid()}"
    daemon = out / "dbsherlock" / "tools" / "dbsherlockd"
    cmd = [str(out / "perfbench"), *argv, "--daemon", str(daemon),
           "--workdir", str(workdir)]
    # A session of its own, so a timeout can stop the benchmark and every
    # daemon it started together.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: no result within {RUN_TIMEOUT_S}s", file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["ingest", "explain", "mixed"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    try:
        if args.selftest:
            build(out, ["perfbench_test"])
            return subprocess.run([str(out / "perfbench_test")]).returncode
        build(out, ["perfbench", "dbsherlockd"])
    except (subprocess.CalledProcessError, FileNotFoundError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    return run_bench(out, ["--workload", args.workload, "--seed",
                           str(args.seed), "--seconds", str(args.seconds),
                           "--trace", str(args.trace)])


if __name__ == "__main__":
    sys.exit(main())
