#!/usr/bin/env python3
"""Build the perfbench program from source (once per checkout) and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: bluetooth_scaling, solver_suites, portfolio_race. The build goes
to .bench_build/perfbench; build output goes to standard error, so the last
line of standard output is the program's JSON result. See README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
# A run measures --seconds, plus set-up and at most one overrunning pass.
RUN_TIMEOUT_S = 170


def build() -> int:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no verifier sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        rc = subprocess.call(cmd, stdout=sys.stderr)
        if rc != 0:
            return rc
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(["cmake", "--build", str(BUILD), "-j", jobs],
                           stdout=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    rc = build()
    if rc != 0:
        print(f"perfbench: build failed ({rc})", file=sys.stderr)
        return rc

    out_dir = BUILD / "out"
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--out-dir", str(out_dir)]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
