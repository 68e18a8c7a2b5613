#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload wan_bulk --seed 1 --seconds 10 --trace 0

Run it from the repository root. The build goes to
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench); later runs
rebuild only what changed. With --trace 1 the span file is written to
<build dir>/traces/<workload>-seed<seed>.json. The last line of stdout is
the benchmark's JSON result; the exit status is the benchmark's (0 only
when its output checks pass). See e2ebench/METHODOLOGY.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["wan_bulk", "ctl_loop", "churn", "scenario_matrix"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"repository sources not found under {ROOT}/src; cannot build")
        return None
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
    steps.append(["cmake", "--build", build_dir, "--target", "ccp_e2ebench",
                  "-j", "4"])
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                out.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                log(f"build failed (full log: {log_path})")
                return None
    return os.path.join(build_dir, "ccp_e2ebench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "e2ebench")
    binary = build(build_dir)
    if binary is None:
        return 2

    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(trace_dir, f"{a.workload}-seed{a.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 3


if __name__ == "__main__":
    sys.exit(main())
