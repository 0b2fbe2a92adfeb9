#!/usr/bin/env python3
"""Reliability-engine benchmark: builds the engine and runs one workload.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the repository root. The engine is built from source (Release)
under $CARGO_TARGET_DIR (default .bench_build)/perfbench; the first run
builds, later runs only check that the build is current. The last line of
standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). Exits non-zero, without a result line, when the build or the
run fails; a run whose checks fail prints "correct": false and exits 1.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("interval_sweep_6v", "mttc_sweep_n40", "nvpd_mixed",
             "monitor_drift")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def clean_env():
    """The default configuration: no NVP_* overrides reach the engine."""
    return {k: v for k, v in os.environ.items() if not k.startswith("NVP_")}


def build():
    """Configures and builds perfbench + nvpcli; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: engine sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    if shutil.which("cmake") is None:
        sys.exit("perfbench: cmake not found")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench", "nvpcli"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=clean_env(), check=False)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")
    return out


def run(workload, seed, seconds, trace, selfcheck=False):
    """Runs one workload in a fresh process; returns (exit code, stdout)."""
    out = build()
    run_dir = os.path.join(out, "run-" + workload)
    os.makedirs(run_dir, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"), workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", run_dir, "--nvpcli", os.path.join(out, "nvpcli")]
    if selfcheck:
        cmd.append("--selfcheck")
    # Own process group, so a timeout also stops the daemons it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=clean_env(),
                            cwd=ROOT, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"perfbench: {workload} did not finish in "
                 f"{RUN_TIMEOUT_S} s")
    return proc.returncode, stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="also prove each correctness check rejects a "
                             "perturbed reference")
    args = parser.parse_args()
    code, stdout = run(args.workload, args.seed, args.seconds,
                       args.trace == 1, args.selfcheck)
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "correct" not in result:
        sys.stderr.write(stdout)
        sys.exit(f"perfbench: {args.workload} failed (exit {code})")
    for line in lines[:-1]:
        print(line)
    # A failed correctness check still reports its result line.
    print(json.dumps(result))
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
