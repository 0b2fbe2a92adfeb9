#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of every workload.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b]

For each workload, runs i = 1..N of set A and set B alternate (A first on
odd i, B first on even i), each with its own seed and BENCHMARK.json's
run_seconds. For every end-to-end metric it prints both sets' median and
quartiles, the quartile spread as a share of the median, and whether the
sets agree within the metric's bound in BENCHMARK.json: each spread within
the bound, the two medians apart by no more than the bound (either way),
and the same share of failed operations in both sets. The spread of
setup_s is printed but not judged: a set-up of 0.3-5 ms moves 15-35%
between processes on a shared machine, so only its median is held to the
bound. Exit code 1 when any disagrees.
"""

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def spread(values):
    """(q1, median, q3, (q3 - q1) / median) as statistics.quantiles gives
    the quartiles (its default 'exclusive' method)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`
    (negative when it is better)."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / first
    return change if better == "lower" else -change


def judge(metric, a_values, b_values):
    """Verdict row for one metric: spreads and median shift vs the bound."""
    bound = metric["bound"]
    qa, qb = spread(a_values), spread(b_values)
    shift = worse_by(qa[1], qb[1], metric["better"])
    spreads_ok = metric["name"] == "setup_s" or (qa[3] <= bound and
                                                 qb[3] <= bound)
    return {
        "name": metric["name"], "unit": metric["unit"], "bound": bound,
        "a": qa, "b": qb, "shift": shift,
        "ok": spreads_ok and abs(shift) <= bound,
    }


def one_run(workload, seed, seconds):
    code, stdout = bench.run(workload, seed, seconds, trace=False)
    result = json.loads(stdout.strip().splitlines()[-1])
    if code != 0 or not result["correct"]:
        sys.exit(f"steady: {workload} seed {seed} failed (exit {code})")
    return result


def main():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()

    all_ok = True
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for name in order:
                seed = (1 if name == "A" else 1001) + i
                sets[name].append(one_run(workload, seed,
                                          spec["run_seconds"]))
                print(f"{workload} set {name} run {i + 1}/{args.runs} done",
                      file=sys.stderr)
        print(f"\n{workload}")
        print(f"  {'metric':<18} {'A q1/med/q3':>32} {'spread':>7} "
              f"{'B q1/med/q3':>32} {'spread':>7} {'shift':>7} {'bound':>6}")
        for metric in spec["end_to_end"]:
            a = [r["metrics"][metric["name"]]["value"] for r in sets["A"]]
            b = [r["metrics"][metric["name"]]["value"] for r in sets["B"]]
            row = judge(metric, a, b)
            all_ok = all_ok and row["ok"]
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"  {row['name']:<18} {fmt.format(*row['a'][:3]):>32} "
                  f"{row['a'][3]:>7.3f} {fmt.format(*row['b'][:3]):>32} "
                  f"{row['b'][3]:>7.3f} {row['shift']:>+7.3f} "
                  f"{row['bound']:>6.2f} {'ok' if row['ok'] else 'NO'}")
        shares = {name: sum(r["failed"] for r in runs) /
                  sum(r["attempted"] for r in runs)
                  for name, runs in sets.items()}
        same_share = shares["A"] == shares["B"]
        all_ok = all_ok and same_share
        print(f"  failed share: A {shares['A']:.6g}  B {shares['B']:.6g}  "
              f"{'ok' if same_share else 'NO'}")
    print("\nsteady" if all_ok else "\nNOT steady")
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
