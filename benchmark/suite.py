#!/usr/bin/env python3
"""Runs the benchmark's workloads through the command BENCHMARK.json names.

  suite.py                 every workload untraced, then traced; prints the
                           metric lines, writes results/BENCH_11.json
  suite.py --check-repeat  the untraced set twice; fails if an end-to-end
                           metric's two readings differ by more than its bound
  suite.py --spread N      N untraced runs per workload, each on another seed;
                           prints each metric's quartile spread (Q3-Q1)/median
                           against a third of its bound, as the contract asks

Options: --seed S (first seed, default 1), --only WORKLOAD.
Run from the repository root (run.sh does).
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def run(workload, seed, trace):
    """One run; returns (result object of the last line, the lines before it)."""
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]  # fmt: skip
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        sys.exit(f"{workload} seed {seed} trace {trace}: exit code {done.returncode}")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, lines
    return result, lines[:-1]


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(name, before, after):
    """Share of `before` by which `after` is worse (negative: better)."""
    change = (after - before) / before
    return change if BOUNDS[name]["better"] == "lower" else -change


def full(workloads, seed):
    rows = {}
    for trace in (0, 1):
        for w in workloads:
            result, lines = run(w, seed, trace)
            print("\n".join(lines), flush=True)
            row = rows.setdefault(w, {"attempted": 0, "failed": 0})
            row["attempted"] += result["attempted"]
            row["failed"] += result["failed"]
            row["per_layer" if trace else "end_to_end"] = result["metrics"]
    out = os.path.join(HERE, "results", "BENCH_11.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    doc = {"pr": 11, "seed": seed, "run_seconds": SPEC["run_seconds"], "workloads": rows}
    with open(out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"# wrote {os.path.relpath(out)}")


def check_repeat(workloads, seed):
    bad = 0
    for w in workloads:
        first, second = (values(run(w, seed, 0)[0]) for _ in range(2))
        for name, a in first.items():
            b = second[name]
            differ = max(worse_by(name, a, b), worse_by(name, b, a))
            verdict = "ok" if differ <= BOUNDS[name]["bound"] else "DIFFER"
            bad += verdict != "ok"
            print(f"{w:14} {name:26} {a:14.6g} {b:14.6g} differ {differ:7.2%} "
                  f"bound {BOUNDS[name]['bound']:.0%} {verdict}", flush=True)  # fmt: skip
    sys.exit(f"{bad} metrics differ by more than their bound" if bad else 0)


def spread(workloads, seed, n):
    wide = 0
    for w in workloads:
        runs = [values(run(w, seed + i, 0)[0]) for i in range(n)]
        for name in runs[0]:
            vals = [r[name] for r in runs]
            q = statistics.quantiles(vals, n=4)
            share = (q[2] - q[0]) / statistics.median(vals)
            target = BOUNDS[name]["bound"] / 3
            verdict = "ok" if share <= target or name == "setup_s" else "WIDE"
            wide += verdict != "ok"
            print(f"{w:14} {name:26} median {statistics.median(vals):12.6g} "
                  f"spread {share:7.2%} target {target:6.2%} {verdict}", flush=True)  # fmt: skip
    print(f"# {wide} spreads above a third of their bound")


def main():
    args = sys.argv[1:]
    seed = int(args[args.index("--seed") + 1]) if "--seed" in args else 1
    workloads = [w["name"] for w in SPEC["workloads"]]
    if "--only" in args:
        workloads = [args[args.index("--only") + 1]]
    if "--check-repeat" in args:
        check_repeat(workloads, seed)
    elif "--spread" in args:
        spread(workloads, seed, int(args[args.index("--spread") + 1]))
    else:
        full(workloads, seed)


if __name__ == "__main__":
    main()
