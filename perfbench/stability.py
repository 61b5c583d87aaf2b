#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

    python3 perfbench/stability.py [--runs 10] [--workloads a,b] [--seconds S]
                                   [--first-seed 1] [--raw FILE]

Run from the repository root. For each workload this runs the command in
BENCHMARK.json as two interleaved sets of --runs runs (A, B, A, B, ...),
each run with its own seed: set A takes seeds first-seed, first-seed + 2, ...
and set B the odd ones in between. It prints, for every end-to-end metric,
each set's median, quartiles and IQR/median (quartiles as Python's
statistics.quantiles(values, n=4) gives them), and how far set B's median
is worse than set A's, as a share of set A's median. A spread above a third
of the metric's bound, or a median shift above the bound, is flagged.
--raw appends every run's JSON result to FILE.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def host():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"nproc={os.cpu_count()} cpu={model!r}"


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    p = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, check=False)
    elapsed = time.monotonic() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({p.returncode}):\n{p.stdout}\n{p.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} reported a failure: {lines[-1]}")
    return result, elapsed


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--raw")
    a = ap.parse_args()

    print(f"host: {host()}; {a.runs} runs per set, {a.seconds} s each", flush=True)
    metrics = bench["end_to_end"]
    for workload in a.workloads.split(","):
        sets = ([], [])
        longest = 0.0
        for i in range(2 * a.runs):
            seed = a.first_seed + i
            result, elapsed = run_once(bench["command"], workload, seed, a.seconds)
            longest = max(longest, elapsed)
            sets[i % 2].append(result["metrics"])
            if a.raw:
                with open(a.raw, "a", encoding="utf-8") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed,
                                        "elapsed_s": elapsed, "result": result}) + "\n")
        print(f"\n{workload}: longest run {longest:.1f} s")
        print(f"  {'metric':<20} {'set':<3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'B worse':>8} {'bound':>6}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            rows = [spread([r[name]["value"] for r in s]) for s in sets]
            sign = 1 if m["better"] == "lower" else -1
            shift = sign * (rows[1][0] - rows[0][0]) / rows[0][0] if rows[0][0] else 0.0
            for label, (med, q1, q3, rel) in zip("AB", rows):
                flag = ""
                if name != "setup_s" and rel > bound / 3:
                    flag = "  SPREAD>bound/3" if rel <= bound else "  SPREAD>bound"
                worse = f"{shift:8.3f}" if label == "B" else " " * 8
                if label == "B" and shift > bound:
                    flag += "  SHIFT>bound"
                print(f"  {name:<20} {label:<3} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                      f"{rel:8.4f} {worse} {bound:6.2f}{flag}")


if __name__ == "__main__":
    main()
