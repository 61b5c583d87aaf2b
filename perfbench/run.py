#!/usr/bin/env python3
"""Builds the benchmark from source, then runs it.

    python3 perfbench/run.py --workload rtc-table1 --seed 1 --seconds 30 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR, or to
.bench_build/ when that is unset. Cargo's output goes to stderr, so the
benchmark's JSON result stays the last line of stdout. A failed build exits
non-zero without printing a result.

An untraced run (--trace 0) splits its timed region over PROCESSES fresh
processes, one after another, each with one set-up and an equal share of
--seconds, and merges their results. One process keeps the speed it starts
with: on a shared guest, 15 s stretches inside one process agreed within
5 % (IQR/median) while separate processes of the same seed spread by 10-17 %
(see README.md), so averaging over processes is what steadies throughput.
A traced run (--trace 1) is one process.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Processes an untraced run is split over.
PROCESSES = 5


def build(env):
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    return result.returncode


def run_part(exe, args, env):
    """Runs one benchmark process; returns (exit code, summary fields, result)
    or None when it printed no result."""
    p = subprocess.run([exe] + args, env=env, stdout=subprocess.PIPE, text=True,
                       check=False)
    lines = p.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("# "):
        sys.stderr.write(p.stdout)
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(p.stdout)
        return None
    summary = dict(kv.split("=", 1) for kv in lines[-2].split() if "=" in kv)
    return p.returncode, summary, result


def merge(parts):
    """Merges the processes' results: sums of sessions, of simulated seconds
    and of calibrated CPU seconds, the median set-up time, the highest peak
    memory, and the verdict lags, which every process must agree on like
    its digest."""
    summaries = [s for _, s, _ in parts]
    results = [r for _, _, r in parts]
    first = results[0]["metrics"]
    lag_names = [n for n in first if n.startswith("verdict_lag_")]
    agree = all(s["digest"] == summaries[0]["digest"] for s in summaries) and all(
        r["metrics"][n]["value"] == first[n]["value"] for r in results for n in lag_names)
    correct = agree and all(code == 0 and r["correct"] for code, _, r in parts)
    sim = sum(float(s["sim_s"]) for s in summaries)
    cpu = sum(float(s["cpu_s"]) for s in summaries)
    wall = sum(float(s["wall_s"]) for s in summaries)
    # CPU seconds at the reference kernel's nominal speed.
    calibrated = sum(float(s["cpu_s"]) / float(s["slowdown"]) for s in summaries)
    values = {
        "sim_s_per_s": sim / calibrated if calibrated > 0 else 0.0,
        "setup_s": statistics.median(r["metrics"]["setup_s"]["value"] for r in results),
        "peak_rss_mb": max(r["metrics"]["peak_rss_mb"]["value"] for r in results),
    }
    metrics = {name: {"value": values.get(name, m["value"]), "unit": m["unit"]}
               for name, m in first.items()}
    summary = (f"processes={len(parts)} "
               f"rounds={sum(int(s['rounds']) for s in summaries)} "
               f"digest={summaries[0]['digest']} verdicts={summaries[0]['verdicts']} "
               f"cpu_sim_s_per_s={sim / cpu if cpu > 0 else 0.0:.1f} "
               f"wall_sim_s_per_s={sim / wall if wall > 0 else 0.0:.1f} "
               f"slowdown={','.join(s['slowdown'][:5] for s in summaries)}")
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    return summary, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    a = ap.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    code = build(env)
    if code != 0:
        return code or 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    base = ["--workload", a.workload, "--seed", str(a.seed), "--trace", a.trace]

    if a.trace == "1":
        return subprocess.run([exe] + base + ["--seconds", repr(a.seconds)],
                              env=env, check=False).returncode

    parts = []
    for _ in range(PROCESSES):
        part = run_part(exe, base + ["--seconds", repr(a.seconds / PROCESSES),
                                     "--setups", "1"], env)
        if part is None:
            return 1
        parts.append(part)
    summary, result = merge(parts)
    print(f"# {a.workload} seed={a.seed} trace=0 {summary}")
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
