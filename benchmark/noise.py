#!/usr/bin/env python3
"""Noise study for the repo benchmark: prints the tables in NOISE.md.

For every workload it makes untraced runs through benchmark/run.sh — by
default two sets of ten, each run on another seed (what the benchmark
driver does), plus six repeats of seed 11 — and reports each end-to-end
metric's median, quartiles (statistics.quantiles(values, n=4)) and the
quartile distance as a share of the median, next to the metric's bound in
BENCHMARK.json.

    benchmark/noise.py [--workloads a,b] [--sets 2] [--runs 10] [--repeats 6]
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
MANIFEST = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in MANIFEST["end_to_end"]}


def run(workload, seed):
    """One untraced run; returns {metric: value} plus raw throughput."""
    cmd = MANIFEST["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(MANIFEST["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    values = {k: v["value"] for k, v in result["metrics"].items()}
    detail = json.loads((HERE / "out" / f"{workload}.json").read_text())
    values["(raw) events_per_raw_cpu_s"] = detail["process"]["events_per_raw_cpu_s"]
    values["(raw) sys_cpu_s"] = detail["process"]["sys_cpu_s"]
    values["(raw) wall_s"] = detail["process"]["wall_s"]
    return values, (detail["sim_events"], detail["sim_digest"])


def summarise(label, rows):
    for metric in rows[0]:
        values = [r[metric] for r in rows]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = BOUNDS.get(metric)
        print(f"| {label} | `{metric}` | {med:.6g} | {q1:.6g} | {q3:.6g} | "
              f"{spread:.3f} | {bound if bound is not None else '—'} |")
    sys.stdout.flush()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in MANIFEST["workloads"]))
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--repeats", type=int, default=6)
    args = ap.parse_args()
    print("| runs | metric | median | q1 | q3 | (q3−q1)/median | bound |")
    print("|---|---|---|---|---|---|---|")
    for workload in args.workloads.split(","):
        medians = []
        for s in range(args.sets):
            seeds = range(100 * (s + 1) + 1, 100 * (s + 1) + 1 + args.runs)
            rows = [run(workload, seed)[0] for seed in seeds]
            summarise(f"{workload}, seeds {seeds[0]}–{seeds[-1]}", rows)
            medians.append({m: statistics.median(r[m] for r in rows) for m in BOUNDS})
        if len(medians) == 2:
            drift = {m: medians[1][m] / medians[0][m] - 1 for m in BOUNDS}
            print(f"| {workload}, set 2 vs set 1 | median drift | "
                  + ", ".join(f"`{m}` {d:+.3f}" for m, d in drift.items()) + " | | | | |")
        if args.repeats:
            outs = [run(workload, 11) for _ in range(args.repeats)]
            summarise(f"{workload}, seed 11 ×{args.repeats}", [o[0] for o in outs])
            exact = {o[1] for o in outs}
            other = run(workload, 12)[1]
            print(f"| {workload}, seed 11 ×{args.repeats} | `sim_events`/`sim_digest` | "
                  f"{len(exact)} distinct: {sorted(exact)}; seed 12: {other} | | | | |")


if __name__ == "__main__":
    main()
