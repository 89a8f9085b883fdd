#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end metric's
median, quartiles and spread (interquartile range over median) next to the
bound BENCHMARK.json gives it.

    python3 perfbench/steadiness.py --workloads serve-mixed --seeds 1-10
    python3 perfbench/steadiness.py --seeds 101-110 --json results.json

Run it from the repository root. A spread below a third of the bound is
steady; the setup_s spread is reported but has no limit.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(spec):
    seeds = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed")
    env = json.loads(lines[-2])["env"]
    print(f"  host calibration {env['calibration_ms']} ms", flush=True)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for line in lines:
        if "(reported, not in the result line)" in line:
            name, value = line.split()[:2]
            metrics[name] = float(value)
    return metrics


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--json", help="also write every run's metrics here")
    ap.add_argument("--medians", help="also write each workload's metric medians here "
                    "(perfbench/untraced_medians.json is what traced runs compare with)")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    all_runs = {}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            runs.append(run_once(bench["command"], workload, seed, args.seconds))
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in sorted(runs[-1].items())), flush=True)
        all_runs[workload] = runs
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in sorted(runs[0]):
            vals = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if name not in bounds:
                print(f"  {name:16} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}      - reported")
                continue
            bound = bounds[name]
            ok = name == "setup_s" or spread < bound / 3
            steady = steady and ok
            print(f"  {name:16} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound:6.3f} {'ok' if ok else 'NOISY'}")
        print()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(all_runs, f, indent=1)
    if args.medians:
        medians = {w: {k: statistics.median(r[k] for r in runs) for k in sorted(runs[0])}
                   for w, runs in all_runs.items()}
        with open(args.medians, "w") as f:
            json.dump(medians, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
