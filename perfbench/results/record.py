#!/usr/bin/env python3
"""Record a baseline of every metric of every workload.

Usage, from the repository root:

    python3 perfbench/results/record.py [--seed N] [--out FILE]

Runs each workload (the ones BENCHMARK.json gates and `clos10k_single`,
which runs by hand) once untraced and once traced at the given seed
(default 1, the primary seed), for the benchmark's `run_seconds`,
and writes the end-to-end and per-layer metrics, the run notes (cores, world
sizes, model kinds, worker counts), the failed share and the traced stage
table to FILE (default perfbench/results/baseline.json).
"""

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORKLOADS = ["clos10k_single", "fabric6_paper", "mesh64_ingest"]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    notes, stages, failed_share, in_stages = {}, [], None, False
    for line in lines[:-1]:
        if line.startswith("note "):
            key, _, value = line[len("note "):].partition(": ")
            notes[key] = value
        elif line.startswith("failed_share "):
            failed_share = float(line.split()[1])
        elif line.startswith("stage "):
            in_stages = True
        elif in_stages and not line.startswith("spans written"):
            name, count, p50, p95, total = line.split()
            stages.append({"stage": name, "count": int(count), "p50_us": float(p50),
                           "p95_us": float(p95), "total_ms": float(total)})
        else:
            in_stages = False
    return result, notes, stages, failed_share


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=os.path.join(ROOT, "perfbench", "results", "baseline.json"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    record = {"seed": args.seed, "run_seconds": seconds, "cores": os.cpu_count(),
              "cpu": platform.processor() or platform.machine(), "workloads": {}}
    for workload in WORKLOADS:
        untraced, notes, _, failed_share = run(workload, args.seed, seconds, 0)
        traced, _, stages, traced_failed_share = run(workload, args.seed, seconds, 1)
        record["workloads"][workload] = {
            "correct": untraced["correct"] and traced["correct"],
            "failed_share": failed_share,
            "traced_failed_share": traced_failed_share,
            "end_to_end": {k: v["value"] for k, v in untraced["metrics"].items()},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "notes": notes,
            "traced_stages": stages,
        }
        print(f"{workload}: recorded", file=sys.stderr)
    with open(args.out, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
