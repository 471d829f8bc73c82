"""Measure the benchmark's own run-to-run spread and its tracing overhead.

    python3 perfbench/steadiness.py --runs 10 --traced-runs 3

Runs every workload (or those given with --workload) once per seed, one run
at a time, with tracing off and then with tracing on, through the command in
BENCHMARK.json.  For each end-to-end metric it records the ten values, their
median and quartiles (statistics.quantiles, n=4), the spread (q3 - q1) /
median against the metric's bound, and the tracing overhead: the traced
median minus the untraced one.  Results are merged by workload into
perfbench/steadiness.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACED_PREFIX = "traced end-to-end: "


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{' '.join(cmd)} reported incorrect output")
    traced = [json.loads(line[len(TRACED_PREFIX):]) for line in lines
              if line.startswith(TRACED_PREFIX)]
    return result, (traced[0] if traced else None)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def measure(bench, workload, seeds, traced_seeds):
    untraced, traced, layers = [], [], []
    for seed in seeds:
        result, _ = run_once(bench, workload, seed, 0)
        untraced.append({k: v["value"] for k, v in result["metrics"].items()})
        print(workload, seed, untraced[-1], flush=True)
    for seed in traced_seeds:
        result, e2e = run_once(bench, workload, seed, 1)
        traced.append(e2e)
        layers.append({k: v["value"] for k, v in result["metrics"].items()})
        print(workload, seed, "traced", e2e, flush=True)
    out = {"seeds": seeds, "traced_seeds": traced_seeds, "end_to_end": {},
           "per_layer_median": {}}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        entry = spread([run[name] for run in untraced])
        entry["bound"] = metric["bound"]
        entry["within_third_of_bound"] = entry["spread"] < metric["bound"] / 3
        if traced:
            traced_median = statistics.median(run[name] for run in traced)
            entry["traced_median"] = traced_median
            entry["tracing_overhead"] = traced_median - entry["median"]
            entry["tracing_overhead_share"] = entry["tracing_overhead"] / entry["median"]
        out["end_to_end"][name] = entry
    for metric in bench["per_layer"]:
        if layers:
            out["per_layer_median"][metric["name"]] = statistics.median(
                run[metric["name"]] for run in layers)
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced-runs", type=int, default=3)
    parser.add_argument("--out", type=Path, default=HERE / "steadiness.json")
    args = parser.parse_args(argv)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["host"] = {"cpus": os.cpu_count(), "machine": platform.machine(),
                   "python": platform.python_version(), "numpy": numpy.__version__,
                   "run_seconds": bench["run_seconds"]}
    doc.setdefault("workloads", {})
    seeds = list(range(args.runs))
    for workload in args.workload or names:
        doc["workloads"][workload] = measure(bench, workload, seeds,
                                             seeds[:args.traced_runs])
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
        for name, entry in doc["workloads"][workload]["end_to_end"].items():
            print(f"{workload:<14} {name:<12} median {entry['median']:<12.6g} "
                  f"spread {entry['spread']:.3f} (bound {entry['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
