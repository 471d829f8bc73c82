"""Run one workload of the cort benchmark and print its metrics.

    python3 perfbench/run.py --workload sim-32x8 --seed 0 --seconds 15 --trace 0

Run it from the root of a checkout.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end metrics named in BENCHMARK.json,
measured with tracing off; with --trace 1 they are its per-layer metrics, from
a run whose calls into cort are recorded as spans (the end-to-end figures of
that traced run are printed on an earlier line).  The lines before it say
what each figure means for the workload, with sample counts.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
OPERATION = {
    "design": "op = one sbp_optimize call (design_s = op_ms.p50 / 1000)",
    "trials": "op = one trial (trial_ms.* = op_ms.*, trials_per_s = ops_per_s)",
}
LOOP_DEADLINE_S = 120.0


def percentile(xs: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list (q to 0.001)."""
    rank = -(-round(q * 1000) * len(xs) // 100000)
    return xs[max(rank, 1) - 1]


def tail(xs: list, q: float):
    """(value, samples strictly beyond it) for percentile q of an ascending
    list; the maximum when q is 100."""
    value = percentile(xs, q)
    return value, len(xs) - bisect.bisect_right(xs, value)


def end_to_end(times: list, tail_q: float, setup_s: float, peak_rss_mb: float):
    """End-to-end metrics from per-operation times in seconds, with a note
    on the tail's percentile and sample count."""
    xs = sorted(times)
    value, beyond = tail(xs, tail_q)
    metrics = {
        "setup_s": setup_s,
        "op_ms.p50": 1e3 * percentile(xs, 50.0),
        "op_ms.tail": 1e3 * value,
        "ops_per_s": len(xs) / sum(xs),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, f"p{tail_q:g} of {len(xs)}, {beyond} beyond"


def measure_setup(workload: str, reference: float, calibration) -> tuple:
    """Median set-up time over fresh processes: from starting the
    interpreter to the set-up being done, rescaled to the reference host."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        before = calibration(1.0)
        start = perf_counter()
        with subprocess.Popen(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--setup-probe"], stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            elapsed = perf_counter() - start
            probe.stdout.read()
        if probe.returncode or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit {probe.returncode}")
        raw.append(elapsed)
        scaled.append(elapsed * reference / ((before + calibration(1.0)) / 2))
    return statistics.median(scaled), statistics.median(raw)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench import harness
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in harness.SPEC["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        harness.setup_only(args.workload)
        print("ready", flush=True)
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seed = harness.SPEC["default_seed"] if args.seed is None else args.seed
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    reference = harness.SPEC["calibration_reference_s"]
    setup_s, setup_raw = measure_setup(args.workload, reference, harness.calibration)

    deadline = perf_counter() + LOOP_DEADLINE_S
    if args.trace:
        from perfbench import tracing
        recorder = tracing.Recorder()
        with tracing.traced(recorder):
            run = harness.run_workload(args.workload, seed, seconds, deadline)
    else:
        run = harness.run_workload(args.workload, seed, seconds, deadline)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    spec = harness.SPEC["workloads"][args.workload]
    times = run.timings.normalized(reference)
    e2e, tail_note = end_to_end(times, spec["tail_percentile"], setup_s, peak_rss_mb)
    raw, _ = end_to_end(run.timings.raw, spec["tail_percentile"], setup_raw, peak_rss_mb)
    op = OPERATION[spec["kind"]]
    print(f"workload {args.workload}  seed {seed}  trace {args.trace}  {op}")
    print(f"  calibration {statistics.median(run.timings.calib) * 1e3:.2f} ms,"
          f" reference {reference * 1e3:.2f} ms: times rescaled, raw in brackets")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        note = f"  ({tail_note})" if name == "op_ms.tail" else ""
        print(f"  {name:<12} = {e2e[name]:12.6g} {metric['unit']:<5}"
              f" [{raw[name]:.6g}]{note}")
    print(f"  error_rate   = {len(run.failures)}/{len(times)}")
    print("  " + "  ".join(f"{k}={v:.6g}" for k, v in run.summary.items()))
    for i, message in run.failures[:5]:
        print(f"failure at operation {i}: {message}", file=sys.stderr)

    if args.trace:
        print("traced end-to-end: " + json.dumps(e2e))
        layers = tracing.per_layer(recorder, len(times), run.moment_tables_s)
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    print(json.dumps({"correct": not run.failures, "attempted": len(times),
                      "failed": len(run.failures), "metrics": metrics}))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
