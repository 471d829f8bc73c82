"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench import harness, tracing  # noqa: E402
from perfbench.run import tail  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
cort = harness.cort


def test_tail_is_the_nearest_rank_percentile_with_its_count_beyond():
    xs = [float(v) for v in range(1, 1001)]
    assert tail(xs, 99.0) == (990.0, 10)
    assert tail(xs, 99.9) == (999.0, 1)
    assert tail(xs, 100) == (1000.0, 0)
    assert tail([float(v) for v in range(1, 27)], 90) == (24.0, 2)


def test_tail_counts_only_samples_strictly_beyond():
    xs = [float(v) for v in range(1, 981)] + [5000.0] * 20
    assert tail(xs, 99.0) == (5000.0, 0)


@pytest.mark.parametrize("name, ops", [("sim-32x8", 30000), ("deep-128x64", 1000)])
def test_tail_percentile_keeps_ten_beyond_at_half_a_typical_run(name, ops):
    q = harness.SPEC["workloads"][name]["tail_percentile"]
    assert tail([float(v) for v in range(ops // 2)], q)[1] >= 10


def _flip_last_bit(decode):
    def tampered(g, y, cm, limit, trace=None):
        outcome = decode(g, y, cm, limit, trace=trace)
        if outcome.gave_up:
            return outcome
        result = outcome.result[:-1] + (1 - outcome.result[-1],)
        return cort.DecodeOutcome(result, outcome.nodes_checked,
                                  outcome.max_stack_size)
    return tampered


def test_untampered_trials_pass_every_check():
    run = harness.run_workload("sim-32x8", 0, 0.0, perf_counter() + 60)
    assert run.failures == []
    assert len(run.timings.raw) == harness.SPEC["workloads"]["sim-32x8"]["pin"]["trials"]


def test_tampered_decode_result_raises_error_rate(monkeypatch):
    monkeypatch.setattr(cort.montecarlo, "ssdgu_decode",
                        _flip_last_bit(cort.montecarlo.ssdgu_decode))
    run = harness.run_workload("sim-32x8", 0, 0.0, perf_counter() + 60)
    assert len(run.failures) > len(run.timings.raw) // 2
    assert any("cost" in message for _, message in run.failures)


def test_pop_stamps_leave_the_decode_unchanged():
    spec = harness.SPEC["workloads"]["deep-128x64"]
    profile, cm, _, _ = harness.setup_trials(spec)
    g = cort.sample_generator(profile, 5)
    m = cort.montecarlo.draw_message(profile.k, 5)
    y = cort.transmit(cm.channel, cort.encode(g, m), 5)
    stamps = tracing.PopStamps()
    assert cort.ssdgu_decode(g, y, cm, spec["limit"], trace=stamps) \
        == cort.ssdgu_decode(g, y, cm, spec["limit"])
    assert stamps.pops >= 1 and stamps.first is not None and len(stamps) == 0


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = _run(ROOT, "--workload", "sim-32x8", "--seed", "3", "--seconds", "0.2",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "sim-32x8", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
