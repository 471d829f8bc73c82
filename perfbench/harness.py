"""Workloads of the cort benchmark: set-up, the timed loop and output checks.

Every layer is driven from outside through public functions of `cort`; nothing
under `src/` is changed.  One run executes one workload in this process,
single-threaded (`simulate(..., workers=1)`), so peak RSS belongs to it alone.

Wall time on a shared host drifts by tens of percent over minutes, and CPU
time drifts with it.  The timed loop therefore runs a fixed pure-Python
calibration loop after each quarter second of timed work (or each longer
operation), and rescales each operation's time by the reference calibration
time over the mean of the calibrations taken just before and after it.
Reported times read as seconds on a host that runs the calibration loop in
`calibration_reference_s`; raw times are kept too.
"""

from __future__ import annotations

import gc
import json
import math
import random
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads(Path(__file__).with_name("spec.json").read_text())

RECALIBRATE_S = 0.25
CALIBRATION_SHARE = 0.04


def import_cort():
    """Import `cort` from this checkout's `src/`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "cort" / "__init__.py").is_file():
        raise ImportError(f"no cort package under {src}")
    sys.path.insert(0, str(src))
    import cort
    if Path(cort.__file__).resolve().parent != (src / "cort").resolve():
        raise ImportError(f"cort imported from {cort.__file__}, not {src}")
    return cort


cort = import_cort()
from cort import montecarlo, sbp  # noqa: E402
from cort.montecarlo import draw_message, ml_oracle  # noqa: E402


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop of arithmetic, dict stores
    and tuple allocation; tracks the host's speed.  The cyclic collector is
    off while it runs, so its time does not depend on what the program or
    the tracing keeps alive."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc = 0
        table = {}
        items = []
        for i in range(40000):
            acc += (i * i) % 7
            table[i & 255] = acc
            items.append((acc, i))
        items.sort()
        return perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def calibration(segment_s: float) -> float:
    """Median of enough calibrate() calls to take about CALIBRATION_SHARE of
    a segment of segment_s seconds, so that long operations get as precise
    a reading of host speed as short ones and one disturbed call is outvoted."""
    calls = max(1, round(CALIBRATION_SHARE * segment_s / SPEC["calibration_reference_s"]))
    return statistics.median(calibrate() for _ in range(calls))


@dataclass
class Timings:
    """Raw operation times, the calibration times taken between segments of
    operations, and the segment each operation ran in."""

    raw: list = field(default_factory=list)
    segment: list = field(default_factory=list)
    calib: list = field(default_factory=list)

    def normalized(self, reference: float) -> list:
        """Operation times rescaled by reference / the mean of the
        calibrations taken just before and just after their segment."""
        scale = [2 * reference / (a + b) for a, b in zip(self.calib, self.calib[1:])]
        return [t * scale[j] for t, j in zip(self.raw, self.segment)]


class Capture:
    """Keeps the last decode `simulate` made, so it can be checked untimed."""

    def __init__(self, decode):
        self.decode = decode
        self.last = None

    def __call__(self, g, y, cm, limit, trace=None):
        outcome = self.decode(g, y, cm, limit, trace=trace)
        self.last = (g, y, outcome)
        return outcome


@dataclass
class Run:
    """What one run measured and checked."""

    timings: Timings
    failures: list
    moment_tables_s: float
    summary: dict


def timed_loop(op, check, seconds: float, min_ops: int, multiple: int,
               deadline: float):
    """Run op(i) for i = 0, 1, ... until `seconds` of timed work, at least
    `min_ops` operations and a whole multiple of `multiple` are done.

    Only op(i) is timed; check(i, result) runs outside the timed region and
    returns a failure message or None.  An operation or check that raises
    counts as failed.  Returns (timings, failures) with failures as (i, message).
    """
    timings = Timings(calib=[calibration(RECALIBRATE_S)])
    failures = []
    busy = since_calibration = 0.0
    i = 0
    while busy < seconds or i < min_ops or i % multiple:
        if perf_counter() > deadline:
            failures.append((i, "deadline reached before the run completed"))
            break
        elapsed = None
        start = perf_counter()
        try:
            result = op(i)
            elapsed = perf_counter() - start
            message = check(i, result)
        except Exception:
            if elapsed is None:
                elapsed = perf_counter() - start
            message = traceback.format_exc(limit=3)
        if message:
            failures.append((i, message))
        timings.raw.append(elapsed)
        timings.segment.append(len(timings.calib) - 1)
        busy += elapsed
        since_calibration += elapsed
        i += 1
        if since_calibration >= RECALIBRATE_S:
            timings.calib.append(calibration(since_calibration))
            since_calibration = 0.0
    if since_calibration:
        timings.calib.append(calibration(since_calibration))
    return timings, failures


# --- design ---------------------------------------------------------------

def setup_design(spec):
    """Cost models and moment tables for every reference configuration."""
    cms, tables = [], []
    tables_s = 0.0
    for cfg in spec["configs"]:
        cms.append(cort.CostModel(channel=cort.BscChannel(cfg["p"]),
                                  gamma=cfg["gamma"], n=spec["n"]))
        start = perf_counter()
        tables.append(cort.MomentTables(spec["n"], cfg["p"], cfg["gamma"]))
        tables_s += perf_counter() - start
    return cms, tables, tables_s


def run_design(spec, seed, seconds, deadline):
    """Optimize the (n, k) profile for the reference configurations, in a
    seeded order, in whole rounds of one call per configuration."""
    cms, tables, tables_s = setup_design(spec)
    configs = spec["configs"]
    rng = random.Random(seed)
    order = []

    def op(i):
        while len(order) <= i:
            order.extend(rng.sample(range(len(configs)), len(configs)))
        c = order[i]
        return c, sbp.sbp_optimize(spec["n"], spec["k"], cms[c], spec["limit"],
                                   tables[c])

    def check(i, result):
        c, trace = result
        pin = configs[c]["pin"]
        final = cort.d_e_g(trace.final_profile, cms[c], spec["limit"], tables[c])
        last = trace.steps[-1]
        if last.d_e_g != final.d_e_g:
            return f"last step d_e_g {last.d_e_g!r} != d_e_g(final) {final.d_e_g!r}"
        positions = [st.position for st in trace.steps]
        if positions != pin["positions"]:
            return f"config {c}: SBP positions differ from the pinned ones"
        for key in ("d_e_g", "d_cle_g", "d_cfe_g"):
            if not math.isclose(getattr(last, key), pin[key], rel_tol=1e-9):
                return f"config {c}: final {key} {getattr(last, key)!r} != pinned {pin[key]!r}"
        return None

    timings, failures = timed_loop(op, check, seconds, len(configs),
                                   len(configs), deadline)
    return Run(timings, failures, tables_s, {"calls": len(timings.raw)})


# --- trials ---------------------------------------------------------------

def setup_trials(spec):
    """Profile, cost model, moment tables and the profile's error bound."""
    profile = cort.profile_from_s(spec["n"], spec["k"], spec["s"])
    cm = cort.CostModel(channel=cort.BscChannel(spec["p"]),
                        gamma=spec["gamma"], n=spec["n"])
    start = perf_counter()
    tables = cort.MomentTables(spec["n"], spec["p"], spec["gamma"])
    tables_s = perf_counter() - start
    bound = cort.d_e_g(profile, cm, spec["limit"], tables)
    return profile, cm, bound, tables_s


def trial_seed(seed: int, i: int) -> int:
    return ((seed << 32) + i) & ((1 << 64) - 1)


def run_trials(spec, seed, seconds, deadline):
    """Simulate one trial per `simulate` call (message, generator, channel,
    decode), checking every decode outside the timed region."""
    profile, cm, bound, tables_s = setup_trials(spec)
    capture = Capture(montecarlo.ssdgu_decode)
    montecarlo.ssdgu_decode = capture
    max_checks = spec["limit"] + max(profile.branch_fanout)
    pin = spec["pin"]
    counts = {"giveups": 0, "undetected": 0, "node_checks": 0}
    pinned = dict(counts)

    def op(i):
        config = cort.TrialConfig(profile=profile, p=spec["p"],
                                  gamma=spec["gamma"], limit=spec["limit"],
                                  trials=1, base_seed=trial_seed(seed, i),
                                  resample_code=True)
        return montecarlo.simulate(config, workers=1)

    def check(i, stats):
        g, y, outcome = capture.last
        capture.last = None
        message = tuple(int(b) for b in draw_message(profile.k, trial_seed(seed, i)))
        wrong = not outcome.gave_up and outcome.result != message
        counts["giveups"] += outcome.gave_up
        counts["undetected"] += wrong
        counts["node_checks"] += outcome.nodes_checked
        if i + 1 == pin["trials"]:
            pinned.update(counts)
        if (stats.giveup_count, stats.undetected_count, stats.max_nodes_checked) \
                != (int(outcome.gave_up), int(wrong), outcome.nodes_checked):
            return "simulate's counters disagree with the decode they came from"
        if outcome.nodes_checked > max_checks:
            return f"{outcome.nodes_checked} node checks exceed limit + max fanout"
        if outcome.gave_up:
            return None
        decoded = cort.prefix_cost(cm, cort.encode(g, outcome.result), y)
        sent = cort.prefix_cost(cm, cort.encode(g, message), y)
        if decoded > sent * (1 + 1e-9) + 1e-12:
            return f"decoded cost {decoded} exceeds the transmitted cost {sent}"
        if spec["oracle"]:
            _, best = ml_oracle(g, y, cm)
            if not math.isclose(decoded, best, rel_tol=1e-9, abs_tol=1e-12):
                return f"decoded cost {decoded} is not the minimum {best}"
        return None

    try:
        timings, failures = timed_loop(op, check, seconds, pin["trials"], 1,
                                       deadline)
    finally:
        montecarlo.ssdgu_decode = capture.decode
    if seed == SPEC["default_seed"] and not failures:
        expected = {key: pin[key] for key in counts}
        if pinned != expected:
            failures.append((pin["trials"], f"first {pin['trials']} trials of seed "
                             f"{seed}: counters {pinned} != pinned {expected}"))
    n = len(timings.raw)
    summary = {"trials": n, "giveup_rate": counts["giveups"] / n,
               "undetected_rate": counts["undetected"] / n,
               "mean_node_checks": counts["node_checks"] / n,
               "d_e_g_bound": bound.d_e_g}
    return Run(timings, failures, tables_s, summary)


def run_workload(name, seed, seconds, deadline):
    spec = SPEC["workloads"][name]
    runner = run_design if spec["kind"] == "design" else run_trials
    return runner(spec, seed, seconds, deadline)


def setup_only(name):
    """The set-up a run does before its first timed operation."""
    spec = SPEC["workloads"][name]
    if spec["kind"] == "design":
        setup_design(spec)
    else:
        setup_trials(spec)
