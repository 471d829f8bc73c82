"""Simulation harness: frame-error, give-up, and node-check statistics.

Trials are seeded as base_seed + trial_index, so any contiguous chunk of
trials can run on any worker and the merged counters are identical to a
serial run.  Each trial draws its message, generator matrix (when
resampling), and channel noise from the trial seed's streams
(`cort.streams`); `trial_instances` is the one place that does so.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .channel import BscChannel, transmit
from .decoder import DecodeOutcome, _check_word, ssdgu_decode
from .measure import CostModel, prefix_cost
from .streams import MESSAGE_STREAM, bits
from .tree_code import GeneratorMatrix, TreeProfile, encode, sample_generator

Z_95 = 1.959964  # two-sided 95% standard normal quantile


@dataclass(frozen=True)
class TrialConfig:
    """One simulation campaign: code profile, channel, measure, budget,
    trial count, seeding, and whether each trial draws a fresh generator."""

    profile: TreeProfile
    p: float
    gamma: float
    limit: int
    trials: int
    base_seed: int = 0
    resample_code: bool = True

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")

    @cached_property
    def cost_model(self) -> CostModel:
        """The campaign's cost model, built on first use and shared by its
        trial draws and decodes."""
        return CostModel(channel=BscChannel(self.p), gamma=self.gamma,
                         n=self.profile.n)


@dataclass(frozen=True)
class SimStats:
    """Tallied outcomes with 95% confidence half-widths (Wilson for rates,
    normal for the node-check mean).  fer counts give-ups and wrong
    messages together, so fer = giveup_rate + undetected_error_rate exactly.
    """

    trials: int
    giveup_count: int
    undetected_count: int
    fer: float
    giveup_rate: float
    undetected_error_rate: float
    fer_ci: float
    giveup_ci: float
    undetected_ci: float
    mean_nodes_checked: float
    mean_nodes_ci: float
    max_nodes_checked: int
    max_stack_size: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def wilson_halfwidth(successes: int, trials: int) -> float:
    """Half-width of the 95% Wilson score interval for a binomial rate."""
    if trials == 0:
        return 0.0
    z = Z_95
    phat = successes / trials
    denom = 1.0 + z * z / trials
    halfwidth = z * math.sqrt(phat * (1.0 - phat) / trials
                              + z * z / (4.0 * trials * trials)) / denom
    return halfwidth


def draw_message(k: int, seed: int) -> np.ndarray:
    """Uniform k-bit message from the trial's message stream."""
    return bits(seed, MESSAGE_STREAM, k)


def trial_instances(config: TrialConfig, start: int, stop: int):
    """Yield (message, generator, received word) for trials start..stop-1.

    Trial i is seeded by base_seed + i.  With resample_code off, every trial
    uses the one generator drawn from base_seed.
    """
    channel = config.cost_model.channel
    fixed_g = None
    if not config.resample_code:
        fixed_g = sample_generator(config.profile, config.base_seed)
    for i in range(start, stop):
        seed = config.base_seed + i
        m = draw_message(config.profile.k, seed)
        g = fixed_g if fixed_g is not None else sample_generator(config.profile, seed)
        yield m, g, transmit(channel, encode(g, m), seed)


def trial_spans(trials: int, workers: int) -> list:
    """The (start, stop) trial ranges `simulate` runs, one per worker
    process, so their count is the number of decodes running at once.
    There is a single range when trials < 64 or workers <= 1."""
    if workers <= 1 or trials < 64:
        return [(0, trials)]
    chunk = -(-trials // workers)
    return [(s, min(s + chunk, trials)) for s in range(0, trials, chunk)]


def _run_chunk(config: TrialConfig, start: int, stop: int):
    """Exact integer tallies for trials start..stop-1."""
    cm = config.cost_model
    giveups = wrong = 0
    nc_sum = 0
    nc_sq_sum = 0
    nc_max = 0
    stack_max = 0
    for m, g, y in trial_instances(config, start, stop):
        outcome = ssdgu_decode(g, y, cm, config.limit)
        if outcome.gave_up:
            giveups += 1
        elif outcome.result != tuple(m.tolist()):
            wrong += 1
        nc = outcome.nodes_checked
        nc_sum += nc
        nc_sq_sum += nc * nc
        nc_max = max(nc_max, nc)
        stack_max = max(stack_max, outcome.max_stack_size)
    return giveups, wrong, nc_sum, nc_sq_sum, nc_max, stack_max


def simulate(config: TrialConfig, workers: int = 1) -> SimStats:
    """Run the campaign and reduce exact counters; deterministic for any
    worker count."""
    trials = config.trials
    spans = trial_spans(trials, workers)
    if len(spans) == 1:
        parts = [_run_chunk(config, 0, trials)]
    else:
        # deferred: the pool pulls in multiprocessing, which no one-worker
        # run needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=len(spans)) as pool:
            parts = list(pool.map(_run_chunk, [config] * len(spans),
                                  [a for a, _ in spans], [b for _, b in spans]))
    giveups = sum(p[0] for p in parts)
    wrong = sum(p[1] for p in parts)
    nc_sum = sum(p[2] for p in parts)
    nc_sq_sum = sum(p[3] for p in parts)
    nc_max = max(p[4] for p in parts)
    stack_max = max(p[5] for p in parts)

    errors = giveups + wrong
    mean_nc = nc_sum / trials
    var_nc = max(0.0, nc_sq_sum / trials - mean_nc * mean_nc)
    mean_ci = Z_95 * math.sqrt(var_nc / trials)
    return SimStats(
        trials=trials,
        giveup_count=giveups,
        undetected_count=wrong,
        fer=errors / trials,
        giveup_rate=giveups / trials,
        undetected_error_rate=wrong / trials,
        fer_ci=wilson_halfwidth(errors, trials),
        giveup_ci=wilson_halfwidth(giveups, trials),
        undetected_ci=wilson_halfwidth(wrong, trials),
        mean_nodes_checked=mean_nc,
        mean_nodes_ci=mean_ci,
        max_nodes_checked=nc_max,
        max_stack_size=stack_max,
    )


def ml_oracle(g: GeneratorMatrix, y, cm: CostModel):
    """Exhaustive minimum-cost message over all 2^k candidates.

    Ties resolve to the lexicographically smallest message.  Feasible for
    k <= 20; evaluated in blocks to bound memory.
    """
    k = g.profile.k
    if k > 20:
        raise ValueError(f"brute force limited to k <= 20, got k={k}")
    y = _check_word(g, y, cm)
    weights = np.asarray(cm.per_symbol_cost, dtype=float)
    best_cost = math.inf
    best_index = -1
    block = 1 << 14
    shifts = np.arange(k - 1, -1, -1, dtype=np.uint32)
    for start in range(0, 1 << k, block):
        idx = np.arange(start, min(start + block, 1 << k), dtype=np.uint32)
        msgs = ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
        codewords = (msgs @ g.bits.T) % 2
        costs = (codewords != y[None, :]) @ weights
        i = int(np.argmin(costs))
        if costs[i] < best_cost:
            best_cost = float(costs[i])
            best_index = int(idx[i])
    message = tuple((best_index >> int(s)) & 1 for s in shifts)
    return message, best_cost


def ml_consistency_check(g: GeneratorMatrix, y, cm: CostModel,
                         outcome: DecodeOutcome) -> bool:
    """True iff the decoded message attains the `ml_oracle` minimum
    full-path cost over all 2^k messages.  Feasible for k <= 20."""
    if outcome.gave_up:
        raise ValueError("outcome is a give-up; nothing to check")
    _, best_cost = ml_oracle(g, y, cm)
    decoded_cost = prefix_cost(cm, encode(g, outcome.result), y)
    return math.isclose(decoded_cost, best_cost, rel_tol=1e-9, abs_tol=1e-12)
