"""Spans for the traced run, recorded from outside the program.

The traced run rebinds the public names that `cort.sbp` and `cort.montecarlo`
call through to recorders defined here, and restores them afterwards.  Each
call becomes a span (name, start, end, parent) kept in memory; a layer's self
time is its spans' duration minus the part their child spans cover.  The
decoder is split into root expansion and the pop loop by handing
`ssdgu_decode` a `trace=` list that only stamps the time of its first pop.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from .harness import montecarlo, sbp

# (module, name it calls through, span name)
REBOUND = (
    (sbp, "sbp_optimize", "sbp.sbp_optimize"),
    (sbp, "candidate_sweep", "sbp.candidate_sweep"),
    (sbp, "d_e_g", "bounds.d_e_g"),
    (sbp, "profile_from_s", "tree_code.profile_from_s"),
    (montecarlo, "simulate", "montecarlo.simulate"),
    (montecarlo, "draw_message", "montecarlo.draw_message"),
    (montecarlo, "sample_generator", "tree_code.sample_generator"),
    (montecarlo, "encode", "tree_code.encode"),
    (montecarlo, "transmit", "channel.transmit"),
    (montecarlo, "ssdgu_decode", "decoder.ssdgu_decode"),
)


class PopStamps(list):
    """A decoder trace that keeps only the first pop's time and the pop count."""

    def __init__(self):
        super().__init__()
        self.first = None
        self.pops = 0

    def append(self, record):
        if self.first is None:
            self.first = perf_counter()
        self.pops += 1


class Recorder:
    """Spans as [name, start, end, parent index], plus one record per decode:
    (span index, first pop time, pops, node checks, gave up, max stack)."""

    def __init__(self):
        self.spans = []
        self.decodes = []
        self._open = []

    def wrap(self, name, fn):
        if name == "decoder.ssdgu_decode":
            fn = self._stamped(fn)
        spans, open_ = self.spans, self._open

        def recorded(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), None, open_[-1] if open_ else -1])
            open_.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][2] = perf_counter()

        return recorded

    def _stamped(self, decode):
        def stamped(g, y, cm, limit, trace=None):
            stamps = PopStamps()
            outcome = decode(g, y, cm, limit, trace=stamps)
            self.decodes.append((self._open[-1], stamps.first, stamps.pops,
                                 outcome.nodes_checked, outcome.gave_up,
                                 outcome.max_stack_size))
            return outcome

        return stamped


@contextmanager
def traced(recorder: Recorder):
    """Route the rebound names through `recorder` for the duration."""
    saved = []
    try:
        for module, attr, name in REBOUND:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, recorder.wrap(name, fn))
        yield recorder
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def per_layer(recorder: Recorder, ops: int, moment_tables_s: float) -> dict:
    """Per-layer metrics; counts and times are per operation (a trial or an
    `sbp_optimize` call), decoder figures per decode."""
    spans = recorder.spans
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_time = defaultdict(float)
    candidates = 0
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        busy[name] += end - start
        self_time[name] += end - start - covered[i]
        if name == "bounds.d_e_g" and parent >= 0 \
                and spans[parent][0] == "sbp.candidate_sweep":
            candidates += 1

    root = loop = 0.0
    pops = checks = giveups = max_stack = 0
    for index, first, n_pops, nodes, gave_up, stack in recorder.decodes:
        _, start, end, _ = spans[index]
        first = end if first is None else first
        root += first - start
        loop += end - first
        pops += n_pops
        checks += nodes
        giveups += gave_up
        max_stack = max(max_stack, stack)
    decodes = max(len(recorder.decodes), 1)
    ops = max(ops, 1)
    decode_s = busy["decoder.ssdgu_decode"]
    return {
        "decoder.root_s": root / decodes,
        "decoder.loop_s": loop / decodes,
        "decoder.pops": pops / decodes,
        "decoder.checks_per_s": checks / decode_s if decode_s else 0.0,
        "decoder.node_checks": checks / decodes,
        "decoder.pops_per_check": pops / checks if checks else 0.0,
        "decoder.giveups": giveups / decodes,
        "decoder.max_stack": max_stack,
        "tree_code.sample_generator.busy_s": busy["tree_code.sample_generator"] / ops,
        "tree_code.encode.busy_s": busy["tree_code.encode"] / ops,
        "channel.transmit.busy_s": busy["channel.transmit"] / ops,
        "montecarlo.draw_message.busy_s": busy["montecarlo.draw_message"] / ops,
        "montecarlo.simulate.self_s": self_time["montecarlo.simulate"] / ops,
        "bounds.d_e_g.calls": calls["bounds.d_e_g"] / ops,
        "bounds.d_e_g.busy_s": busy["bounds.d_e_g"] / ops,
        "tree_code.profile_from_s.calls": calls["tree_code.profile_from_s"] / ops,
        "tree_code.profile_from_s.busy_s": busy["tree_code.profile_from_s"] / ops,
        "sbp.candidates": candidates / ops,
        "sbp.self_s": (self_time["sbp.sbp_optimize"]
                       + self_time["sbp.candidate_sweep"]) / ops,
        "bounds.moment_tables_s": moment_tables_s,
    }
