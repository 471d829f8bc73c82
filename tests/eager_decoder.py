"""Reference give-up stack decoder that pushes every checked node onto the heap.

This is the eager form that `cort.decoder.ssdgu_decode` replaced: each
expansion turns every child into a (cost, -depth, prefix tuple) heap entry.
It is kept only so that tests can require the sorted-successor decoder to
return equal outcomes and equal pop traces.
"""

from __future__ import annotations

import heapq

import numpy as np

from cort.decoder import DecodeOutcome


class _StageTables:
    """Per-stage expansion machinery for one generator matrix.

    Stage h (1-based) nodes have prefixes of length level[h]; expanding a
    stage-h node appends every suffix of length level[h+1]-level[h] and adds
    the cost of output segment (r_[h], r_[h+1]].
    """

    def __init__(self, g, cm, y):
        prof = g.profile
        r = prof.ends
        levels = prof.levels
        self.levels = levels
        self.parent_cols = []
        self.suffix_outputs = []
        self.suffixes = []
        self.weights = []
        self.y_segments = []
        for h in range(prof.num_stages):
            seg = slice(r[h], r[h + 1])
            width = levels[h + 1] - levels[h]
            suffixes = np.array(
                [[(i >> (width - 1 - b)) & 1 for b in range(width)]
                 for i in range(2 ** width)],
                dtype=np.uint8,
            )
            self.parent_cols.append(g.bits[seg, : levels[h]])
            self.suffix_outputs.append((suffixes @ g.bits[seg, levels[h]: levels[h + 1]].T) % 2)
            self.suffixes.append([tuple(int(b) for b in row) for row in suffixes])
            self.weights.append(np.asarray(cm.per_symbol_cost[seg], dtype=float))
            self.y_segments.append(np.asarray(y[seg], dtype=np.uint8))

    def expand(self, prefix: tuple, stage: int, cost: float):
        """Children of a stage-`stage` node as (prefix, cost) pairs."""
        base = (self.parent_cols[stage] @ np.asarray(prefix, dtype=np.uint8)) % 2
        xs = self.suffix_outputs[stage] ^ base[None, :]
        costs = cost + (xs != self.y_segments[stage][None, :]) @ self.weights[stage]
        return [(prefix + suf, float(c))
                for suf, c in zip(self.suffixes[stage], costs)]


def eager_decode(g, y, cm, limit: int, trace: list | None = None) -> DecodeOutcome:
    """The give-up stack decoder with one heap entry per checked node."""
    prof = g.profile
    y = np.asarray(y, dtype=np.uint8)
    if len(y) != prof.n:
        raise ValueError(f"received word has length {len(y)}, expected {prof.n}")
    c0 = prof.branch_fanout[0]
    if limit < c0:
        raise ValueError(
            f"limit {limit} cannot cover the root expansion (c_0 = {c0})")

    tables = _StageTables(g, cm, y)
    heap = []
    for prefix, cost in tables.expand((), 0, 0.0):
        heapq.heappush(heap, (cost, -len(prefix), prefix))
    nodes_checked = c0
    max_stack = len(heap)

    iteration = 0
    while nodes_checked <= limit:
        cost, neg_len, prefix = heapq.heappop(heap)
        stage = tables.levels.index(-neg_len)
        iteration += 1
        if trace is not None:
            trace.append({"iteration": iteration, "prefix": prefix,
                          "stage": stage, "cost": cost,
                          "nodes_checked": nodes_checked})
        if -neg_len == prof.k:
            return DecodeOutcome(result=prefix, nodes_checked=nodes_checked,
                                 max_stack_size=max_stack)
        for child_prefix, child_cost in tables.expand(prefix, stage, cost):
            heapq.heappush(heap, (child_cost, -len(child_prefix), child_prefix))
        nodes_checked += prof.branch_fanout[stage]
        max_stack = max(max_stack, len(heap))

    return DecodeOutcome(result=None, nodes_checked=nodes_checked,
                         max_stack_size=max_stack)
