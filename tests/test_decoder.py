import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from cort import (BscChannel, CostModel, GeneratorMatrix, encode,
                  ml_consistency_check, prefix_cost, profile_from_arrivals,
                  profile_from_s, pure_random_profile, sample_generator,
                  ssdgu_decode, transmit)
from cort import decoder
from cort.montecarlo import draw_message
from eager_decoder import eager_decode


def model(p=0.03, gamma=1.0, n=4):
    return CostModel(channel=BscChannel(p), gamma=gamma, n=n)


def hand_generator():
    """n=4, k=2, s=[1,1,2,2] with columns (1,1,0,1) and (0,0,1,1)."""
    prof = profile_from_s(4, 2, [1, 1, 2, 2])
    bits = np.array([[1, 0], [1, 0], [0, 1], [1, 1]], dtype=np.uint8)
    return GeneratorMatrix(profile=prof, bits=bits, seed=-1)


class TestNoiseless:
    def test_returns_transmitted_message(self):
        prof = profile_from_arrivals(12, [1, 3, 5, 7, 9])
        g = sample_generator(prof, 5)
        cm = model(n=12)
        m = (1, 0, 1, 1, 0)
        out = ssdgu_decode(g, encode(g, m), cm, limit=4096)
        assert out.result == m
        assert not out.gave_up

    def test_true_path_pops_at_zero_cost(self):
        # seed 1 gives 16 distinct codewords, so the zero-cost path is unique
        prof = profile_from_arrivals(8, [1, 3, 5, 7])
        g = sample_generator(prof, 1)
        cm = model(n=8)
        m = (1, 1, 0, 1)
        trace = []
        out = ssdgu_decode(g, encode(g, m), cm, limit=4096, trace=trace)
        assert out.result == m
        on_path = [r for r in trace if m[:len(r["prefix"])] == r["prefix"]]
        assert all(r["cost"] == 0.0 for r in on_path)


class TestHandTrace:
    def test_single_flip_walkthrough(self):
        g = hand_generator()
        cm = model(p=0.03, gamma=1.0, n=4)
        delta = cm.channel.llr_scale
        y = np.array([0, 1, 1, 0], dtype=np.uint8)  # x(m=(1,1)) with t=1 flipped
        trace = []
        out = ssdgu_decode(g, y, cm, limit=64, trace=trace)
        assert out.result == (1, 1)
        assert out.nodes_checked == 6
        pops = [r["prefix"] for r in trace]
        assert pops == [(0,), (1,), (1, 1)]
        costs = [r["cost"] for r in trace]
        assert np.allclose(costs, [delta, delta, delta], rtol=1e-12)
        assert out.max_stack_size == 4

    def test_budget_trip_gives_up(self):
        # L = c_0: one non-terminal pop pushes the counter past the budget
        g = hand_generator()
        cm = model(n=4)
        y = np.array([0, 1, 1, 0], dtype=np.uint8)
        out = ssdgu_decode(g, y, cm, limit=2)
        assert out.gave_up
        assert out.nodes_checked == 4

    def test_limit_below_root_fanout_rejected(self):
        g = hand_generator()
        with pytest.raises(ValueError, match="c_0"):
            ssdgu_decode(g, np.zeros(4, dtype=np.uint8), model(n=4), limit=1)

    def test_wrong_length_rejected(self):
        g = hand_generator()
        with pytest.raises(ValueError, match="length"):
            ssdgu_decode(g, np.zeros(3, dtype=np.uint8), model(n=4), limit=8)


class TestOutcomeInvariants:
    @pytest.mark.parametrize("gamma", [1.0, 0.9992])
    def test_bounds_on_node_checks(self, gamma):
        prof = profile_from_arrivals(16, [1, 3, 5, 7, 9, 11])
        cm = model(p=0.08, gamma=gamma, n=16)
        limit = 256
        for seed in range(50):
            g = sample_generator(prof, seed)
            m = draw_message(6, seed)
            y = transmit(cm.channel, encode(g, m), seed)
            out = ssdgu_decode(g, y, cm, limit)
            assert out.nodes_checked >= prof.branch_fanout[0]
            if not out.gave_up:
                assert out.nodes_checked <= limit
            else:
                assert out.nodes_checked <= limit + max(prof.branch_fanout)

    def test_popped_costs_non_decreasing(self):
        prof = profile_from_arrivals(16, [1, 3, 5, 7, 9, 11])
        cm = model(p=0.1, gamma=1.0, n=16)
        for seed in range(30):
            g = sample_generator(prof, seed)
            m = draw_message(6, seed + 1000)
            y = transmit(cm.channel, encode(g, m), seed)
            trace = []
            ssdgu_decode(g, y, cm, 512, trace=trace)
            costs = [r["cost"] for r in trace]
            assert all(a <= b + 1e-12 for a, b in zip(costs, costs[1:]))

    def test_node_check_bound_by_stage_costs(self):
        # counter never exceeds c_0 + sum_h c_h |{stage-h nodes at most as
        # costly as the transmitted message}|
        prof = profile_from_arrivals(12, [1, 3, 5, 7, 9, 11])
        cm = model(p=0.1, gamma=1.0, n=12)
        r = prof.ends
        levels = prof.levels
        for seed in range(30):
            g = sample_generator(prof, seed)
            m = draw_message(6, seed)
            y = transmit(cm.channel, encode(g, m), seed)
            out = ssdgu_decode(g, y, cm, 4096)
            true_cost = prefix_cost(cm, encode(g, m), y)
            bound = prof.branch_fanout[0]
            for h in range(1, prof.num_stages):
                count = 0
                for idx in range(2 ** levels[h]):
                    prefix = [(idx >> (levels[h] - 1 - b)) & 1
                              for b in range(levels[h])]
                    seg = (g.bits[:r[h], :levels[h]] @ np.asarray(prefix)) % 2
                    if prefix_cost(cm, seg, y) <= true_cost + 1e-12:
                        count += 1
                bound += prof.branch_fanout[h] * count
            assert out.nodes_checked <= bound

    def test_stack_covers_all_terminals(self):
        # replaying the trace, the live stack entries stay prefix-free and
        # their subtree sizes always sum to 2^k
        prof = profile_from_arrivals(8, [1, 3, 5, 7])
        cm = model(p=0.15, gamma=1.0, n=8)
        k = prof.k
        for seed in range(10):
            g = sample_generator(prof, seed)
            m = draw_message(k, seed)
            y = transmit(cm.channel, encode(g, m), seed)
            trace = []
            out = ssdgu_decode(g, y, cm, 4096, trace=trace)
            stack = {(b,) for b in (0, 1)} if prof.levels[1] == 1 else {
                tuple((i >> (prof.levels[1] - 1 - b)) & 1
                      for b in range(prof.levels[1]))
                for i in range(prof.branch_fanout[0])}
            levels = prof.levels
            for rec in trace:
                node = rec["prefix"]
                for a in stack:
                    for b in stack:
                        if a != b:
                            assert a[:len(b)] != b and b[:len(a)] != a
                assert sum(2 ** (k - len(e)) for e in stack) == 2 ** k
                stack.remove(node)
                if len(node) == k:
                    break
                width = levels[levels.index(len(node)) + 1] - len(node)
                for i in range(2 ** width):
                    suffix = tuple((i >> (width - 1 - b)) & 1 for b in range(width))
                    stack.add(node + suffix)


class TestMatchesEagerReference:
    """The sorted-successor decoder returns the outcome and pop trace of the
    eager decoder that pushes every checked node, costs equal to the bit."""

    # (32, 8) SBP profile for p = 0.05, gamma = 1, L = 4096: fanouts 64, 4
    SBP_32X8 = profile_from_s(32, 8, [6] * 14 + [8] * 18)
    STAIRCASE = profile_from_arrivals(32, [1 + (3 * j) // 2 for j in range(16)])
    WIDE_ROOT = profile_from_arrivals(
        64, [1] * 12 + [14 + 3 * (j // 2) for j in range(20)])
    # the perfbench deep-128x64 profile: fanout 2 at all 64 stages
    DEEP = profile_from_arrivals(128, [1 + (3 * j) // 2 for j in range(64)])

    @pytest.mark.parametrize("gamma", [1.0, 0.9992])
    @pytest.mark.parametrize("prof,p,limit,seeds", [
        (SBP_32X8, 0.1, 160, 400),
        (STAIRCASE, 0.06, 400, 200),
        (WIDE_ROOT, 0.05, 5000, 25),
        (DEEP, 0.02, 5000, 30),
    ], ids=["sbp-32x8", "staircase", "wide-root", "deep-128x64"])
    def test_outcomes_and_traces_identical(self, prof, p, limit, seeds, gamma):
        cm = model(p=p, gamma=gamma, n=prof.n)
        giveups = 0
        for seed in range(seeds):
            g = sample_generator(prof, seed)
            y = transmit(cm.channel, encode(g, draw_message(prof.k, seed)), seed)
            expected_trace, trace = [], []
            expected = eager_decode(g, y, cm, limit, trace=expected_trace)
            assert ssdgu_decode(g, y, cm, limit, trace=trace) == expected
            assert trace == expected_trace
            giveups += expected.gave_up
        assert 0 < giveups < seeds

    # s(1) = 13: the 8192 root children lie above the lazy-selection
    # threshold, so they are costed in two chunks and ordered a slice at a
    # time; the 13-symbol root segment makes some decodes pop past the
    # first slice
    LAZY_ROOT = profile_from_arrivals(
        40, [1] * 13 + [14 + 2 * j for j in range(11)])

    @pytest.mark.parametrize("gamma", [1.0, 0.9992])
    def test_lazy_root_block(self, gamma, monkeypatch):
        prof = self.LAZY_ROOT
        assert prof.branch_fanout[0] == 2 * decoder._CHUNK_ROWS
        slices = []
        next_slice = decoder._next_slice

        def recorded(costs, above, size):
            order, rest = next_slice(costs, above, size)
            slices.append(len(order))
            return order, rest

        monkeypatch.setattr(decoder, "_next_slice", recorded)
        cm = model(p=0.1, gamma=gamma, n=prof.n)
        seeds, limit = 20, 16000
        giveups = past_first_slice = 0
        for seed in range(seeds):
            g = sample_generator(prof, seed)
            y = transmit(cm.channel, encode(g, draw_message(prof.k, seed)), seed)
            expected_trace, trace = [], []
            expected = eager_decode(g, y, cm, limit, trace=expected_trace)
            slices.clear()
            assert ssdgu_decode(g, y, cm, limit, trace=trace) == expected
            assert trace == expected_trace
            root_pops = sum(record["stage"] == 1 for record in trace)
            past_first_slice += root_pops > slices[0]
            giveups += expected.gave_up
        assert 0 < giveups < seeds
        assert past_first_slice > 0


    # stage 1 has 32 children on a 2-symbol segment, so they share at most
    # four costs and at p = 0.2 many decodes pop every child of such a
    # numpy-ordered block before a terminal
    DRAINED = profile_from_s(24, 8, [1] + [6] * 2 + [8] * 21)

    @pytest.mark.parametrize("gamma", [1.0, 0.9992])
    def test_drained_wide_block(self, gamma):
        prof = self.DRAINED
        assert prof.branch_fanout[1] == 4 * decoder._NARROW
        cm = model(p=0.2, gamma=gamma, n=prof.n)
        seeds, limit = 30, 1000
        drained = 0
        for seed in range(seeds):
            g = sample_generator(prof, seed)
            y = transmit(cm.channel, encode(g, draw_message(prof.k, seed)), seed)
            expected_trace, trace = [], []
            expected = eager_decode(g, y, cm, limit, trace=expected_trace)
            assert ssdgu_decode(g, y, cm, limit, trace=trace) == expected
            assert trace == expected_trace
            popped = Counter(record["prefix"][:1] for record in trace
                             if record["stage"] == 2)
            drained += prof.branch_fanout[1] in popped.values()
        assert drained > 0

    # multi-symbol segments on every narrow stage; stage 5 has exactly
    # decoder._NARROW = 8 children, each pushed onto the heap, and stage 7
    # twice as many, the narrowest block costed and ordered by numpy
    NARROW = profile_from_arrivals(
        40, [1, 1, 4, 7, 7, 10] + [13] * 3 + [17] + [20] * 4
        + [24, 27, 27, 30, 34, 37])

    def test_narrow_blocks(self):
        prof = self.NARROW
        assert decoder._NARROW in prof.branch_fanout
        assert 2 * decoder._NARROW in prof.branch_fanout
        cm = model(p=0.05, gamma=0.9992, n=prof.n)
        seeds, limit = 150, 600
        giveups = 0
        for seed in range(seeds):
            g = sample_generator(prof, seed)
            y = transmit(cm.channel, encode(g, draw_message(prof.k, seed)), seed)
            expected_trace, trace = [], []
            expected = eager_decode(g, y, cm, limit, trace=expected_trace)
            assert ssdgu_decode(g, y, cm, limit, trace=trace) == expected
            assert trace == expected_trace
            giveups += expected.gave_up
        assert 0 < giveups < seeds

    # the paper's design-point fanouts scaled down: a lazily ordered root of
    # 2^13 children, a 32-child stage on a 6-symbol segment, memoized narrow
    # stages of 8, 4 and 2 children, and a 4-child stage on a 10-symbol
    # segment, narrow but not memoized
    DESIGN_SCALED = profile_from_s(56, 37, [
        v for run, v in [(13, 13), (6, 18), (4, 21), (3, 23), (2, 24),
                         (10, 26), (3, 27), (3, 29), (3, 32), (2, 33),
                         (4, 36), (3, 37)]
        for _ in range(run)])

    @pytest.mark.parametrize("gamma", [1.0, 0.9992])
    def test_design_point_fanouts(self, gamma):
        prof = self.DESIGN_SCALED
        fanout = prof.branch_fanout
        seg = [b - a for a, b in zip(prof.ends, prof.ends[1:])]
        memoized = [h for h, c in enumerate(fanout)
                    if c <= decoder._NARROW and seg[h] <= decoder._MEMO_SYMBOLS]
        assert fanout[0] > decoder._CHUNK_ROWS
        assert fanout[1] == 32 and seg[1] == 6
        assert {fanout[h] for h in memoized} == {2, 4, 8}
        assert any(c <= decoder._NARROW and seg[h] > decoder._MEMO_SYMBOLS
                   for h, c in enumerate(fanout))
        cm = model(p=0.05, gamma=gamma, n=prof.n)
        seeds, limit = 20, 16000
        giveups = 0
        expansions = Counter()
        for seed in range(seeds):
            g = sample_generator(prof, seed)
            y = transmit(cm.channel, encode(g, draw_message(prof.k, seed)), seed)
            expected_trace, trace = [], []
            expected = eager_decode(g, y, cm, limit, trace=expected_trace)
            assert ssdgu_decode(g, y, cm, limit, trace=trace) == expected
            assert trace == expected_trace
            giveups += expected.gave_up
            for h, count in Counter(r["stage"] for r in trace).items():
                expansions[h] = max(expansions[h], count)
        assert 0 < giveups < seeds
        # a decode that expands a memoized stage more often than its
        # segment has output patterns hits the memo
        hit = {fanout[h] for h in memoized if expansions[h] > 2 ** seg[h]}
        assert hit == {2, 4, 8}

    @pytest.mark.parametrize("prof,p,limit", [
        (DESIGN_SCALED, 0.05, 16000),
        (DEEP, 0.02, 5000),
    ], ids=["design-scaled", "deep-128x64"])
    def test_untraced_outcomes_equal(self, prof, p, limit):
        # the pop loop takes other branches without a trace list
        cm = model(p=p, gamma=0.9992, n=prof.n)
        for seed in range(20):
            g = sample_generator(prof, seed)
            y = transmit(cm.channel, encode(g, draw_message(prof.k, seed)), seed)
            assert ssdgu_decode(g, y, cm, limit) \
                == ssdgu_decode(g, y, cm, limit, trace=[])

    @pytest.mark.parametrize("prof,p,limit", [
        (DESIGN_SCALED, 0.05, 16000),
        (DEEP, 0.02, 5000),
    ], ids=["design-scaled", "deep-128x64"])
    def test_memoized_stages_skip_block_builder(self, prof, p, limit,
                                                monkeypatch):
        # every node of a memoized narrow stage is expanded from its
        # table, first expansions and memo misses included, so only the
        # other stages ever build a stage block
        built = set()
        stage_block = decoder._stage_block

        def recorded(g, cm, y, packed, lo, hi, level, next_level):
            built.add(prof.levels.index(level))
            return stage_block(g, cm, y, packed, lo, hi, level, next_level)

        monkeypatch.setattr(decoder, "_stage_block", recorded)
        seg = [b - a for a, b in zip(prof.ends, prof.ends[1:])]
        memoized = {h for h, c in enumerate(prof.branch_fanout)
                    if c <= decoder._NARROW and seg[h] <= decoder._MEMO_SYMBOLS}
        cm = model(p=p, gamma=0.9992, n=prof.n)
        expanded = set()
        for seed in range(10):
            g = sample_generator(prof, seed)
            y = transmit(cm.channel, encode(g, draw_message(prof.k, seed)), seed)
            expected_trace, trace = [], []
            expected = eager_decode(g, y, cm, limit, trace=expected_trace)
            assert ssdgu_decode(g, y, cm, limit, trace=trace) == expected
            assert trace == expected_trace
            expanded |= {r["stage"] for r in trace}
        assert built and not built & memoized
        assert expanded & memoized == memoized - {0}

    def test_one_generator_many_words(self):
        # as in simulate with resample_code off: segment costs memoized in
        # one decode must not reach the next decode with the same generator
        prof = self.NARROW
        cm = model(p=0.05, gamma=0.9992, n=prof.n)
        g = sample_generator(prof, 3)
        for seed in range(40):
            y = transmit(cm.channel, encode(g, draw_message(prof.k, seed)), seed)
            expected_trace, trace = [], []
            expected = eager_decode(g, y, cm, 600, trace=expected_trace)
            assert ssdgu_decode(g, y, cm, 600, trace=trace) == expected
            assert trace == expected_trace


class TestNarrowTables:
    @pytest.mark.parametrize("gamma", [1.0, 0.9992])
    @pytest.mark.parametrize("children", [2, 4, 8])
    def test_entries_equal_block_products(self, children, gamma):
        # for every parent output key, each child's table entry equals its
        # row of the children-row product (xs != y) @ w that the eager
        # reference costs the block with, to the bit, on segments of 1 to 8
        # symbols after a first segment of random length
        rng = np.random.default_rng(children)
        width = children.bit_length() - 1
        suffixes = (np.arange(children)[:, None]
                    >> np.arange(width - 1, -1, -1)) & 1
        place = 1 << np.arange(decoder._MEMO_SYMBOLS)
        for symbols in range(1, decoder._MEMO_SYMBOLS + 1):
            first = int(rng.integers(9, 400))
            n = first + 4 * symbols
            s = [width] * first + [width * (2 + t // symbols)
                                   for t in range(n - first)]
            prof = profile_from_s(n, s[-1], s)
            cm = model(p=0.03, gamma=gamma, n=n)
            g = sample_generator(prof, int(rng.integers(1000)))
            y = rng.integers(0, 2, n).astype(np.uint8)
            records = decoder._narrow_records(g, cm, y,
                                              decoder._pack_rows(g.bits))
            assert records[0] is None
            assert all(records[1:])
            for h, (_, _, table, outs, _, _) in enumerate(records[1:], 1):
                lo, hi = prof.ends[h], prof.ends[h + 1]
                level, next_level = prof.levels[h], prof.levels[h + 1]
                own = suffixes @ g.bits[lo:hi, level:next_level].T % 2
                weights = np.asarray(cm.per_symbol_cost[lo:hi], dtype=float)
                assert len(table) == 2 ** symbols
                for key in range(2 ** symbols):
                    parent = (key >> np.arange(symbols)) & 1
                    xs = (own ^ parent).astype(np.uint8)
                    assert [table[key ^ o] for o in outs] \
                        == ((xs != y[lo:hi]) @ weights).tolist()
                    assert outs \
                        == ((own ^ y[lo:hi]) @ place[:symbols]).tolist()


class TestMemoryEstimate:
    def test_covers_traced_peak_at_root_limit(self):
        # at limit = c_0 a decode holds little beyond the lazily ordered
        # root block; the estimate must still cover its traced peak.  The
        # 2^18-child root with 32 symbols is costed without ever holding
        # its 2^18 x 32 suffix table, 8.4 MB
        wide = profile_from_arrivals(48, [1] * 18 + [33 + j for j in range(8)])
        for prof in (TestMatchesEagerReference.LAZY_ROOT, wide):
            c0 = prof.branch_fanout[0]
            estimate = decoder.decode_memory_bytes(prof, c0)
            assert decoder.decode_memory_bytes(prof, c0 + 1000) - estimate \
                == 1000 * decoder.BYTES_PER_CHECK
            cm = model(p=0.1, gamma=1.0, n=prof.n)
            g = sample_generator(prof, 0)
            y = transmit(cm.channel, encode(g, draw_message(prof.k, 0)), 0)
            tracemalloc.start()
            try:
                ssdgu_decode(g, y, cm, c0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= estimate
        assert wide.branch_fanout[0] == 2 ** 18 and wide.ends[1] == 32
        assert peak < 2 ** 18 * 32

    def test_covers_traced_peak_of_tables_and_memos(self):
        # the memoized stages' tables are built at decode start and their
        # memos fill as the decode goes; 8-symbol segments have the largest
        # tables, and at limit 1000 those of the 480-symbol profile
        # outweigh its checks
        ref = TestMatchesEagerReference
        eight = profile_from_s(480, 120, [
            4 * (h // 2) + 1 + 3 * (h % 2) for h in range(60) for _ in range(8)])
        assert set(eight.branch_fanout) == {2, 8}
        assert {b - a for a, b in zip(eight.ends, eight.ends[1:])} == {8}
        for prof, p, limit, seeds in [(ref.DESIGN_SCALED, 0.05, 16000, 6),
                                      (eight, 0.1, 1000, 3)]:
            cm = model(p=p, gamma=0.9992, n=prof.n)
            estimate = decoder.decode_memory_bytes(prof, limit)
            giveups = 0
            for seed in range(seeds):
                g = sample_generator(prof, seed)
                y = transmit(cm.channel,
                             encode(g, draw_message(prof.k, seed)), seed)
                tracemalloc.start()
                try:
                    out = ssdgu_decode(g, y, cm, limit)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= estimate
                giveups += out.gave_up
            assert giveups > 0
        assert peak > 2 * decoder.BYTES_PER_CHECK * limit

    def test_one_stage_estimate_ignores_limit(self):
        # a one-stage decode pops a terminal root child first and checks
        # nothing after the root expansion, whatever the limit
        prof = pure_random_profile(8, 3)
        assert decoder.decode_memory_bytes(prof, prof.branch_fanout[0]) \
            == decoder.decode_memory_bytes(prof, 10 ** 9)

    def test_covers_traced_peak_of_fanout2_giveup(self):
        # fanout 2 holds the most per check; a decode that gives up holds
        # every heap entry it pushed until the end
        prof = profile_from_arrivals(128, [1 + (3 * j) // 2 for j in range(64)])
        assert set(prof.branch_fanout) == {2}
        cm = model(p=0.1, gamma=1.0, n=prof.n)
        g = sample_generator(prof, 0)
        y = transmit(cm.channel, encode(g, draw_message(prof.k, 0)), 0)
        limit = 50000
        tracemalloc.start()
        try:
            out = ssdgu_decode(g, y, cm, limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.gave_up
        assert peak <= decoder.decode_memory_bytes(prof, limit)

    def test_root_children_not_charged_per_check(self):
        # the block term holds the c_0 root children, and a one-stage
        # profile checks nothing after the root expansion; charging the
        # root children per check would alone exceed this estimate
        prof = pure_random_profile(8, 20)
        c0 = prof.branch_fanout[0]
        assert decoder.decode_memory_bytes(prof, c0) \
            < c0 * decoder.BYTES_PER_CHECK


class TestMlConsistency:
    def test_noiseless_case(self):
        prof = pure_random_profile(8, 4)
        g = sample_generator(prof, 2)
        cm = model(n=8)
        m = (0, 1, 1, 0)
        y = encode(g, m)
        out = ssdgu_decode(g, y, cm, 64)
        assert ml_consistency_check(g, y, cm, out)

    @pytest.mark.parametrize("gamma", [1.0, 0.9992])
    def test_random_trials_match_oracle(self, gamma):
        prof = profile_from_arrivals(16, [1, 3, 5, 7, 9, 11, 13, 15])
        cm = model(p=0.05, gamma=gamma, n=16)
        checked = 0
        for seed in range(200):
            g = sample_generator(prof, seed)
            m = draw_message(8, seed)
            y = transmit(cm.channel, encode(g, m), seed)
            out = ssdgu_decode(g, y, cm, 1024)
            if out.gave_up:
                continue
            assert ml_consistency_check(g, y, cm, out)
            checked += 1
        assert checked > 150

    def test_giveup_outcome_rejected(self):
        g = hand_generator()
        cm = model(n=4)
        out = ssdgu_decode(g, np.array([0, 1, 1, 0], np.uint8), cm, limit=2)
        with pytest.raises(ValueError):
            ml_consistency_check(g, np.zeros(4, np.uint8), cm, out)
