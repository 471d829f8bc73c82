import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cort import (BscChannel, CostModel, check_aec, prefix_cost,
                  pure_random_profile, sample_generator, encode)


def model(p=0.03, gamma=1.0, n=8):
    return CostModel(channel=BscChannel(p), gamma=gamma, n=n)


class TestCostModel:
    def test_weights_positive_and_monotone(self):
        cm = model(gamma=0.9, n=16)
        w = cm.per_symbol_cost
        assert np.all(w > 0)
        assert np.all(np.diff(w) < 0)

    def test_gamma_one_constant(self):
        w = model(gamma=1.0, n=16).per_symbol_cost
        assert np.allclose(w, w[0], rtol=1e-15)

    def test_geometric_ratio(self):
        w = model(gamma=0.9992, n=128).per_symbol_cost
        assert np.allclose(w[1:] / w[:-1], 0.9992, rtol=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, -0.5, 1.5])
    def test_invalid_gamma(self, gamma):
        with pytest.raises(ValueError):
            model(gamma=gamma)


class TestPrefixCost:
    def test_perfect_agreement(self):
        cm = model()
        assert prefix_cost(cm, [1, 0, 1], [1, 0, 1, 0]) == 0.0

    def test_single_mismatch_is_llr_scale(self):
        cm = model(p=0.03, gamma=1.0)
        cost = prefix_cost(cm, [0, 1, 0], [0, 0, 0])
        assert math.isclose(cost, math.log2(0.97 / 0.03), rel_tol=1e-12)

    def test_discounted_two_mismatches(self):
        cm = model(p=0.03, gamma=0.5)
        cost = prefix_cost(cm, [1, 1], [0, 0])
        assert math.isclose(cost, 1.5 * cm.channel.llr_scale, rel_tol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            prefix_cost(model(), [1, 0, 1], [1, 0])


FAMILY = [(p, gamma, 32) for p in (0.02, 0.1) for gamma in (0.5, 0.9992, 1.0)]


class TestAccumulatingProperty:
    @pytest.mark.parametrize(
        "p,gamma,n", FAMILY + [(0.02, 0.9992, 64)],
        ids=[f"{p}-{gamma}" for p, gamma, _ in FAMILY] + ["long-sweep"])
    def test_family_always_accumulates(self, p, gamma, n):
        assert check_aec(model(p=p, gamma=gamma, n=n))

    @pytest.mark.parametrize("position", [0, 1, 3])
    def test_adversarial_measure_fails(self, position):
        # a negative first entry shows only in the first prefix cost
        costs = np.ones(4)
        costs[position] = -0.5
        bad = SimpleNamespace(per_symbol_cost=costs)
        assert not check_aec(bad)

    @pytest.mark.parametrize("position", [0, 1, 3])
    def test_nan_cost_fails(self, position):
        costs = np.ones(4)
        costs[position] = np.nan
        assert not check_aec(SimpleNamespace(per_symbol_cost=costs))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0,
                                     math.nan]), min_size=1, max_size=8))
    def test_equals_exhaustive_enumeration(self, costs):
        # the prefix cost depends on (x, y) only through the mismatch
        # pattern, so the 2^n patterns cover every pair of length n; the
        # empty prefix costs 0, and dyadic costs sum exactly
        n = len(costs)
        patterns = (np.arange(2 ** n)[:, None] >> np.arange(n)[None, :]) & 1
        steps = np.where(patterns == 1, np.asarray(costs), 0.0)
        prefix = np.cumsum(np.pad(steps, ((0, 0), (1, 0))), axis=1)
        accumulates = bool(np.all(prefix[:, 1:] >= prefix[:, :-1]))
        assert check_aec(SimpleNamespace(per_symbol_cost=costs)) == accumulates

    def test_exhaustive_small_n(self):
        # the prefix cost depends on (x, y) only through the mismatch
        # pattern, so 2^12 patterns cover every (x, y) pair at n = 12
        cm = model(p=0.05, gamma=0.75, n=12)
        patterns = (np.arange(4096)[:, None] >> np.arange(12)[None, :]) & 1
        costs = np.cumsum(patterns * cm.per_symbol_cost[None, :], axis=1)
        assert np.all(np.diff(costs, axis=1) >= 0)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.05, 1.0), st.floats(0.01, 0.49), st.integers(0, 2 ** 20))
    def test_accumulation_property(self, gamma, p, pattern):
        cm = model(p=p, gamma=gamma, n=21)
        bits = [(pattern >> i) & 1 for i in range(21)]
        costs = np.cumsum(np.asarray(bits) * cm.per_symbol_cost)
        assert np.all(np.diff(costs) >= 0)


class TestOrderingProperties:
    def test_gamma_one_matches_likelihood_ordering(self):
        # lowest cost codeword == highest likelihood codeword
        prof = pure_random_profile(10, 4)
        g = sample_generator(prof, 21)
        cm = model(p=0.1, gamma=1.0, n=10)
        rng = np.random.default_rng(8)
        y = rng.integers(0, 2, 10, dtype=np.uint8)
        costs, likes = [], []
        for idx in range(16):
            m = [(idx >> (3 - b)) & 1 for b in range(4)]
            x = encode(g, m)
            costs.append(prefix_cost(cm, x, y))
            flips = int(np.count_nonzero(x != y))
            likes.append(0.1 ** flips * 0.9 ** (10 - flips))
        assert np.argmin(costs) == np.argmax(likes)
