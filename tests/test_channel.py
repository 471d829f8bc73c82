import math

import numpy as np
import pytest
from scipy import stats

from cort import BscChannel, transmit


class TestBscChannel:
    def test_llr_scale(self):
        ch = BscChannel(0.03)
        assert math.isclose(ch.llr_scale, math.log2(0.97 / 0.03), rel_tol=1e-15)

    @pytest.mark.parametrize("p", [0.0, 0.5, 0.7, -0.1, 5e-324])
    def test_invalid_p_rejected(self, p):
        with pytest.raises(ValueError):
            BscChannel(p)


class TestTransmit:
    def test_zero_input_exposes_error_pattern(self):
        ch = BscChannel(0.2)
        x = np.zeros(64, dtype=np.uint8)
        y = transmit(ch, x, 5)
        ones = np.ones(64, dtype=np.uint8)
        # same seed, complementary input: flips land in the same places
        assert np.array_equal(transmit(ch, ones, 5) ^ ones, y)

    def test_deterministic(self):
        ch = BscChannel(0.1)
        x = np.arange(32) % 2
        assert np.array_equal(transmit(ch, x, 7), transmit(ch, x, 7))
        assert not np.array_equal(transmit(ch, x, 7), transmit(ch, x, 8))

    def test_flip_rate(self):
        ch = BscChannel(0.03)
        y = transmit(ch, np.zeros(1_000_000, dtype=np.uint8), 123)
        rate = y.mean()
        assert 0.029 <= rate <= 0.031

    def test_adjacent_flips_independent(self):
        # contingency table of (e_t, e_{t+1}) pairs should show no association
        ch = BscChannel(0.2)
        e = transmit(ch, np.zeros(200_000, dtype=np.uint8), 99)
        pairs = np.stack([e[:-1:2], e[1::2]], axis=1)
        table = np.zeros((2, 2))
        for a in (0, 1):
            for b in (0, 1):
                table[a, b] = np.sum((pairs[:, 0] == a) & (pairs[:, 1] == b))
        _, pvalue, _, _ = stats.chi2_contingency(table)
        assert pvalue > 1e-4

