import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cort import (BscChannel, CostModel, GeneratorMatrix, MomentTables,
                  TrialConfig, d_e_g, encode, ml_oracle,
                  profile_from_arrivals, pure_random_profile,
                  sample_generator, sbp_optimize, simulate)
from cort.montecarlo import trial_spans, wilson_halfwidth


def model(p, gamma, n):
    return CostModel(channel=BscChannel(p), gamma=gamma, n=n)


def hamming_argmin(g: GeneratorMatrix, y):
    """Test-only maximum-likelihood reference, independent of ml_oracle:
    the message whose codeword is Hamming-closest to y (ties to the
    lexicographically smallest)."""
    k = g.profile.k
    shifts = np.arange(k - 1, -1, -1, dtype=np.uint32)
    idx = np.arange(1 << k, dtype=np.uint32)
    msgs = ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
    dist = ((msgs @ g.bits.T) % 2 != np.asarray(y, np.uint8)[None, :]).sum(axis=1)
    best = int(np.argmin(dist))
    return tuple((best >> int(s)) & 1 for s in shifts)


class TestSimulate:
    def test_counting_identity(self):
        prof = profile_from_arrivals(16, [1, 3, 5, 9])
        stats = simulate(TrialConfig(profile=prof, p=0.1, gamma=1.0,
                                     limit=64, trials=500, base_seed=2))
        assert stats.giveup_count + stats.undetected_count == \
            round(stats.fer * stats.trials)
        assert stats.fer == stats.giveup_rate + stats.undetected_error_rate

    def test_deterministic_and_seed_sensitive(self):
        prof = profile_from_arrivals(12, [1, 3, 7])
        cfg = TrialConfig(profile=prof, p=0.08, gamma=1.0, limit=64,
                          trials=300, base_seed=9)
        assert simulate(cfg) == simulate(cfg)
        other = TrialConfig(profile=prof, p=0.08, gamma=1.0, limit=64,
                            trials=300, base_seed=10)
        assert simulate(cfg) != simulate(other)

    def test_worker_count_does_not_change_results(self):
        prof = profile_from_arrivals(12, [1, 3, 7])
        cfg = TrialConfig(profile=prof, p=0.08, gamma=1.0, limit=64,
                          trials=400, base_seed=3)
        assert simulate(cfg, workers=1) == simulate(cfg, workers=3)

    def test_near_noiseless(self):
        prof = pure_random_profile(16, 4)
        stats = simulate(TrialConfig(profile=prof, p=0.001, gamma=1.0,
                                     limit=1024, trials=2000, base_seed=1))
        assert stats.giveup_count == 0
        assert stats.fer <= 0.005

    def test_fixed_code_reuses_generator(self):
        prof = profile_from_arrivals(12, [1, 2, 5])
        fixed = TrialConfig(profile=prof, p=0.05, gamma=1.0, limit=64,
                            trials=50, base_seed=4, resample_code=False)
        stats = simulate(fixed)
        assert stats.trials == 50

    def test_zero_trials_rejected(self):
        prof = pure_random_profile(4, 2)
        with pytest.raises(ValueError):
            TrialConfig(profile=prof, p=0.1, gamma=1.0, limit=8, trials=0)


class TestMlOracle:
    def test_noiseless_recovers_message(self):
        prof = profile_from_arrivals(10, [1, 3, 5, 7])
        g = sample_generator(prof, 8)
        cm = model(0.05, 1.0, 10)
        m = (1, 0, 0, 1)
        message, cost = ml_oracle(g, encode(g, m), cm)
        assert message == m and cost == 0.0

    def test_tie_resolves_to_lexicographic_smallest(self):
        # an all-zero column makes messages differing only in that bit tie
        prof = pure_random_profile(6, 2)
        bits = np.array(
            [[1, 0], [0, 0], [1, 0], [0, 0], [1, 0], [1, 0]], dtype=np.uint8)
        g = GeneratorMatrix(profile=prof, bits=bits)
        cm = model(0.1, 1.0, 6)
        message, cost = ml_oracle(g, encode(g, (1, 1)), cm)
        assert message == (1, 0)  # ties with (1, 1); smaller wins

    def test_unit_gamma_matches_hamming_argmin(self):
        cm = model(0.07, 1.0, 14)
        prof = profile_from_arrivals(14, [1, 4, 8, 11])
        rng = np.random.default_rng(6)
        for seed in range(40):
            g = sample_generator(prof, seed)
            y = rng.integers(0, 2, 14, dtype=np.uint8)
            m_cost, _ = ml_oracle(g, y, cm)
            m_dist = hamming_argmin(g, y)
            d = lambda m: int(np.sum(encode(g, m) != y))
            assert d(m_cost) == d(m_dist)

    def test_size_guard(self):
        prof = pure_random_profile(22, 21)
        g = sample_generator(prof, 0)
        with pytest.raises(ValueError):
            ml_oracle(g, np.zeros(22, np.uint8), model(0.1, 1.0, 22))

    @pytest.mark.parametrize("cost_n", [8, 12, 20])
    def test_cost_model_of_other_length_rejected(self, cost_n):
        prof = profile_from_arrivals(16, [1, 3, 5, 7, 9, 11, 13, 15])
        g = sample_generator(prof, 0)
        with pytest.raises(ValueError, match=f"n={cost_n}, code has n=16"):
            ml_oracle(g, np.zeros(16, np.uint8), model(0.05, 1.0, cost_n))

    @pytest.mark.parametrize("length", [15, 17])
    def test_received_word_of_other_length_rejected(self, length):
        prof = profile_from_arrivals(16, [1, 3, 5, 7, 9, 11, 13, 15])
        g = sample_generator(prof, 7)
        with pytest.raises(ValueError, match=f"length {length}, expected 16"):
            ml_oracle(g, np.zeros(length, np.uint8), model(0.05, 1.0, 16))


class TestEstimateCle:
    def test_huge_budget_never_gives_up(self):
        prof = profile_from_arrivals(12, [1, 3, 7, 9])
        stats = simulate(TrialConfig(profile=prof, p=0.1, gamma=1.0,
                                     limit=1 << 20, trials=300, base_seed=5))
        assert stats.giveup_rate == 0.0

    def test_give_up_rate_below_bound(self):
        cm = model(0.08, 1.0, 24)
        tables = MomentTables(24, 0.08, 1.0)
        prof = sbp_optimize(24, 6, cm, 256, tables).final_profile
        bound = d_e_g(prof, cm, 256, tables).d_cle_g
        stats = simulate(TrialConfig(profile=prof, p=0.08, gamma=1.0,
                                     limit=256, trials=2000, base_seed=5))
        assert stats.giveup_rate <= bound + 3 * stats.giveup_ci

    def test_discount_comparison_within_noise(self):
        # the deterministic statement: discounting lowers the node-count
        # bound on a fixed profile; the paired simulation must not
        # contradict the ordering beyond confidence noise
        cmg = model(0.08, 0.9992, 24)
        prof = sbp_optimize(24, 6, cmg, 96,
                            MomentTables(24, 0.08, 0.9992)).final_profile
        bound_disc = d_e_g(prof, cmg, 96,
                           MomentTables(24, 0.08, 0.9992)).d_cle_g
        bound_flat = d_e_g(prof, model(0.08, 1.0, 24), 96,
                           MomentTables(24, 0.08, 1.0)).d_cle_g
        assert bound_disc <= bound_flat
        flat = simulate(TrialConfig(profile=prof, p=0.08, gamma=1.0, limit=96,
                                    trials=1500, base_seed=7))
        disc = simulate(TrialConfig(profile=prof, p=0.08, gamma=0.9992,
                                    limit=96, trials=1500, base_seed=7))
        assert disc.giveup_rate <= flat.giveup_rate \
            + 3 * (flat.giveup_ci + disc.giveup_ci)


class TestWilson:
    def test_zero_successes(self):
        assert 0 < wilson_halfwidth(0, 1000) < 0.01

    def test_known_value(self):
        # z sqrt(p(1-p)/n + z^2/4n^2) / (1 + z^2/n) at p_hat = 0.5, n = 100
        assert math.isclose(wilson_halfwidth(50, 100), 0.09617, abs_tol=5e-5)

    def test_shrinks_with_trials(self):
        assert wilson_halfwidth(10, 100) > wilson_halfwidth(100, 1000)


@settings(max_examples=300, deadline=None)
@given(trials=st.integers(0, 100_000), workers=st.integers(-1, 256))
def test_trial_spans_partition_the_trials(trials, workers):
    spans = trial_spans(trials, workers)
    assert spans[0][0] == 0 and spans[-1][1] == trials
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    assert all(start < stop for start, stop in spans) or trials == 0
    assert len(spans) <= max(workers, 1)
    if trials < 64 or workers <= 1:
        assert spans == [(0, trials)]


# Exact SimStats of two small campaigns on fixed seeds, one with a fresh
# generator per trial and one with a fixed code.  A change to a stream key,
# to which stream a draw uses or to the decoder's pop order changes them.
PINNED_PROFILE_ARRIVALS = (16, [1, 2, 4, 6, 8, 11])
PINNED_STATS = [
    (dict(p=0.1, gamma=0.9992, limit=24, trials=300, base_seed=9,
          resample_code=True),
     {"trials": 300, "giveup_count": 105, "undetected_count": 26,
      "fer": 0.43666666666666665, "giveup_rate": 0.35,
      "undetected_error_rate": 0.08666666666666667,
      "fer_ci": 0.05577339551417854, "giveup_ci": 0.05366444357979625,
      "undetected_ci": 0.03206353084445123,
      "mean_nodes_checked": 19.726666666666667,
      "mean_nodes_ci": 0.6341454247565217,
      "max_nodes_checked": 26, "max_stack_size": 14}),
    (dict(p=0.1, gamma=1.0, limit=24, trials=200, base_seed=4,
          resample_code=False),
     {"trials": 200, "giveup_count": 80, "undetected_count": 1,
      "fer": 0.405, "giveup_rate": 0.4, "undetected_error_rate": 0.005,
      "fer_ci": 0.06741259370286175, "giveup_ci": 0.06727874749074705,
      "undetected_ci": 0.013445267995291277, "mean_nodes_checked": 19.88,
      "mean_nodes_ci": 0.7414987031425843,
      "max_nodes_checked": 26, "max_stack_size": 14}),
]


@pytest.mark.parametrize("fields,expected", PINNED_STATS,
                         ids=["resampled", "fixed-code"])
def test_pinned_statistics(fields, expected):
    prof = profile_from_arrivals(*PINNED_PROFILE_ARRIVALS)
    stats = simulate(TrialConfig(profile=prof, **fields))
    assert stats.to_json_dict() == expected
