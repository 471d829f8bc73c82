import itertools
import json
import tracemalloc

import numpy as np
import pytest

from cort import (BscChannel, CostModel, MomentTables, candidate_sweep,
                  d_cle_m_exact, d_e_g, profile_from_arrivals, profile_from_s,
                  sbp_optimize)
from cort.bounds import batch_rows, bound_memory_bytes
from cort.sbp import candidate_stages
from cort.tree_code import stage_rows


def setup(n, p, gamma=1.0, grid_points=10):
    from cort import chernoff_grid
    cm = CostModel(channel=BscChannel(p), gamma=gamma, n=n)
    tables = MomentTables(n, p, gamma, chernoff_grid(grid_points))
    return cm, tables


def suffix_increment(s, j):
    """Candidate j of a sweep: s + 1 at every (1-based) t >= j."""
    s = np.asarray(s)
    return s + (np.arange(1, len(s) + 1) >= j)


def scalar_sweep(current, cm, limit, tables):
    """Each candidate built as a profile and evaluated alone."""
    return [d_e_g(profile_from_s(current.n, current.k + 1,
                                 suffix_increment(current.s, j)),
                  cm, limit, tables).d_e_g
            for j in range(1, current.n + 1)]


class TestCandidateSweep:
    def test_two_position_enumeration(self):
        # position 1 makes (2, 2), position 2 makes (1, 2)
        cm, tables = setup(2, 0.1)
        current = profile_from_s(2, 1, [1, 1])
        sweep = candidate_sweep(current, cm, 64, tables).d_e_g
        assert sweep.shape == (2,)
        assert sweep[0] == d_e_g(profile_from_s(2, 2, [2, 2]), cm, 64,
                                 tables).d_e_g
        assert sweep[1] == d_e_g(profile_from_s(2, 2, [1, 2]), cm, 64,
                                 tables).d_e_g

    def test_all_candidates_distinct(self):
        cm, tables = setup(3, 0.1)
        current = profile_from_s(3, 1, [1, 1, 1])
        sweep = candidate_sweep(current, cm, 64, tables).d_e_g
        assert len(sweep) == 3
        assert len({tuple(suffix_increment(current.s, j))
                    for j in (1, 2, 3)}) == 3
        assert len(set(sweep.tolist())) == 3

    def test_candidates_carry_incremented_bit_count(self):
        # each value is that of the (4, 3) profile, not of a (4, 2) one
        cm, tables = setup(4, 0.05)
        current = profile_from_s(4, 2, [1, 1, 2, 2])
        sweep = candidate_sweep(current, cm, 64, tables).d_e_g
        assert sweep.tolist() == scalar_sweep(current, cm, 64, tables)

    def test_equals_scalar_evaluation(self):
        # random profiles (n <= 40), both gammas, grids of 2, 10 and 100
        # points: each swept value is the candidate's own d_e_g, bit for bit
        rng = np.random.default_rng(20)
        for i in range(300):
            n = int(rng.integers(1, 41))
            k = int(rng.integers(1, n + 1))
            arrivals = np.sort(rng.integers(1, n + 1, size=k))
            arrivals[0] = 1
            current = profile_from_arrivals(n, arrivals)
            p = float(rng.choice([0.01, 0.05, 0.1]))
            cm, tables = setup(n, p, gamma=(1.0, 0.9992)[i % 2],
                               grid_points=(2, 10, 100)[i % 3])
            limit = float(rng.choice([16, 1e3, 1e6, 1e9]))
            sweep = candidate_sweep(current, cm, limit, tables).d_e_g
            assert sweep.tolist() == scalar_sweep(current, cm, limit, tables)

    def test_peak_memory_within_estimate(self):
        # a mid-sweep (128, 33) step on a 200-point grid: its candidates
        # have 8 or 9 stages, and one batch of all 128 would hold more than
        # twice the estimate
        cm, tables = setup(128, 0.05, grid_points=200)
        current = sbp_optimize(128, 32, cm, 64, tables).final_profile
        stages = current.num_stages + 1
        assert batch_rows(stages, 200) < 128
        tracemalloc.start()
        try:
            candidate_sweep(current, cm, 64, tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_memory_bytes(128, stages, 200)


def check_candidate_stages(current):
    """candidate_stages of `current` against stage_rows of the explicit
    candidate rows s + (t >= j), each position once."""
    s = np.asarray(current.s)
    t = np.arange(1, current.n + 1)
    seen = []
    for positions, levels, ends in candidate_stages(current):
        assert len(levels) == len(ends) == len(positions)
        if len(positions):
            want_levels, want_ends = stage_rows(s + (t >= positions[:, None]))
            assert np.array_equal(levels, want_levels)
            assert np.array_equal(ends, want_ends)
        seen.extend(positions.tolist())
    assert sorted(seen) == t.tolist()


class TestCandidateStages:
    def test_every_small_profile(self):
        # every valid s with n <= 8 and entries at most n
        for n in range(1, 9):
            for s in itertools.combinations_with_replacement(range(1, n + 1), n):
                check_candidate_stages(profile_from_s(n, s[-1], s))

    def test_random_profiles(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 129))
            k = int(rng.integers(1, n + 1))
            arrivals = np.sort(rng.integers(1, n + 1, size=k))
            arrivals[0] = 1
            check_candidate_stages(profile_from_arrivals(n, arrivals))


class TestSbpOptimize:
    def test_trace_shape(self):
        cm, tables = setup(8, 0.05)
        trace = sbp_optimize(8, 3, cm, 64, tables)
        assert len(trace.steps) == 2
        assert trace.final_profile.k == 3
        assert trace.final_profile.s[-1] == 3

    def test_single_bit_has_no_steps(self):
        cm, tables = setup(4, 0.1)
        trace = sbp_optimize(4, 1, cm, 16, tables)
        assert trace.steps == ()
        assert trace.final_profile.s == (1, 1, 1, 1)

    def test_huge_budget_concentrates_all_bits(self):
        cm, tables = setup(16, 0.05)
        trace = sbp_optimize(16, 8, cm, 2 ** 62, tables)
        assert trace.final_profile.s[0] == 8

    def test_greedy_step_matches_exhaustive_sweep(self):
        # independent oracle: evaluate every insertion position directly
        cm, tables = setup(8, 0.05)
        trace = sbp_optimize(8, 2, cm, 16, tables)
        chosen = trace.steps[0]
        best_j, best_v = None, None
        for j in range(1, 9):
            s = [1] * 8
            for t in range(j - 1, 8):
                s[t] += 1
            value = d_e_g(profile_from_s(8, 2, s), cm, 16, tables).d_e_g
            if best_v is None or value < best_v:
                best_j, best_v = j, value
        assert chosen.position == best_j
        assert chosen.d_e_g == pytest.approx(best_v, rel=1e-15)

    def test_each_step_is_greedy_optimal(self):
        cm, tables = setup(12, 0.08)
        trace = sbp_optimize(12, 4, cm, 128, tables)
        profile = profile_from_s(12, 1, [1] * 12)
        for step in trace.steps:
            sweep = candidate_sweep(profile, cm, 128, tables).d_e_g
            assert step.d_e_g == sweep[step.position - 1] == sweep.min()
            assert step.position - 1 == np.flatnonzero(sweep == sweep.min())[0]
            profile = profile_from_s(
                12, profile.k + 1, suffix_increment(profile.s, step.position))
        assert profile == trace.final_profile

    def test_deterministic(self):
        cm, tables = setup(16, 0.03, gamma=0.9992)
        a = sbp_optimize(16, 6, cm, 256, tables)
        b = sbp_optimize(16, 6, cm, 256, tables)
        assert a == b

    def test_step_records_match_reports(self):
        # each record, read from its step's sweep, is the d_e_g report of
        # the profile that step made, field for field
        rng = np.random.default_rng(22)
        for i in range(60):
            n = int(rng.integers(1, 25))
            k = int(rng.integers(1, n + 1))
            p = float(rng.choice([0.01, 0.06, 0.2]))
            limit = float(rng.choice([4, 64, 1e6]))
            cm, tables = setup(n, p, gamma=(1.0, 0.9992)[i % 2],
                               grid_points=(2, 10, 100)[i % 3])
            trace = sbp_optimize(n, k, cm, limit, tables)
            profile = profile_from_s(n, 1, [1] * n)
            for step in trace.steps:
                profile = profile_from_s(n, profile.k + 1, suffix_increment(
                    profile.s, step.position))
                report = d_e_g(profile, cm, limit, tables)
                assert step.d_e_g == step.d_cle_g + step.d_cfe_g
                assert ((step.d_e_g, step.d_cle_g, step.d_cfe_g,
                         step.varrho_star, step.rho_star)
                        == (report.d_e_g, report.d_cle_g, report.d_cfe_g,
                            report.varrho_star, report.rho_star))
            assert profile == trace.final_profile

    def test_invalid_sizes(self):
        cm, tables = setup(4, 0.1)
        with pytest.raises(ValueError):
            sbp_optimize(4, 0, cm, 16, tables)


class TestTraceSerialization:
    def test_json_round_trip_fields(self):
        cm, tables = setup(8, 0.05)
        trace = sbp_optimize(8, 3, cm, 64, tables)
        doc = json.loads(trace.to_json())
        assert len(doc["steps"]) == 2
        assert doc["final_profile"]["s"] == list(trace.final_profile.s)
        assert {"step", "position", "d_e_g", "d_cle_g", "d_cfe_g",
                "varrho", "rho"} <= set(doc["steps"][0])


class TestPinnedOutputs:
    """sbp_optimize(32, 8, p = 0.05, L = 4096) on the default grid, and the
    exact expected-count bound of its gamma-1 profile, recorded to the bit
    so that a refactor of the profile or bound code cannot move them."""

    PINNED_STEPS = {
        1.0: [
            (1, 0.001051042186737724, 0.0009765625, 7.447968673772406e-05, 0.0, 1.0),
            (1, 0.002126910935721356, 0.001953125, 0.00017378593572135614, 0.0, 1.0),
            (1, 0.004278648433688621, 0.00390625, 0.00037239843368862063, 0.0, 1.0),
            (1, 0.008582123429623148, 0.0078125, 0.0007696234296231486, 0.0, 1.0),
            (15, 0.01480111982074944, 0.010693603545956124, 0.004107516274793317, 1.0, 1.0),
            (15, 0.024358009057045903, 0.01357470709191225, 0.010783301965133652, 1.0, 1.0),
            (1, 0.04028832924843155, 0.026327227315821673, 0.013961101932609882, 1.0, 1.0),
        ],
        0.9992: [
            (1, 0.0010512027762112175, 0.0009765625, 7.46402762112174e-05, 0.0, 1.0),
            (1, 0.0021272856444928406, 0.001953125, 0.00017416064449284055, 0.0, 1.0),
            (1, 0.004279451381056087, 0.00390625, 0.00037320138105608727, 0.0, 1.0),
            (1, 0.00858378285418258, 0.0078125, 0.0007712828541825796, 0.0, 1.0),
            (15, 0.014610047053939939, 0.010494114918208529, 0.00411593213573141, 1.0, 1.0),
            (15, 0.02398096053524612, 0.013175729836417053, 0.010805230698829068, 1.0, 1.0),
            (1, 0.03950628505462406, 0.025516402570783046, 0.013989882483841013, 1.0, 1.0),
        ],
    }
    FINAL_S = (6,) * 14 + (8,) * 18

    @pytest.mark.parametrize("gamma", [1.0, 0.9992])
    def test_sbp_trace(self, gamma):
        cm, tables = setup(32, 0.05, gamma=gamma)
        trace = sbp_optimize(32, 8, cm, 4096, tables)
        assert [(st.position, st.d_e_g, st.d_cle_g, st.d_cfe_g,
                 st.varrho_star, st.rho_star)
                for st in trace.steps] == self.PINNED_STEPS[gamma]
        assert trace.final_profile.s == self.FINAL_S

    def test_exact_cle_of_final_profile(self):
        cm, _ = setup(32, 0.05)
        prof = profile_from_s(32, 8, self.FINAL_S)
        assert d_cle_m_exact(prof, cm, 4096) == 0.01759931167367981
