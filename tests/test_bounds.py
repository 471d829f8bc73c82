import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from cort import (BoundReport, BscChannel, CostModel, MomentTables,
                  TrialConfig, d_cle_m_exact, d_e_g,
                  gallager_reference_bsc, profile_from_arrivals,
                  profile_from_s, pure_random_profile, rcu_exact_bsc,
                  sbp_optimize, simulate)
from cort.bounds import (_agreement, _binom_pmfs, _curves, _pairs, _triangle,
                         _window_probabilities, bound_memory_bytes)
from reference_bounds import (full_square_cle_curves, per_stage_cfe_curves,
                              term_loop_cle_m_exact)


def model(p, gamma, n):
    return CostModel(channel=BscChannel(p), gamma=gamma, n=n)


def random_profile(rng, n, k):
    arrivals = np.sort(rng.integers(1, n + 1, size=k))
    arrivals[0] = 1
    return profile_from_arrivals(n, arrivals)


class TestMomentTables:
    def test_entries_match_two_term_formulas(self):
        n, p, gamma = 24, 0.04, 0.97
        tabs = MomentTables(n, p, gamma)
        lam = (1 - p) / p
        for gi, theta in enumerate(tabs.theta):
            for t in range(1, n + 1):
                tilt = theta * gamma ** (t - 1)
                abar = 0.5 + 0.5 * lam ** (-tilt)
                a = (1 - p) + p * lam ** tilt
                assert math.isclose(2 ** tabs.log_moment_abar[gi, t - 1], abar,
                                    rel_tol=1e-14)
                assert math.isclose(2 ** tabs.log_moment_a[gi, t - 1], a,
                                    rel_tol=1e-14)

    def test_prefix_sums_reproduce_range_products(self):
        tabs = MomentTables(64, 0.03, 0.9992)
        rng = np.random.default_rng(12)
        for _ in range(1000):
            gi = int(rng.integers(len(tabs.grid)))
            t0, t1 = sorted(rng.integers(0, 65, size=2))
            direct = float(np.prod(2.0 ** tabs.log_moment_a[gi, t0:t1]))
            via_prefix = 2.0 ** (tabs.prefix_a[gi, t1] - tabs.prefix_a[gi, t0])
            assert math.isclose(direct, via_prefix, rel_tol=1e-10)

    def test_theta_of(self):
        # theta[i] is the Chernoff parameter of grid[i]
        tabs = MomentTables(4, 0.1, 1.0)
        assert tabs.grid[0] == 0.0 and tabs.grid[-1] == 1.0
        assert math.isclose(tabs.theta[-1], 0.5, rel_tol=1e-15)
        assert math.isclose(tabs.theta[0], 1.0, rel_tol=1e-15)

    @pytest.mark.parametrize("points", [np.linspace(0.0, 1.0, 5), 5.0],
                             ids=["array", "float"])
    def test_grid_other_than_a_point_count_rejected(self, points):
        with pytest.raises(TypeError):
            MomentTables(8, 0.1, 1.0, points)

    def test_configuration_mismatch_rejected(self):
        tabs = MomentTables(8, 0.1, 1.0)
        prof = pure_random_profile(8, 3)
        with pytest.raises(ValueError, match="do not match"):
            d_e_g(prof, model(0.2, 1.0, 8), 16, tabs)


class TestWindowTable:
    """MomentTables' window table against the expressions of the per-stage
    row loop it replaced, entry by entry and to the byte."""

    @pytest.mark.parametrize("gamma", [1.0, 0.9992])
    def test_entries_equal_row_loop_expression(self, gamma):
        tables = MomentTables(128, 0.03, gamma)
        abar, a, grid = tables.prefix_abar.T, tables.prefix_a.T, tables.grid
        for j in range(129):
            # the row loop's (h, h') row: subtract, += Dp, *= grid
            row = np.subtract(abar[j], abar[:j + 1])
            row += a[-1] - a[:j + 1]
            row *= grid
            row[j] = 0.0
            packed = tables.window[j * (j + 1) // 2:(j + 1) * (j + 2) // 2]
            assert packed.tobytes() == row.tobytes()
        free = (abar[-1] - abar) + (a[-1] - a)
        assert tables.free.tobytes() == free.tobytes()

    @pytest.mark.parametrize("n, points", [(600, 10), (128, 200)])
    def test_build_peak_within_table_and_rows(self, n, points):
        # beyond the arrays it keeps, the build holds the table and a few
        # (n + 1, points) rows of prefix sums, never a second full-size array
        tracemalloc.start()
        try:
            tables = MomentTables(n, 0.05, 0.9992, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(x.nbytes for x in (tables.log_moment_abar,
                                      tables.log_moment_a, tables.prefix_abar,
                                      tables.prefix_a, tables.theta))
        rows = 8 * (n + 1) * points
        table = tables.window.nbytes + tables.free.nbytes
        assert peak <= kept + table + 4 * rows


class TestTauDistributions:
    """The agreement probabilities the bounds read: `_agreement`'s
    last-agreement stages h = 0..h_f-1 and the terminal mass 2^-k of a
    competitor equal to the message form one distribution, and `_triangle`
    gives term (h, h') Pr(last agreement at h') below the diagonal and the
    tail mass of agreeing through stage h on it."""

    @staticmethod
    def distribution(prof):
        _, tau = _agreement(np.array([prof.levels]))
        return np.append(tau[0], 2.0 ** -prof.k)

    def test_two_stage_profile(self):
        prof = profile_from_s(4, 2, [1, 1, 2, 2])
        assert np.allclose(self.distribution(prof), [0.5, 0.25, 0.25])
        hh, hp, tri = _triangle(*_agreement(np.array([prof.levels])))
        assert (hh.tolist(), hp.tolist()) == ([0, 1, 1], [0, 0, 1])
        assert np.allclose(tri, [[1.0, 0.5, 0.5]])

    def test_pure_random(self):
        prof = pure_random_profile(8, 4)
        dist = self.distribution(prof)
        assert np.allclose(dist, [1 - 2.0 ** -4, 2.0 ** -4])
        # the root term carries unit mass
        tri = _triangle(*_agreement(np.array([prof.levels])))[2]
        assert tri.tolist() == [[1.0]]

    def test_cached_pairs_are_read_only(self):
        # _pairs hands the same arrays to every caller with that stage
        # count, so none can write into them
        hh, hp = _pairs(6)
        assert _pairs(6)[0] is hh
        for pairs in (hh, hp):
            with pytest.raises(ValueError):
                pairs[0] = 1
        assert np.array_equal(hh, [0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4,
                                   4, 5, 5, 5, 5, 5, 5])
        assert np.array_equal(hp, [0, 0, 1, 0, 1, 2, 0, 1, 2, 3, 0, 1, 2, 3,
                                   4, 0, 1, 2, 3, 4, 5])

    def test_random_profiles_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 17))
            k = int(rng.integers(1, n + 1))
            prof = random_profile(rng, n, k)
            dist = self.distribution(prof)
            assert math.isclose(dist.sum(), 1.0, abs_tol=1e-12)
            hh, hp, tri = _triangle(*_agreement(np.array([prof.levels])))
            tail = np.cumsum(dist[::-1])[::-1]
            expected = np.where(hh == hp, tail[hh], dist[hp])
            np.testing.assert_allclose(tri[0], expected, rtol=1e-12, atol=0)


class TestCleBound:
    def test_budget_scaling_is_exact(self):
        prof = profile_from_arrivals(16, [1, 2, 5, 9, 13])
        cm = model(0.05, 1.0, 16)
        tabs = MomentTables(16, 0.05, 1.0)
        v1 = d_e_g(prof, cm, 500, tabs).d_cle_g
        v2 = d_e_g(prof, cm, 1000, tabs).d_cle_g
        assert math.isclose(v2, v1 / 2, rel_tol=1e-12)

    def test_pure_random_collapses_to_root_term(self):
        prof = pure_random_profile(16, 6)
        cm = model(0.05, 1.0, 16)
        v = d_e_g(prof, cm, 256, MomentTables(16, 0.05, 1.0)).d_cle_g
        assert math.isclose(v, 2 ** 6 / 256, rel_tol=1e-12)

    def test_hand_value_two_stage(self):
        # worked by hand: c_0/L + v_1 [tau(1,0) (A^2 B^4)^rho + tau(1,1)]
        prof = profile_from_s(4, 2, [1, 1, 2, 2])
        cm = model(0.03, 1.0, 4)
        report = d_e_g(prof, cm, 16, MomentTables(4, 0.03, 1.0))
        assert math.isclose(report.d_cle_g, 0.3231269672086089, rel_tol=1e-12)
        assert report.varrho_star == 1.0

    def test_monotone_in_budget(self):
        prof = profile_from_arrivals(24, [1, 3, 5, 9, 13, 17, 21])
        cm = model(0.06, 0.9992, 24)
        tabs = MomentTables(24, 0.06, 0.9992)
        values = [d_e_g(prof, cm, L, tabs).d_cle_g
                  for L in [64, 256, 1024, 4096, 16384]]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_diagonal_beyond_subnormal_range_kept(self):
        # stage 2 sits at level 1076, where its agreement probability
        # 2^-1076 is 0 in float64; its diagonal term 2^(1614 - 1076) / L is
        # still a third of the bound, and the curve matches a log-domain
        # sum of every term
        n, k, p, limit = 1400, 1614, 1e-4, 1e200
        prof = profile_from_s(n, k, [538] * 650 + [1076] * 650 + [1614] * 100)
        tabs = MomentTables(n, p, 1.0)
        report = d_e_g(prof, model(p, 1.0, n), limit, tabs)
        levels, r = prof.levels, prof.ends
        abar, a = tabs.prefix_abar.tolist(), tabs.prefix_a.tolist()
        curve = []
        for g, varrho in enumerate(tabs.grid.tolist()):
            logs = []
            for h in range(prof.num_stages):
                for hp in range(h + 1):
                    if hp == h:
                        log_tau, window = -levels[h], 0.0
                    else:
                        log_tau = (math.log2(2 ** (levels[hp + 1] - levels[hp])
                                             - 1) - levels[hp + 1])
                        window = ((abar[g][r[h]] - abar[g][r[hp]])
                                  + (a[g][n] - a[g][r[hp]]))
                    logs.append(levels[h + 1] - math.log2(limit) + log_tau
                                + varrho * window)
            top = max(logs)
            curve.append(2.0 ** top
                         * math.fsum(2.0 ** (x - top) for x in logs))
        assert math.isclose(report.d_cle_g, min(curve), rel_tol=1e-12)
        assert 2.0 ** (levels[3] - levels[2]) / limit > 0.3 * report.d_cle_g

    def test_invalid_limit(self):
        prof = pure_random_profile(4, 2)
        with pytest.raises(ValueError):
            d_e_g(prof, model(0.1, 1.0, 4), 0, MomentTables(4, 0.1, 1.0))


def random_stage_rows(rng, n, stages, rows, top):
    """(rows, stages + 1) levels and ends of random profiles of n times with
    `stages` stages and levels at most `top`."""
    levels = [np.r_[0, np.sort(rng.choice(np.arange(1, top + 1), stages,
                                          replace=False))]
              for _ in range(rows)]
    ends = [np.r_[0, np.sort(rng.choice(np.arange(1, n), stages - 1,
                                        replace=False)), n]
            for _ in range(rows)]
    return np.array(levels), np.array(ends)


class TestTriangularCurves:
    """_curves evaluates only the h' <= h limit terms, and reads the free
    part's windows from the limit pass's window sums; both curves equal
    their references' to the byte."""

    def test_random_batches_equal_reference(self):
        rng = np.random.default_rng(31)
        for i in range(600):
            n = int(rng.integers(1, 61))
            stages = int(rng.integers(1, n + 1))
            p = float(rng.choice([0.01, 0.05, 0.2]))
            gamma = (1.0, 0.9992)[i % 2]
            tables = MomentTables(n, p, gamma, (2, 10, 100)[i % 3])
            levels, ends = random_stage_rows(rng, n, stages,
                                             int(rng.integers(1, 6)), n)
            limit = float(rng.choice([1, 16, 1e3, 1e9]))
            k = int(levels[0, -1])
            cle, cfe = _curves(levels, ends, k, limit, tables)
            assert (cle.tobytes()
                    == full_square_cle_curves(levels, ends, limit,
                                              tables).tobytes())
            assert (cfe.tobytes()
                    == per_stage_cfe_curves(levels, ends, k, tables).tobytes())

    def test_extreme_levels_equal_reference(self):
        # at n = 1100 the agreement probabilities 2^-1000 and below are
        # subnormal or 0, and 2^levels / L overflows to inf; the free part
        # stays finite
        rng = np.random.default_rng(32)
        tables = MomentTables(1100, 0.03, 0.9992)
        levels, ends = random_stage_rows(rng, 1100, 30, 3, 999)
        levels[:, -6:] = [1000, 1010, 1040, 1060, 1080, 1100]
        curves, free = _curves(levels, ends, 1100, 100, tables)
        assert np.isinf(curves).any()
        assert (curves.tobytes()
                == full_square_cle_curves(levels, ends, 100, tables).tobytes())
        assert np.isfinite(free).all()


class TestCfeBound:
    def test_pure_random_reference_values(self):
        for p, want in [(0.03, 1.1e-3), (0.02, 2.9e-6)]:
            prof = pure_random_profile(128, 64)
            report = d_e_g(prof, model(p, 1.0, 128), 1e9,
                           MomentTables(128, p, 1.0))
            assert abs(report.d_cfe_g - want) <= 0.1 * want
            assert report.rho_star == 1.0

    def test_single_use_hand_value(self):
        # (2-1)^rho (A B)^rho at theta = 1/2: A ~ 0.78868, B ~ 1.18301
        prof = pure_random_profile(1, 1)
        report = d_e_g(prof, model(0.25, 1.0, 1), 16, MomentTables(1, 0.25, 1.0))
        assert math.isclose(report.d_cfe_g, 0.9330127018922193, rel_tol=1e-12)
        assert report.rho_star == 1.0

    def test_hand_value_two_stage(self):
        prof = profile_from_s(4, 2, [1, 1, 2, 2])
        v = d_e_g(prof, model(0.03, 1.0, 4), 16,
                  MomentTables(4, 0.03, 1.0)).d_cfe_g
        assert math.isclose(v, 0.8541244147197856, rel_tol=1e-12)

    def test_independent_of_budget(self):
        prof = profile_from_arrivals(16, [1, 4, 8, 12])
        cm = model(0.04, 1.0, 16)
        tabs = MomentTables(16, 0.04, 1.0)
        small, large = (d_e_g(prof, cm, limit, tabs) for limit in (16, 1e9))
        assert ((small.d_cfe_g, small.rho_star)
                == (large.d_cfe_g, large.rho_star))
        assert small.d_cle_g != large.d_cle_g

    def test_discount_never_helps(self):
        prof = profile_from_arrivals(64, [1] + [2 * j for j in range(1, 32)])
        v1 = d_e_g(prof, model(0.03, 1.0, 64), 1e9,
                   MomentTables(64, 0.03, 1.0)).d_cfe_g
        vg = d_e_g(prof, model(0.03, 0.9992, 64), 1e9,
                   MomentTables(64, 0.03, 0.9992)).d_cfe_g
        assert v1 <= vg

    def test_agreement_underflow_hand_value(self):
        # at levels 1075 and above 2^-s(b_h) - 2^-s(b_{h+1}) underflows to 0;
        # the bound takes its log2 from the level gap instead
        n, k = 6000, 1150
        prof = profile_from_s(n, k, [min(k, 1076 + max(0, t - 3000) // 40)
                                     for t in range(1, n + 1)])
        tabs = MomentTables(n, 0.03, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = d_e_g(prof, model(0.03, 1.0, n), 1e9, tabs)
        levels, r = prof.levels, prof.ends
        abar, a = tabs.prefix_abar.tolist(), tabs.prefix_a.tolist()
        curve = []
        for g, rho in enumerate(tabs.grid.tolist()):
            value = 0.0
            for h in range(prof.num_stages):
                # log2 Pr(last agreement at stage h), from exact integers
                log_last = (math.log2(2 ** (levels[h + 1] - levels[h]) - 1)
                            - levels[h + 1])
                window = (abar[g][n] - abar[g][r[h]]) + (a[g][n] - a[g][r[h]])
                value += 2.0 ** (rho * (k + log_last + window))
            curve.append(value)
        assert math.isfinite(report.d_cfe_g)
        assert math.isclose(report.d_cfe_g, min(curve), rel_tol=1e-12)


class TestTotalBound:
    def test_additivity_exact(self):
        prof = profile_from_arrivals(16, [1, 3, 7, 11])
        cm = model(0.05, 0.9992, 16)
        tabs = MomentTables(16, 0.05, 0.9992)
        report = d_e_g(prof, cm, 512, tabs)
        assert report.d_e_g == report.d_cle_g + report.d_cfe_g

    def test_report_round_trip_and_clipping(self):
        prof = pure_random_profile(8, 6)
        cm = model(0.2, 1.0, 8)
        report = d_e_g(prof, cm, 8, MomentTables(8, 0.2, 1.0))
        assert report.d_cle_g > 1.0  # c_0/L = 8 at this budget
        doc = report.to_json_dict()
        assert list(doc) == ["n", "k", "p", "gamma", "limit", "d_cle_g",
                             "d_cfe_g", "d_e_g", "d_cle_g_clipped",
                             "d_cfe_g_clipped", "d_e_g_clipped",
                             "varrho_star", "rho_star", "profile"]
        assert doc["d_cle_g"] == report.d_cle_g
        for name in ("d_cle_g", "d_cfe_g", "d_e_g"):
            assert doc[f"{name}_clipped"] == min(doc[name], 1.0)
        assert doc["d_cle_g_clipped"] == 1.0
        assert doc["profile"]["s"] == list(prof.s)

    def test_single_profile_peak_within_estimate(self):
        # one profile of 300 stages: the moment tables with their window
        # table over all 1101 times, and the profile's 45150 limit terms,
        # are both inside the estimate
        rng = np.random.default_rng(34)
        arrivals = np.r_[1, np.sort(rng.choice(np.arange(2, 1101), 299,
                                               replace=False))]
        prof = profile_from_arrivals(1100, arrivals)
        assert prof.num_stages == 300
        cm = model(0.03, 0.9992, 1100)
        tracemalloc.start()
        try:
            tabs = MomentTables(1100, 0.03, 0.9992)
            d_e_g(prof, cm, 1e9, tabs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_memory_bytes(1100, 300, len(tabs.grid))

    def test_grid_refinement_never_increases(self):
        for p, gamma in [(0.03, 1.0), (0.02, 0.9992)]:
            cm = model(p, gamma, 32)
            prof = profile_from_arrivals(32, [1, 2, 3, 5, 9, 13, 17, 25])
            v10 = d_e_g(prof, cm, 1e6, MomentTables(32, p, gamma, 10)).d_e_g
            v100 = d_e_g(prof, cm, 1e6, MomentTables(32, p, gamma, 100)).d_e_g
            assert v100 <= v10 + 1e-18


@pytest.mark.parametrize("n", [1, 2, 12, 128, 512])
@pytest.mark.parametrize("p", [1e-12, 0.02, 0.1, 0.3, 0.5])
def test_binom_pmfs_match_scipy(n, p):
    # row l is the Binom(l, p) pmf on 0..n; subnormal entries (below the
    # smallest normal float) carry fewer significant bits than rtol asks
    rows = _binom_pmfs(n, p)
    ref = np.array([stats.binom.pmf(np.arange(n + 1), l, p)
                    for l in range(n + 1)])
    np.testing.assert_allclose(rows, ref, rtol=1e-12,
                               atol=np.finfo(float).tiny)


def test_window_probabilities_match_scipy():
    # P[l1, l2] = sum over j of Pr(Binom(l2, p) = j) Pr(Binom(l1, 1/2) <= j)
    n, p = 128, 0.05
    P = _window_probabilities(n, p)
    for l1, l2 in [(0, 0), (1, 128), (17, 40), (64, 128), (128, 1),
                   (128, 128)]:
        j = np.arange(l2 + 1)
        ref = np.sum(stats.binom.pmf(j, l2, p) * stats.binom.cdf(j, l1, 0.5))
        assert math.isclose(P[l1, l2], ref, rel_tol=1e-12)


class TestExactCle:
    def test_pure_random_is_root_mass(self):
        prof = pure_random_profile(12, 5)
        cm = model(0.1, 1.0, 12)
        assert math.isclose(d_cle_m_exact(prof, cm, 64), 2 ** 5 / 64,
                            rel_tol=1e-12)

    def test_hand_value_two_stage(self):
        # 0.125 + 0.125 + 0.125 Pr(Binom(2,1/2) <= Binom(4,p)) at p = 0.03
        prof = profile_from_s(4, 2, [1, 1, 2, 2])
        cm = model(0.03, 1.0, 4)
        assert math.isclose(d_cle_m_exact(prof, cm, 16), 0.2885812753125,
                            rel_tol=1e-10)

    def test_matches_term_loop(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(1, 33))
            prof = random_profile(rng, n, int(rng.integers(1, n + 1)))
            cm = model(float(rng.uniform(0.01, 0.3)), 1.0, n)
            limit = float(rng.choice([1, 64, 4096, 1e9]))
            exact = d_cle_m_exact(prof, cm, limit)
            assert exact == term_loop_cle_m_exact(prof, cm, limit)

    def test_levels_beyond_float_range(self):
        # 2^1100 / L exceeds the largest float, so the bound is inf
        prof = pure_random_profile(16, 1100)
        assert d_cle_m_exact(prof, model(0.05, 1.0, 16), 1e9) == math.inf

    def test_overflow_meets_underflow(self):
        # the (2, 2) term is 2^1100 / 1e9, inf, times the agreement
        # probability 2^-1080, 0; the (1, 1) term 2^1079 / 1e9 already
        # overflows, so the bound is inf, with no invalid-value warning
        prof = profile_from_s(4, 1100, [1, 1080, 1100, 1100])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exact = d_cle_m_exact(prof, model(0.05, 1.0, 4), 1e9)
        assert exact == math.inf

    @pytest.mark.parametrize("s", [[1100] * 16, [1, 1080, 1100, 1100]])
    def test_levels_beyond_float_range_finite_quotient(self, s):
        # 2^1100 overflows but 2^1100 / 1e300 does not; in the second
        # profile the agreement probability 2^-1080 also underflows to 0
        prof = profile_from_s(len(s), 1100, s)
        cm = model(0.05, 1.0, prof.n)
        exact = d_cle_m_exact(prof, cm, 1e300)
        cher = d_e_g(prof, cm, 1e300, MomentTables(prof.n, 0.05, 1.0)).d_cle_g
        assert math.isfinite(exact)
        assert exact <= cher * (1 + 1e-12)
        if s[0] == 1100:
            # the pure profile's bound is its root mass 2^k / L
            assert math.isclose(exact, 2 ** 1100 / 10 ** 300, rel_tol=1e-12)

    def test_requires_unit_gamma(self):
        prof = pure_random_profile(4, 2)
        with pytest.raises(ValueError, match="gamma"):
            d_cle_m_exact(prof, model(0.1, 0.9, 4), 16)

    def test_below_chernoff_version(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(4, 25))
            k = int(rng.integers(2, min(n, 10) + 1))
            prof = random_profile(rng, n, k)
            p = float(rng.uniform(0.02, 0.2))
            L = float(rng.integers(8, 4096))
            cm = model(p, 1.0, n)
            exact = d_cle_m_exact(prof, cm, L)
            cher = d_e_g(prof, cm, L, MomentTables(n, p, 1.0)).d_cle_g
            assert exact <= cher * (1 + 1e-12)

    def test_matches_direct_monte_carlo_small(self):
        prof = profile_from_s(6, 3, [1, 1, 2, 2, 3, 3])
        cm = model(0.1, 1.0, 6)
        exact = d_cle_m_exact(prof, cm, 64)
        # independent estimate: sample everything, compare window costs
        rng = np.random.default_rng(77)
        n, k, L = 6, 3, 64.0
        r = prof.ends
        levels = prof.levels
        w = np.asarray(cm.per_symbol_cost)
        B = 400_000
        G = rng.integers(0, 2, (B, n, k), dtype=np.uint8)
        G *= (np.arange(1, n + 1)[:, None] >=
              np.asarray(prof.arrivals)[None, :]).astype(np.uint8)[None, :, :]
        m = rng.integers(0, 2, (B, k), dtype=np.uint8)
        mbar = rng.integers(0, 2, (B, k), dtype=np.uint8)
        x = np.einsum("bnk,bk->bn", G, m) % 2
        y = x ^ (rng.random((B, n)) < cm.p).astype(np.uint8)
        full = (x != y) @ w
        est = np.zeros(B)
        for h in range(prof.num_stages):
            rh, lh = r[h], levels[h]
            xb = np.einsum("bnk,bk->bn", G[:, :rh, :lh], mbar[:, :lh]) % 2
            cost = (xb != y[:, :rh]) @ w[:rh]
            est += (2.0 ** levels[h + 1] / L) * (cost <= full + 1e-12)
        se = est.std() / math.sqrt(B)
        assert abs(est.mean() - exact) <= 4 * se

    def test_bounds_mean_node_checks(self):
        # d_cle_m_exact * limit bounds the mean node-check count; a give-up
        # only truncates the count, so it holds below any limit too
        prof = profile_from_arrivals(12, [1, 3, 5, 7, 9, 11])
        limit = 256
        sim = simulate(TrialConfig(profile=prof, p=0.1, gamma=1.0,
                                   limit=limit, trials=2000, base_seed=11))
        bound = d_cle_m_exact(prof, model(0.1, 1.0, 12), limit) * limit
        assert sim.mean_nodes_checked <= bound + 3 * sim.mean_nodes_ci


class TestRcu:
    def test_hand_value(self):
        assert abs(rcu_exact_bsc(2, 1, 0.1) - 0.3475) < 1e-12

    def test_matches_direct_sum(self):
        n, k, p = 12, 5, 0.08
        direct = 0.0
        for w in range(n + 1):
            pw = math.comb(n, w) * p ** w * (1 - p) ** (n - w)
            beat = sum(math.comb(n, d) for d in range(w + 1)) / 2 ** n
            direct += pw * min(1.0, (2 ** k - 1) * beat)
        assert math.isclose(rcu_exact_bsc(n, k, p), direct, rel_tol=1e-12)

    def test_vanishing_noise_limit(self):
        # as p -> 0 only the w = 0 term survives: (2^k - 1) 2^-n
        assert math.isclose(rcu_exact_bsc(16, 4, 1e-12), 15 / 65536,
                            rel_tol=1e-6)
        # at rate one the competitor union saturates even without noise
        assert math.isclose(rcu_exact_bsc(16, 16, 1e-12),
                            (2 ** 16 - 1) / 2 ** 16, rel_tol=1e-6)

    def test_below_cfe_and_gallager(self):
        for p in (0.02, 0.03):
            prof = pure_random_profile(128, 64)
            cfe = d_e_g(prof, model(p, 1.0, 128), 1e9,
                        MomentTables(128, p, 1.0)).d_cfe_g
            rcu = rcu_exact_bsc(128, 64, p)
            assert rcu <= cfe
            assert rcu <= gallager_reference_bsc(128, 64, p)

    def test_union_beyond_float_range(self):
        # 2^1100 - 1 saturates to inf and every term clips to 1
        assert math.isclose(rcu_exact_bsc(16, 1100, 0.05), 1.0, rel_tol=1e-12)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            rcu_exact_bsc(1000, 10, 0.1)


class TestGallagerReference:
    def test_matches_cfe_at_matched_rho(self):
        for n, k, p in [(16, 8, 0.05), (64, 32, 0.03), (128, 64, 0.02)]:
            prof = pure_random_profile(n, k)
            report = d_e_g(prof, model(p, 1.0, n), 1e9, MomentTables(n, p, 1.0))
            ref = gallager_reference_bsc(n, k, p, [report.rho_star])
            assert abs(report.d_cfe_g - ref) / ref < 1e-10

    def test_monotone_in_crossover(self):
        values = [gallager_reference_bsc(32, 16, p)
                  for p in np.linspace(0.001, 0.1, 12)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_rho_zero_is_trivial(self):
        assert gallager_reference_bsc(16, 8, 0.05, [0.0]) == 1.0


class TestBoundChain:
    def test_exact_below_chernoff_below_vacuous(self):
        cm = model(0.05, 1.0, 32)
        tabs = MomentTables(32, 0.05, 1.0)
        prof = sbp_optimize(32, 8, cm, 4096, tabs).final_profile
        exact = d_cle_m_exact(prof, cm, 4096)
        cher = d_e_g(prof, cm, 4096, tabs).d_cle_g
        assert exact <= cher
