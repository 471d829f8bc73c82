"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  The
stochastic criteria use frozen seeds and are deterministic in practice.
"""

import math

import numpy as np
import pytest

from cort import (BscChannel, CostModel, MomentTables, TrialConfig,
                  d_cle_m_exact, d_e_g, gallager_reference_bsc, ml_consistency_check,
                  profile_from_arrivals, profile_from_s, pure_random_profile,
                  rcu_exact_bsc, sbp_optimize, simulate, ssdgu_decode)
from cort.cli import REFERENCE_LIMITS, REFERENCE_TABLES, table_rows
from cort.measure import check_aec
from cort.montecarlo import trial_instances


def model(p, gamma, n):
    return CostModel(channel=BscChannel(p), gamma=gamma, n=n)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status}  {detail}")
    return ok


def leading_digit(x):
    return f"{x:.6e}"[0]


def test_criterion_1_pure_random_cfe_minima():
    details = []
    ok = True
    for p, printed in [(0.03, 1.1e-3), (0.02, 2.9e-6)]:
        prof = pure_random_profile(128, 64)
        value = d_e_g(prof, model(p, 1.0, 128), 1e9,
                      MomentTables(128, p, 1.0)).d_cfe_g
        good = abs(value - printed) <= 0.10 * printed
        ok &= good
        details.append(f"p={p}: {value:.3e} vs {printed:.1e}")
    assert report(1, ok, "; ".join(details)), details


def test_criterion_2_gallager_equivalence():
    details = []
    ok = True
    for n, k, p in [(16, 8, 0.05), (64, 32, 0.03), (128, 64, 0.02)]:
        prof = pure_random_profile(n, k)
        bound = d_e_g(prof, model(p, 1.0, n), 1e9, MomentTables(n, p, 1.0))
        value, rho = bound.d_cfe_g, bound.rho_star
        reference = gallager_reference_bsc(n, k, p, [rho])
        rel = abs(value - reference) / reference
        ok &= rel < 1e-10
        details.append(f"({n},{k},{p}): rel={rel:.1e} at rho={rho}")
    assert report(2, ok, "; ".join(details)), details


@pytest.mark.slow
def test_criterion_3_table_reproduction():
    ok = True
    details = []
    for tab in (1, 3, 4):
        ref = REFERENCE_TABLES[tab]
        rows = table_rows(tab)
        within, digits, total = 0, 0, 0
        for i, row in enumerate(rows):
            computed = {"d_cle_g": row[5], "d_cfe_g": row[6], "d_e_g": row[7]}
            for key in ("d_e_g", "d_cle_g", "d_cfe_g"):
                printed = ref[key][i]
                total += 1
                if 0.5 <= computed[key] / printed <= 2.0:
                    within += 1
                if leading_digit(computed[key]) == leading_digit(printed):
                    digits += 1
        table_ok = within == total and digits >= 7
        ok &= table_ok
        details.append(f"T{tab}: factor2 {within}/{total}, digit {digits}/9")
    # table 2: our output stays additively consistent and the printed
    # anomaly is flagged
    rows2 = table_rows(2)
    additive = all(math.isclose(r[7], r[5] + r[6], rel_tol=1e-12) for r in rows2)
    flags = [r[13] for r in rows2]
    anomaly_flagged = flags == [True, False, True]
    ok2 = additive and anomaly_flagged
    ok &= ok2
    details.append(f"T2: additive={additive}, anomaly flagged={anomaly_flagged}")
    assert report(3, ok, "; ".join(details)), details


def test_criterion_4_rcu():
    hand = rcu_exact_bsc(2, 1, 0.1)
    ok = abs(hand - 0.3475) < 1e-12
    details = [f"rcu(2,1,0.1)={hand:.12f}"]
    for p in (0.02, 0.03):
        prof = pure_random_profile(128, 64)
        cfe = d_e_g(prof, model(p, 1.0, 128), 1e9,
                    MomentTables(128, p, 1.0)).d_cfe_g
        rcu = rcu_exact_bsc(128, 64, p)
        ok &= rcu <= cfe
        details.append(f"p={p}: rcu={rcu:.2e} <= cfe={cfe:.2e}")
    assert report(4, ok, "; ".join(details)), details


@pytest.mark.slow
def test_criterion_5_ensemble_bound_validity():
    n, k, p, limit = 32, 8, 0.05, 4096
    cm = model(p, 1.0, n)
    tables = MomentTables(n, p, 1.0)
    prof = sbp_optimize(n, k, cm, limit, tables).final_profile
    bound = d_e_g(prof, cm, limit, tables)
    exact_cle = d_cle_m_exact(prof, cm, limit)
    stats = simulate(TrialConfig(profile=prof, p=p, gamma=1.0, limit=limit,
                                 trials=100_000, base_seed=20260809,
                                 resample_code=True), workers=4)
    fer_ok = stats.fer <= bound.d_e_g + 3 * stats.fer_ci
    giveup_ok = stats.giveup_rate <= bound.d_cle_g + 3 * stats.giveup_ci
    nc_ok = stats.mean_nodes_checked <= \
        exact_cle * limit + 3 * stats.mean_nodes_ci
    ok = fer_ok and giveup_ok and nc_ok
    detail = (f"fer {stats.fer:.2e} <= {bound.d_e_g:.2e}; "
              f"giveup {stats.giveup_rate:.2e} <= {bound.d_cle_g:.2e}; "
              f"meanNc {stats.mean_nodes_checked:.1f} <= "
              f"{exact_cle * limit:.1f}")
    assert report(5, ok, detail), detail


@pytest.mark.slow
def test_criterion_6_ml_consistency():
    prof = profile_from_arrivals(16, [1, 3, 5, 7, 9, 11, 13, 15])
    ok = True
    for gamma in (1.0, 0.9992):
        cfg = TrialConfig(profile=prof, p=0.05, gamma=gamma, limit=1024,
                          trials=1000, base_seed=314, resample_code=True)
        cm = cfg.cost_model
        for _, g, y in trial_instances(cfg, 0, cfg.trials):
            outcome = ssdgu_decode(g, y, cm, cfg.limit)
            if not outcome.gave_up:
                ok &= ml_consistency_check(g, y, cm, outcome)
    assert report(6, ok, "(16,8), 1000 trials, gamma in {1, 0.9992}")


@pytest.mark.slow
def test_criterion_7_exact_cle_vs_monte_carlo():
    prof = profile_from_s(6, 3, [1, 1, 2, 2, 3, 3])
    cm = model(0.1, 1.0, 6)
    limit = 64.0
    exact = d_cle_m_exact(prof, cm, limit)

    n, k = prof.n, prof.k
    r = prof.ends
    levels = prof.levels
    v = np.array([2.0 ** levels[h + 1] / limit
                  for h in range(prof.num_stages)])
    w = np.asarray(cm.per_symbol_cost)
    arrivals = np.asarray(prof.arrivals)
    rng = np.random.Generator(np.random.Philox(key=[20260809, 0x434C45]))
    total = total_sq = 0.0
    count = 0
    for _ in range(50):
        batch = 200_000
        G = rng.integers(0, 2, (batch, n, k), dtype=np.uint8)
        G *= (np.arange(1, n + 1)[:, None] >= arrivals[None, :]
              ).astype(np.uint8)[None, :, :]
        m = rng.integers(0, 2, (batch, k), dtype=np.uint8)
        mbar = rng.integers(0, 2, (batch, k), dtype=np.uint8)
        x = np.einsum("bnk,bk->bn", G, m) % 2
        y = x ^ (rng.random((batch, n)) < cm.p).astype(np.uint8)
        full_cost = (x != y) @ w
        z = np.zeros(batch)
        for h in range(prof.num_stages):
            rh, lh = r[h], levels[h]
            xb = np.einsum("bnk,bk->bn", G[:, :rh, :lh], mbar[:, :lh]) % 2
            cost = (xb != y[:, :rh]) @ w[:rh]
            z += v[h] * (cost <= full_cost + 1e-12)
        total += z.sum()
        total_sq += (z * z).sum()
        count += batch
    mean = total / count
    se = math.sqrt(max(total_sq / count - mean * mean, 0.0) / count)
    ok = abs(mean - exact) <= 3 * se
    detail = f"exact={exact:.6f} mc={mean:.6f} se={se:.6f} dev={abs(mean-exact)/se:.2f}se"
    assert report(7, ok, detail), detail


def test_criterion_8_sbp_limit_behavior():
    ok = True
    details = []
    for n, k in [(16, 8), (32, 16)]:
        cm = model(0.05, 1.0, n)
        trace = sbp_optimize(n, k, cm, 2 ** 62, MomentTables(n, 0.05, 1.0))
        good = trace.final_profile.s[0] == k
        ok &= good
        details.append(f"({n},{k}): s(1)={trace.final_profile.s[0]}")
    # greedy step matches an exhaustive independent sweep at (8, 2), L = 16
    cm = model(0.05, 1.0, 8)
    tables = MomentTables(8, 0.05, 1.0)
    trace = sbp_optimize(8, 2, cm, 16, tables)
    best_j, best_v = None, None
    for j in range(1, 9):
        s = [1] * 8
        for t in range(j - 1, 8):
            s[t] += 1
        value = d_e_g(profile_from_s(8, 2, s), cm, 16, tables).d_e_g
        if best_v is None or value < best_v:
            best_j, best_v = j, value
    step_ok = trace.steps[0].position == best_j
    ok &= step_ok
    details.append(f"(8,2) greedy pos={trace.steps[0].position} oracle={best_j}")
    assert report(8, ok, "; ".join(details)), details


def test_criterion_9_aec_property_suite():
    ok = True
    for gamma in (0.5, 0.9992, 1.0):
        for p in (0.02, 0.1):
            cm = model(p, gamma, 32)
            ok &= check_aec(cm)
    # exhaustive at n = 12: costs depend on (x, y) only through the
    # mismatch pattern, so 2^12 patterns cover every pair
    cm = model(0.1, 0.9992, 12)
    patterns = (np.arange(4096)[:, None] >> np.arange(12)[None, :]) & 1
    costs = np.cumsum(patterns * cm.per_symbol_cost[None, :], axis=1)
    ok &= bool(np.all(np.diff(costs, axis=1) >= 0))
    assert report(9, ok, "gamma x p sweep + exhaustive n=12")


def test_criterion_10_bound_monotonicity():
    prof = profile_from_arrivals(32, [1, 2, 3, 5, 7, 11, 17, 25])
    cm = model(0.05, 1.0, 32)
    tables = MomentTables(32, 0.05, 1.0)
    values = [d_e_g(prof, cm, L, tables).d_cle_g
              for L in (256, 1024, 4096, 16384, 65536)]
    cle_ok = all(a >= b for a, b in zip(values, values[1:]))

    cmg = model(0.03, 0.9992, 128)
    sbp_prof = sbp_optimize(128, 64, cmg, 1e9,
                            MomentTables(128, 0.03, 0.9992)).final_profile
    flat = d_e_g(sbp_prof, model(0.03, 1.0, 128), 1e9,
                 MomentTables(128, 0.03, 1.0)).d_cfe_g
    disc = d_e_g(sbp_prof, cmg, 1e9, MomentTables(128, 0.03, 0.9992)).d_cfe_g
    gamma_ok = flat <= disc

    grid_ok = True
    for p, gamma in [(0.03, 1.0), (0.02, 0.9992)]:
        cmx = model(p, gamma, 128)
        v10 = d_e_g(sbp_prof if gamma != 1.0 else pure_random_profile(128, 64),
                    cmx, 1e9, MomentTables(128, p, gamma, 10)).d_e_g
        v100 = d_e_g(sbp_prof if gamma != 1.0 else pure_random_profile(128, 64),
                     cmx, 1e9, MomentTables(128, p, gamma, 100)).d_e_g
        grid_ok &= v100 <= v10 + 1e-18
    ok = cle_ok and gamma_ok and grid_ok
    detail = f"cle-L={cle_ok}, cfe-gamma={gamma_ok}, grid={grid_ok}"
    assert report(10, ok, detail), detail
