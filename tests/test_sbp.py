import itertools
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cort import (BscChannel, CostModel, MomentTables, candidate_sweep,
                  d_cle_m_exact, d_e_g, profile_from_arrivals, profile_from_s,
                  rcu_exact_bsc, sbp_optimize)
from cort import sbp
from cort.bounds import batch_rows, bound_memory_bytes
from cort.sbp import candidate_stages


def setup(n, p, gamma=1.0, grid_points=10):
    from cort import chernoff_grid
    cm = CostModel(channel=BscChannel(p), gamma=gamma, n=n)
    tables = MomentTables(n, p, gamma, chernoff_grid(grid_points))
    return cm, tables


def on_openblas():
    """Whether numpy's BLAS is OpenBLAS, whose kernel OPENBLAS_CORETYPE
    selects."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        return False
    return "openblas" in blas["name"].lower()


second_blas_kernel = pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64") or not on_openblas(),
    reason="needs numpy on OpenBLAS on x86-64")


def run_on_second_blas_kernel(script):
    """`script`'s `out`, as JSON, from a fresh process under an OpenBLAS
    kernel other than the one OPENBLAS_CORETYPE names here."""
    kernel = ("Haswell" if os.environ.get("OPENBLAS_CORETYPE") == "Nehalem"
              else "Nehalem")
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel,
               PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c",
         "import json\n" + script + "print(json.dumps(out))\n"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout)


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

    @pytest.mark.parametrize("gamma", [1.0, 0.9992])
    def test_standalone_equals_step_inside_optimize(self, gamma, monkeypatch):
        # sbp_optimize sweeps from one window table over its whole call; a
        # standalone sweep builds its own and returns the same bytes
        cm, tables = setup(128, 0.03, gamma=gamma)
        seen = []

        def recorded(current, *args):
            sweep = candidate_sweep(current, *args)
            seen.append((current, sweep))
            return sweep

        monkeypatch.setattr(sbp, "candidate_sweep", recorded)
        sbp_optimize(128, 64, cm, 1e9, tables)
        assert len(seen) == 63
        for current, sweep in seen:
            alone = candidate_sweep(current, cm, 1e9, tables)
            assert np.array(alone).tobytes() == np.array(sweep).tobytes()

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
    """candidate_stages of `current` against the levels and ends of each
    explicit candidate profile s + (t >= j), each position once."""
    seen = []
    for positions, levels, ends in candidate_stages(current):
        assert len(levels) == len(ends) == len(positions)
        for j, row_levels, row_ends in zip(positions.tolist(), levels.tolist(),
                                           ends.tolist()):
            want = profile_from_s(current.n, current.k + 1,
                                  suffix_increment(current.s, j))
            assert (row_levels, row_ends) == (list(want.levels),
                                              list(want.ends))
        seen.extend(positions.tolist())
    assert sorted(seen) == list(range(1, current.n + 1))


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
        doc = json.loads(json.dumps(trace.to_json_dict()))
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
    EXACT_CLE = 0.017599311673679792

    @pytest.mark.parametrize("gamma", [1.0, 0.9992])
    def test_sbp_trace(self, gamma):
        cm, tables = setup(32, 0.05, gamma=gamma)
        trace = sbp_optimize(32, 8, cm, 4096, tables)
        assert [(st.position, st.d_e_g, st.d_cle_g, st.d_cfe_g,
                 st.varrho_star, st.rho_star)
                for st in trace.steps] == self.PINNED_STEPS[gamma]
        assert trace.final_profile.s == self.FINAL_S

    @second_blas_kernel
    def test_sbp_trace_on_second_blas_kernel(self):
        # the bound path calls no BLAS routine, so the pinned traces hold
        # whichever kernel OpenBLAS picks at run time
        traces = run_on_second_blas_kernel(
            "from cort import (BscChannel, CostModel, MomentTables,\n"
            "                  sbp_optimize)\n"
            "out = {}\n"
            "for gamma in (1.0, 0.9992):\n"
            "    cm = CostModel(channel=BscChannel(0.05), gamma=gamma, n=32)\n"
            "    trace = sbp_optimize(32, 8, cm, 4096,\n"
            "                         MomentTables(32, 0.05, gamma))\n"
            "    out[repr(gamma)] = [\n"
            "        [st.position, st.d_e_g, st.d_cle_g, st.d_cfe_g,\n"
            "         st.varrho_star, st.rho_star] for st in trace.steps]\n")
        for gamma, steps in self.PINNED_STEPS.items():
            assert [tuple(st) for st in traces[repr(gamma)]] == steps

    def test_exact_cle_of_final_profile(self):
        cm, _ = setup(32, 0.05)
        prof = profile_from_s(32, 8, self.FINAL_S)
        exact = d_cle_m_exact(prof, cm, 4096)
        assert type(exact) is float
        assert exact == self.EXACT_CLE

    @second_blas_kernel
    def test_exact_references_on_second_blas_kernel(self):
        # both exact references sum in an order that no BLAS kernel sets, so
        # they equal this process's values, the first of them pinned above
        cm, _ = setup(32, 0.05)
        here = [d_cle_m_exact(profile_from_s(32, 8, self.FINAL_S), cm, 4096),
                rcu_exact_bsc(256, 128, 0.05)]
        out = run_on_second_blas_kernel(
            "from cort import (BscChannel, CostModel, d_cle_m_exact,\n"
            "                  profile_from_s, rcu_exact_bsc)\n"
            "cm = CostModel(channel=BscChannel(0.05), gamma=1.0, n=32)\n"
            f"prof = profile_from_s(32, 8, {self.FINAL_S!r})\n"
            "out = [d_cle_m_exact(prof, cm, 4096),\n"
            "       rcu_exact_bsc(256, 128, 0.05)]\n")
        assert out == here


class TestDesignPins:
    """sbp_optimize(128, 64) at L = 1e9 for the four reference
    configurations of perfbench's design-128x64 workload, checked against
    the pins in perfbench/spec.json as the benchmark checks them."""

    SPEC = Path(__file__).resolve().parents[1] / "perfbench" / "spec.json"

    def test_traces_match_pins(self):
        spec = json.loads(self.SPEC.read_text())
        design = spec["workloads"]["design-128x64"]
        n, k, limit = design["n"], design["k"], design["limit"]
        assert len(design["configs"]) == 4
        for config in design["configs"]:
            pin = config["pin"]
            cm, tables = setup(n, config["p"], gamma=config["gamma"])
            trace = sbp_optimize(n, k, cm, limit, tables)
            assert [st.position for st in trace.steps] == pin["positions"]
            last = trace.steps[-1]
            for key in ("d_e_g", "d_cle_g", "d_cfe_g"):
                assert math.isclose(getattr(last, key), pin[key],
                                    rel_tol=1e-9), (config, key)
            final = d_e_g(trace.final_profile, cm, limit, tables)
            assert last.d_e_g == final.d_e_g
