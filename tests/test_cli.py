import contextlib
import csv
import io
import json
import math
import os
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cort import cli, decoder
from cort.bounds import RCU_MAX_N, bound_memory_bytes
from cort.cli import main
from cort.montecarlo import TrialConfig, simulate
from cort.tree_code import load_profile, profile_from_arrivals


def run(tmp_path, *argv):
    return main(["--results-dir", str(tmp_path / "results"), *argv])


def two_stage(tmp_path) -> str:
    """A profile file for (8, 3) with fanouts 2 and 4: every decode ends
    within 10 node checks, but its estimate grows with --limit."""
    path = tmp_path / "two-stage.json"
    path.write_text(json.dumps({"n": 8, "k": 3, "s": [1] * 4 + [3] * 4}))
    return str(path)


class TestBoundCommand:
    def test_pure_profile(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(tmp_path, "bound", "--profile", "pure", "--n", "16",
                   "--k", "8", "--p", "0.05", "--gamma", "1", "--limit",
                   "1024", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["d_e_g"] == doc["d_cle_g"] + doc["d_cfe_g"]
        assert "rcu_exact" in doc and "gallager_reference" in doc
        assert "d_cle_g" in capsys.readouterr().out

    def test_missing_p_is_usage_error(self, tmp_path, capsys):
        code = run(tmp_path, "bound", "--profile", "pure", "--n", "8", "--k", "4")
        assert code != 0
        assert "error" in capsys.readouterr().err

    def test_unreadable_profile(self, tmp_path, capsys):
        code = run(tmp_path, "bound", "--profile", str(tmp_path / "nope.json"),
                   "--p", "0.05")
        assert code != 0

    @pytest.mark.parametrize("doc,message", [
        ('{"n": 4, "k": 2}', "lacks the field 's'"),
        ('{"n": 4, "k": 2, "s": [1, 1, 2', "invalid profile file"),
        ('{"n": 4, "k": 2, "s": [2, 1, 2, 2]}', "decreasing at t=2"),
        ('{"n": 4, "k": 2, "s": [1.9, 1.2, 2.7, 2]}', "must be integers"),
        ('{"n": 4.9, "k": 2, "s": [1, 1, 2, 2]}', "must be integers"),
        ('{"n": 4, "k": 2, "s": [true, 1, 2, 2]}', "must be integers"),
        ('{"n": 4, "k": "2", "s": [1, 1, 2, 2]}', "must be integers"),
    ], ids=["missing-s", "invalid-json", "decreasing-s", "fractional-s",
            "fractional-n", "boolean-s", "string-k"])
    def test_invalid_profile_file(self, tmp_path, capsys, doc, message):
        path = tmp_path / "profile.json"
        path.write_text(doc)
        assert run(tmp_path, "bound", "--profile", str(path), "--p", "0.05") == 2
        assert message in capsys.readouterr().err

    def test_pure_grid_checked_before_profile(self, tmp_path, capsys,
                                              monkeypatch):
        def unbuilt(n, k):
            raise AssertionError("profile built before the memory check")

        monkeypatch.setattr(cli, "pure_random_profile", unbuilt)
        assert run(tmp_path, "bound", "--profile", "pure", "--n", "10000000",
                   "--k", "1", "--p", "0.1") == 2
        assert "GB" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["--n", "4", "--k", "2", "--limit", "nan"], "--limit"),
        (["--n", "4", "--k", "0"], "k >= 1"),
    ], ids=["nan-limit", "zero-k"])
    def test_invalid_sizes_and_limit(self, tmp_path, capsys, argv, message):
        assert run(tmp_path, "bound", "--profile", "pure", "--p", "0.1",
                   *argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_grid_refinement(self, tmp_path):
        values = {}
        for points in (10, 100):
            out = tmp_path / f"r{points}.json"
            assert run(tmp_path, "bound", "--profile", "pure", "--n", "32",
                       "--k", "16", "--p", "0.04", "--limit", "1e6",
                       "--grid-points", str(points), "--out", str(out)) == 0
            values[points] = json.loads(out.read_text())["d_e_g"]
        assert values[100] <= values[10]

    def test_writes_run_record(self, tmp_path):
        assert run(tmp_path, "bound", "--profile", "pure", "--n", "8",
                   "--k", "4", "--p", "0.1") == 0
        records = list((tmp_path / "results" / "bound").iterdir())
        assert len(records) == 1
        doc = json.loads((records[0] / "record.json").read_text())
        assert doc["command"] == "bound"
        assert doc["parameters"]["p"] == 0.1

    def test_same_second_reruns_keep_both_records(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setattr(cli.time, "strftime",
                            lambda fmt: "20260101T000000")
        argv = ["bound", "--profile", "pure", "--n", "8", "--k", "4",
                "--p", "0.1"]
        assert run(tmp_path, *argv) == 0
        assert run(tmp_path, *argv) == 0
        records = list((tmp_path / "results" / "bound").iterdir())
        assert len(records) == 2
        for record in records:
            doc = json.loads((record / "record.json").read_text())
            assert doc["output_path"] == str(record)

    @pytest.mark.parametrize("n", [RCU_MAX_N, RCU_MAX_N + 1])
    def test_rcu_only_up_to_its_size_limit(self, tmp_path, capsys, n):
        out = tmp_path / "report.json"
        assert run(tmp_path, "bound", "--profile", "pure", "--n", str(n),
                   "--k", "8", "--p", "0.05", "--out", str(out)) == 0
        printed = capsys.readouterr().out
        rcu = json.loads(out.read_text())["rcu_exact"]
        if n <= RCU_MAX_N:
            assert "rcu       = " in printed
            assert 0 < rcu < 1
        else:
            assert "rcu" not in printed
            assert rcu is None
            assert '"rcu_exact": null' in out.read_text()

    def test_rcu_beyond_float_range(self, tmp_path, capsys):
        # 2^k - 1 exceeds the largest float at k = 1100; the union clips to 1
        assert run(tmp_path, "bound", "--profile", "pure", "--n", "16",
                   "--k", "1100", "--p", "0.05", "--limit", "1e300") == 0
        assert "rcu       = 1.000e+00" in capsys.readouterr().out

    def test_agreement_underflow_free_part_finite(self, tmp_path, capsys):
        # 2^-1080 - 2^-1100 underflows to 0; the free part stays finite
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"n": 4, "k": 1100,
                                    "s": [1, 1080, 1100, 1100]}))
        assert run(tmp_path, "bound", "--profile", str(path), "--p", "0.03",
                   "--limit", "1e300") == 0
        assert "d_cfe_g   = 3.000e+00" in capsys.readouterr().out

    def test_overflowing_bound_rejected(self, tmp_path, capsys):
        # the root term 2^k / L exceeds the largest float at k = 1100
        out = tmp_path / "report.json"
        assert run(tmp_path, "bound", "--profile", "pure", "--n", "1100",
                   "--k", "1100", "--p", "0.4", "--limit", "100",
                   "--out", str(out)) == 2
        assert "d_cle_g, d_e_g not finite" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "results").exists()

    def test_overflowing_bound_warns_nothing(self, tmp_path, capsys):
        # the expected overflow reaches the user only as the usage error
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(tmp_path, "bound", "--profile", "pure", "--n", "1100",
                       "--k", "1100", "--p", "0.4", "--limit", "100") == 2
        assert "d_cle_g, d_e_g not finite" in capsys.readouterr().err


class TestSbpCommand:
    def test_emits_profile_and_trace(self, tmp_path):
        prof_path = tmp_path / "profile.json"
        trace_path = tmp_path / "trace.json"
        code = run(tmp_path, "sbp", "--n", "12", "--k", "4", "--p", "0.05",
                   "--limit", "128", "--out-profile", str(prof_path),
                   "--out-trace", str(trace_path))
        assert code == 0
        prof = load_profile(prof_path)
        assert prof.n == 12 and prof.k == 4
        trace = json.loads(trace_path.read_text())
        assert len(trace["steps"]) == 3

    @pytest.mark.parametrize("argv,message", [
        (["--n", "4", "--k", "2", "--limit", "nan"], "--limit"),
        (["--n", "0", "--k", "0"], "--n and --k"),
    ], ids=["nan-limit", "zero-sizes"])
    def test_invalid_sizes_and_limit(self, tmp_path, capsys, argv, message):
        assert run(tmp_path, "sbp", "--p", "0.1", *argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_overflowing_bound_rejected(self, tmp_path, capsys):
        # from step 1023 on, a term 2^level / L exceeds the largest float
        trace = tmp_path / "trace.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(tmp_path, "sbp", "--n", "2", "--k", "1030",
                       "--p", "0.05", "--limit", "1",
                       "--out-trace", str(trace)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: d_e_g, d_cle_g not finite")
        assert not trace.exists()
        assert not (tmp_path / "results").exists()

    def test_huge_budget_concentrates(self, tmp_path):
        prof_path = tmp_path / "profile.json"
        assert run(tmp_path, "sbp", "--n", "12", "--k", "6", "--p", "0.05",
                   "--limit", str(2 ** 62), "--out-profile", str(prof_path)) == 0
        assert load_profile(prof_path).s[0] == 6

    def test_reruns_bit_identical(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            p = tmp_path / f"{tag}.json"
            assert run(tmp_path, "sbp", "--n", "10", "--k", "3", "--p", "0.08",
                       "--gamma", "0.9992", "--limit", "64",
                       "--out-profile", str(p)) == 0
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]


class TestSimulateCommand:
    def test_smoke_and_csv(self, tmp_path):
        out = tmp_path / "stats.json"
        code = run(tmp_path, "simulate", "--profile", "pure", "--n", "8",
                   "--k", "3", "--p", "0.05", "--limit", "64", "--trials",
                   "200", "--seed", "1", "--threads", "1", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["trials"] == 200
        csv_path = tmp_path / "results" / "simulate.csv"
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "n" and len(rows) == 2

    def test_zero_trials_usage_error(self, tmp_path, capsys):
        code = run(tmp_path, "simulate", "--profile", "pure", "--n", "8",
                   "--k", "3", "--p", "0.05", "--trials", "0")
        assert code != 0
        assert "trials" in capsys.readouterr().err

    def test_infeasible_limit_reports_memory(self, tmp_path, capsys):
        # the node checks after the root expansion alone exceed the ceiling
        limit = int(cli.MEMORY_CEILING // decoder.BYTES_PER_CHECK) + 1
        code = run(tmp_path, "simulate", "--profile", two_stage(tmp_path),
                   "--p", "0.05", "--trials", "10", "--limit", str(limit))
        assert code == 2
        assert "GB" in capsys.readouterr().err

    def test_zero_k_usage_error(self, tmp_path, capsys):
        code = run(tmp_path, "simulate", "--profile", "pure", "--n", "4",
                   "--k", "0", "--p", "0.05", "--trials", "1")
        assert code == 2
        assert "k >= 1" in capsys.readouterr().err

    def test_memory_guard_counts_workers(self, tmp_path, capsys,
                                         monkeypatch):
        # 40% of the ceiling per decode: one fits under it, four do not,
        # on a machine with CPUs enough for four workers
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        limit = int(0.4 * cli.MEMORY_CEILING / decoder.BYTES_PER_CHECK)
        argv = ["simulate", "--profile", two_stage(tmp_path), "--p", "0.05",
                "--trials", "64", "--limit", str(limit)]
        assert run(tmp_path, *argv, "--threads", "4") == 2
        err = capsys.readouterr().err
        assert "--threads 4" in err and "GB" in err
        assert run(tmp_path, *argv, "--threads", "1") == 0

    @pytest.mark.parametrize("threads", ["0", "-1", "5", "10000"])
    def test_threads_outside_cpu_count(self, tmp_path, capsys, monkeypatch,
                                       threads):
        def unstarted(config, workers):
            raise AssertionError("simulation started")

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(cli, "simulate", unstarted)
        assert run(tmp_path, "simulate", "--profile", "pure", "--n", "8",
                   "--k", "3", "--p", "0.05", "--trials", "10000",
                   "--threads", threads) == 2
        assert "--threads must be between 1 and the 4 CPUs" \
            in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_limit_below_root_fanout(self, tmp_path, capsys):
        code = run(tmp_path, "simulate", "--profile", "pure", "--n", "8",
                   "--k", "6", "--p", "0.05", "--trials", "10",
                   "--limit", "63")
        assert code == 2
        assert "c_0 = 2^6 = 64" in capsys.readouterr().err

    @pytest.mark.parametrize("n,s1", [(32, 28), (128, 27)])
    def test_wide_root_exceeds_memory(self, tmp_path, capsys, n, s1):
        # at limit c_0 = 2^s1 no check follows the root expansion: the
        # 32 B a child of the 2^s1-child root block (8.6 GB, 4.3 GB) alone
        # is what does not fit
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"n": n, "k": s1, "s": [s1] * n}))
        code = run(tmp_path, "simulate", "--profile", str(path), "--p", "0.05",
                   "--trials", "1", "--limit", str(2 ** s1))
        assert code == 2
        assert "GB" in capsys.readouterr().err

    def test_trace_jsonl(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code = run(tmp_path, "simulate", "--profile", "pure", "--n", "8",
                   "--k", "3", "--p", "0.05", "--limit", "64", "--trials",
                   "5", "--seed", "2", "--threads", "1",
                   "--trace-jsonl", str(trace))
        assert code == 0
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert records
        assert {"iteration", "prefix", "stage", "cost", "nodes_checked"} \
            <= set(records[0])
        assert records[0]["iteration"] == 1

    def test_determinism(self, tmp_path):
        docs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.json"
            assert run(tmp_path, "simulate", "--profile", "pure", "--n", "8",
                       "--k", "3", "--p", "0.05", "--limit", "64", "--trials",
                       "150", "--seed", "42", "--threads", "2",
                       "--out", str(out)) == 0
            docs.append(out.read_bytes())
        assert docs[0] == docs[1]

    def test_resample_code_matches_simulate(self, tmp_path):
        prof = profile_from_arrivals(16, [1, 2, 4, 6, 8, 11])
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"n": 16, "k": 6, "s": list(prof.s)}))
        docs = {}
        for flags in ([], ["--resample-code"]):
            out = tmp_path / "stats.json"
            assert run(tmp_path, "simulate", "--profile", str(path), "--p",
                       "0.1", "--gamma", "0.9992", "--limit", "24",
                       "--trials", "100", "--seed", "9", "--threads", "1",
                       "--out", str(out), *flags) == 0
            docs[bool(flags)] = json.loads(out.read_text())
        config = TrialConfig(profile=prof, p=0.1, gamma=0.9992, limit=24,
                             trials=100, base_seed=9, resample_code=True)
        assert docs[True] == simulate(config).to_json_dict()
        assert docs[True] != docs[False]


class TestResultsDirectory:
    BOUND = ["bound", "--profile", "pure", "--n", "8", "--k", "4",
             "--p", "0.1"]

    def test_environment_routes_records(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(cli.RESULTS_ENV, str(tmp_path / "env"))
        assert main(self.BOUND) == 0
        assert len(list((tmp_path / "env" / "bound").iterdir())) == 1
        assert not (tmp_path / "results").exists()

    def test_flag_wins_over_environment(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(cli.RESULTS_ENV, str(tmp_path / "env"))
        assert main(["--results-dir", str(tmp_path / "flag"),
                     *self.BOUND]) == 0
        assert len(list((tmp_path / "flag" / "bound").iterdir())) == 1
        assert not (tmp_path / "env").exists()
        assert not (tmp_path / "results").exists()


class TestTablesCommand:
    def test_single_table_csv(self, tmp_path):
        out = tmp_path / "table1.csv"
        code = run(tmp_path, "tables", "--paper-table", "1", "--out", str(out))
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:10] == ["n", "k", "p", "gamma", "L", "d_cle_g",
                                "d_cfe_g", "d_e_g", "varrho", "rho"]
        assert rows[0][10:] == ["printed_d_cle_g", "printed_d_cfe_g",
                                "printed_d_e_g", "printed_additive_consistent"]
        assert len(rows) == 4
        for row in rows[1:]:
            assert float(row[7]) == float(row[5]) + float(row[6])

    def test_table_1_pinned(self, tmp_path):
        # (n, k, p, gamma, L, d_cle_g, d_cfe_g, d_e_g, varrho, rho) of each
        # column, as the run record keeps them: n and k ints, L a float
        assert run(tmp_path, "tables", "--paper-table", "1") == 0
        [record] = (tmp_path / "results" / "tables").iterdir()
        rows = json.loads((record / "record.json").read_text())[
            "payload"]["rows"]
        assert [row[:10] for row in rows] == [
            [128, 64, 0.03, 1.0, 1e9, 0.03179442176394395,
             0.03185741923413014, 0.06365184099807408, 1.0, 1.0],
            [128, 64, 0.03, 1.0, 1e10, 0.007447531509506287,
             0.008069122637686737, 0.015516654147193023, 1.0, 1.0],
            [128, 64, 0.03, 1.0, 1e11, 0.0015480002692620448,
             0.003245032459656337, 0.004793032728918381, 1.0, 1.0]]
        assert [type(x) for x in rows[0][:5]] == [int, int, float, float,
                                                  float]
        assert rows[0][4] == 1000000000.0


GRID_COMMANDS = pytest.mark.parametrize("argv", [
    ["bound", "--profile", "pure", "--n", "8", "--k", "4", "--p", "0.05"],
    ["sbp", "--n", "8", "--k", "4", "--p", "0.05"],
    ["tables", "--paper-table", "1"],
], ids=["bound", "sbp", "tables"])


@GRID_COMMANDS
def test_single_grid_point_rejected(tmp_path, capsys, argv):
    assert run(tmp_path, *argv, "--grid-points", "1") == 2
    assert "--grid-points" in capsys.readouterr().err


@GRID_COMMANDS
def test_grid_beyond_memory_rejected(tmp_path, capsys, argv):
    assert run(tmp_path, *argv, "--grid-points", "100000000") == 2
    assert "GB" in capsys.readouterr().err


def test_sbp_grid_just_beyond_memory_rejected(tmp_path, capsys):
    # the smallest grid whose estimate at (128, 64) exceeds the ceiling
    points = next(g for g in range(2, 10 ** 6)
                  if bound_memory_bytes(128, 64, g) > cli.MEMORY_CEILING)
    assert run(tmp_path, "sbp", "--n", "128", "--k", "64", "--p", "0.03",
               "--grid-points", str(points)) == 2
    assert f"--grid-points {points}" in capsys.readouterr().err


def test_bound_n_just_beyond_memory_rejected(tmp_path, capsys, monkeypatch):
    # the smallest n whose estimate for a pure profile on the default grid
    # exceeds the ceiling: refused before the profile or its moment tables
    # (with their O(n^2) window table) are built
    n = next(n for n in range(1, 10 ** 6)
             if bound_memory_bytes(n, 1, 10) > cli.MEMORY_CEILING)

    def refuse(*args):
        raise AssertionError("built before the memory check")

    monkeypatch.setattr(cli, "MomentTables", refuse)
    monkeypatch.setattr(cli, "pure_random_profile", refuse)
    assert run(tmp_path, "bound", "--profile", "pure", "--n", str(n),
               "--k", "1", "--p", "0.1") == 2
    assert "GB" in capsys.readouterr().err


class TestValidationLeavesNoPartialFiles:
    def test_failed_run_writes_nothing(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(tmp_path, "bound", "--profile", "pure", "--n", "8",
                   "--k", "4", "--p", "0.9", "--out", str(out))
        assert code != 0
        assert not out.exists()
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("option, argv", [
        ("--out", ["bound", "--profile", "pure", "--n", "8", "--k", "4",
                   "--p", "0.1"]),
        ("--out-profile", ["sbp", "--n", "4", "--k", "2", "--p", "0.1"]),
        ("--out-trace", ["sbp", "--n", "4", "--k", "2", "--p", "0.1"]),
        ("--trace-jsonl", ["simulate", "--profile", "pure", "--n", "8",
                           "--k", "3", "--p", "0.05", "--limit", "64",
                           "--trials", "2", "--threads", "1"]),
        ("--results-dir", ["bound", "--profile", "pure", "--n", "8",
                           "--k", "4", "--p", "0.1"]),
    ], ids=["out", "out-profile", "out-trace", "trace-jsonl", "results-dir"])
    def test_unwritable_output_rejected_first(self, tmp_path, capsys,
                                              option, argv):
        # a file in a missing directory or an existing directory, and a
        # results directory that is a file, are usage errors before any
        # work, not tracebacks after it
        blocker = tmp_path / "file"
        blocker.write_text("")
        (tmp_path / "folder").mkdir()
        if option == "--results-dir":
            attempts = [(blocker, ["--results-dir", str(blocker), *argv])]
        else:
            attempts = [(path, ["--results-dir", str(tmp_path / "results"),
                                *argv, option, str(path)])
                        for path in (tmp_path / "missing" / "x.json",
                                     tmp_path / "folder")]
        for path, full_argv in attempts:
            assert main(full_argv) == 2
            captured = capsys.readouterr()
            assert str(path) in captured.err
            assert "Traceback" not in captured.err
            assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "folder"]
        assert not any((tmp_path / "folder").iterdir())
        assert blocker.read_text() == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full, where every write fails")
@pytest.mark.parametrize("argv", [
    ["tables", "--paper-table", "1", "--out", "/dev/full"],
    ["simulate", "--profile", "pure", "--n", "8", "--k", "3", "--p", "0.05",
     "--limit", "64", "--trials", "2", "--threads", "1",
     "--trace-jsonl", "/dev/full"],
], ids=["tables-out", "simulate-trace-jsonl"])
def test_failed_write_exits_2(tmp_path, capsys, argv):
    # a write that fails after the work (here: no space left on the device)
    # is a usage error naming the path, not a traceback
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert "cannot write /dev/full" in err
    assert "Traceback" not in err


# Trial 0's exact pop trace and the exact statistics of a fixed-code campaign
# on fixed seeds.  The payload equals PINNED_STATS[1] of test_montecarlo.py.
PINNED_TRACE = """\
{"iteration": 1, "prefix": [0], "stage": 1, "cost": 0.0, "nodes_checked": 2}
{"iteration": 2, "prefix": [0, 0], "stage": 2, "cost": 0.0, "nodes_checked": 4}
{"iteration": 3, "prefix": [0, 0, 0], "stage": 3, "cost": 0.0, "nodes_checked": 6}
{"iteration": 4, "prefix": [0, 1], "stage": 2, "cost": 0.0, "nodes_checked": 8}
{"iteration": 5, "prefix": [1], "stage": 1, "cost": 0.0, "nodes_checked": 10}
{"iteration": 6, "prefix": [0, 0, 0, 1], "stage": 4, "cost": 3.169925001442312, "nodes_checked": 12}
{"iteration": 7, "prefix": [0, 1, 0], "stage": 3, "cost": 3.169925001442312, "nodes_checked": 14}
{"iteration": 8, "prefix": [0, 1, 0, 0], "stage": 4, "cost": 3.169925001442312, "nodes_checked": 16}
{"iteration": 9, "prefix": [0, 1, 1], "stage": 3, "cost": 3.169925001442312, "nodes_checked": 18}
{"iteration": 10, "prefix": [1, 0], "stage": 2, "cost": 3.169925001442312, "nodes_checked": 20}
{"iteration": 11, "prefix": [1, 1], "stage": 2, "cost": 3.169925001442312, "nodes_checked": 22}
{"iteration": 12, "prefix": [1, 1, 0], "stage": 3, "cost": 3.169925001442312, "nodes_checked": 24}
"""
PINNED_PAYLOAD = {
    "trials": 200, "giveup_count": 80, "undetected_count": 1, "fer": 0.405,
    "giveup_rate": 0.4, "undetected_error_rate": 0.005,
    "fer_ci": 0.06741259370286175, "giveup_ci": 0.06727874749074705,
    "undetected_ci": 0.013445267995291277, "mean_nodes_checked": 19.88,
    "mean_nodes_ci": 0.7414987031425843, "max_nodes_checked": 26,
    "max_stack_size": 14}


def test_pinned_trace_and_payload(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(
        {"n": 16, "k": 6, "s": [1, 2, 2, 3, 3, 4, 4, 5, 5, 5, 6, 6, 6, 6, 6, 6]}))
    trace, out = tmp_path / "trace.jsonl", tmp_path / "stats.json"
    assert run(tmp_path, "simulate", "--profile", str(path), "--p", "0.1",
               "--limit", "24", "--trials", "200", "--seed", "4",
               "--threads", "1", "--trace-jsonl", str(trace),
               "--out", str(out)) == 0
    assert trace.read_text() == PINNED_TRACE
    assert json.loads(out.read_text()) == PINNED_PAYLOAD


ODD_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0]


def odd_or(strategy):
    return st.one_of(st.sampled_from(ODD_FLOATS), strategy)


def all_finite(doc):
    if isinstance(doc, dict):
        return all(all_finite(v) for v in doc.values())
    if isinstance(doc, list):
        return all(all_finite(v) for v in doc)
    return not isinstance(doc, float) or math.isfinite(doc)


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["bound", "sbp", "simulate"]), data=st.data())
def test_fuzz_main_exits_cleanly(command, data):
    # every input reaches the user as exit 0 or a usage error (exit 2),
    # and whatever is written holds finite numbers only
    n = data.draw(st.integers(-1, 12), label="n")
    k = data.draw(st.integers(-1, n), label="k")
    p = data.draw(odd_or(st.floats(-0.1, 0.6)), label="p")
    gamma = data.draw(odd_or(st.floats(-0.5, 1.5)), label="gamma")
    limit = data.draw(odd_or(st.one_of(st.floats(-10.0, 1e7),
                                       st.integers(-10, 10 ** 6))), label="limit")
    with tempfile.TemporaryDirectory() as tmp:
        out = f"{tmp}/out.json"
        argv = ["--results-dir", f"{tmp}/results", command]
        if command != "sbp":
            argv += ["--profile", "pure"]
        argv += [f"--n={n}", f"--k={k}", f"--p={p}", f"--gamma={gamma}",
                 f"--limit={limit}"]
        if command == "simulate":
            trials = data.draw(st.integers(-1, 4), label="trials")
            argv += [f"--trials={trials}", "--threads=1", f"--out={out}"]
        else:
            grid = data.draw(st.integers(-2, 64), label="grid_points")
            argv += [f"--grid-points={grid}",
                     f"--out-trace={out}" if command == "sbp" else f"--out={out}"]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2)
        with contextlib.suppress(FileNotFoundError), open(out) as fh:
            assert all_finite(json.load(fh))

