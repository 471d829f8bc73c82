"""What a fresh `cort` process loads.

numpy is the only runtime dependency: `cort sbp`, `cort bound`, a one-worker
`cort simulate` and the two exact references (`d_cle_m_exact` and
`rcu_exact_bsc`) must load no scipy (hundreds of modules and about a second of
start-up), and the one-worker run no process pool.  `import cort, cort.cli`
alone must not load numpy.random either, which the first random stream
loads.  The exact references still return their pinned values.
"""

import json
import subprocess
import sys
from pathlib import Path

import cort

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = r"""
import json
import sys

sys.path.insert(0, sys.argv[1])
import cort
import cort.cli

random_at_import = "numpy.random" in sys.modules
results = sys.argv[2]
codes = [
    cort.cli.main(["--results-dir", results, "sbp", "--n", "12", "--k", "4",
                   "--p", "0.05", "--limit", "128"]),
    cort.cli.main(["--results-dir", results, "simulate", "--profile", "pure",
                   "--n", "8", "--k", "3", "--p", "0.05", "--limit", "64",
                   "--trials", "20", "--seed", "1", "--threads", "1"]),
    cort.cli.main(["--results-dir", results, "bound", "--profile", "pure",
                   "--n", "16", "--k", "8", "--p", "0.05"]),
]
cm = cort.CostModel(channel=cort.BscChannel(0.05), gamma=1.0, n=32)
profile = cort.profile_from_s(32, 8, (6,) * 14 + (8,) * 18)
exact = cort.d_cle_m_exact(profile, cm, 4096)
rcu = cort.rcu_exact_bsc(2, 1, 0.1)
loaded = sorted(name for name in sys.modules
                if name == "scipy" or name.startswith("scipy.")
                or name == "concurrent.futures.process")
print(json.dumps({"codes": codes, "loaded": loaded, "exact": exact,
                  "rcu": rcu, "random_at_import": random_at_import}))
"""


def test_commands_load_neither_scipy_nor_the_pool(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC), str(tmp_path / "results")],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout.splitlines()[-1])
    assert doc["codes"] == [0, 0, 0]
    assert doc["loaded"] == []
    assert doc["random_at_import"] is False
    # The values tests/test_sbp.py and tests/test_bounds.py pin.
    assert doc["exact"] == 0.017599311673679792
    assert abs(doc["rcu"] - 0.3475) < 1e-12


def test_public_api():
    # A new export must name its caller (the CLI, the paper or perfbench) in
    # CHANGES.md; a name only a test uses stays in its module.
    assert set(cort.__all__) == {
        "BoundReport", "BscChannel", "CostModel", "DecodeOutcome",
        "GeneratorMatrix", "MomentTables", "ProfileError", "SbpStep",
        "SbpTrace", "SimStats", "TreeProfile", "TrialConfig",
        "candidate_sweep", "check_aec", "d_cle_m_exact", "d_e_g", "encode",
        "gallager_reference_bsc", "load_profile", "ml_consistency_check",
        "ml_oracle", "prefix_cost", "profile_from_arrivals",
        "profile_from_json_dict", "profile_from_s", "pure_random_profile",
        "rcu_exact_bsc", "sample_generator", "sbp_optimize", "simulate",
        "ssdgu_decode", "transmit"}
