"""Toolkit for computationally optimized random tree (CORT) codes on the BSC:
closed-form error bounds under a node-check budget, greedy branching-profile
optimization, a give-up stack decoder, and Monte Carlo validation."""

__version__ = "0.1.0"

from .bounds import (BoundReport, MomentTables, d_cle_m_exact, d_e_g,
                     gallager_reference_bsc, rcu_exact_bsc)
from .channel import BscChannel, transmit
from .decoder import DecodeOutcome, ssdgu_decode
from .measure import CostModel, check_aec, prefix_cost
from .montecarlo import (SimStats, TrialConfig, ml_consistency_check,
                         ml_oracle, simulate)
from .sbp import SbpStep, SbpTrace, candidate_sweep, sbp_optimize
from .tree_code import (GeneratorMatrix, ProfileError, TreeProfile, encode,
                        load_profile, profile_from_arrivals, profile_from_s,
                        pure_random_profile, sample_generator)

__all__ = [
    "BoundReport", "BscChannel", "CostModel", "DecodeOutcome",
    "GeneratorMatrix", "MomentTables", "ProfileError", "SbpStep", "SbpTrace",
    "SimStats", "TreeProfile", "TrialConfig", "candidate_sweep",
    "check_aec", "d_cle_m_exact",
    "d_e_g", "encode", "gallager_reference_bsc", "load_profile",
    "ml_consistency_check", "ml_oracle", "prefix_cost",
    "profile_from_arrivals", "profile_from_s",
    "pure_random_profile", "rcu_exact_bsc", "sample_generator",
    "sbp_optimize", "simulate", "ssdgu_decode", "transmit",
]
