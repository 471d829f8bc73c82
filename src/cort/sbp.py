"""Successive bit placement: greedy profile optimization.

Starting from the single-bit profile s(t) = 1, each step inserts one more
message bit at the position j whose suffix-wide increment (s(t) += 1 for
t >= j) minimizes the total error bound, evaluated with the bit count the
candidate profile actually carries.  Ties go to the smallest j.

A step evaluates its n candidates in numpy batches (`candidate_sweep`),
bit for bit equal to evaluating each candidate profile alone, and builds
only the winner as a TreeProfile.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .bounds import MomentTables, batch_rows, d_e_g, d_e_g_values
from .measure import CostModel
from .tree_code import TreeProfile, profile_from_s, stage_rows


@dataclass(frozen=True)
class SbpStep:
    """One placement: which position was chosen and the bound it achieved."""

    step: int
    position: int  # 1-based insertion time
    d_e_g: float
    d_cle_g: float
    d_cfe_g: float
    varrho_star: float
    rho_star: float


@dataclass(frozen=True)
class SbpTrace:
    """Full optimization record: k-1 placement steps and the final profile."""

    steps: tuple
    final_profile: TreeProfile

    def to_json_dict(self) -> dict:
        return {
            "steps": [
                {"step": st.step, "position": st.position, "d_e_g": st.d_e_g,
                 "d_cle_g": st.d_cle_g, "d_cfe_g": st.d_cfe_g,
                 "varrho": st.varrho_star, "rho": st.rho_star}
                for st in self.steps
            ],
            "final_profile": self.final_profile.to_json_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def candidate_sweep(current: TreeProfile, cm: CostModel, limit: float,
                    tables: MomentTables) -> np.ndarray:
    """The bound d_e_g of every insertion position, in position order.

    Candidate j adds the bit at every t >= j, so the n candidates are
    distinct: at t = j candidate j has s(j) + 1 and every later one s(j).
    Each is an (n, k+1) profile, evaluated with its own bit count everywhere
    the bound formulas involve k, and its value equals that of
    `d_e_g(profile_from_s(n, k + 1, s + (t >= j)))`.  A candidate keeps the
    stage count h_f when j is a branching time and has h_f + 1 otherwise;
    each group is evaluated in batches of `batch_rows` candidates.
    """
    n, k = current.n, current.k + 1
    s = np.asarray(current.s, dtype=np.int64)
    t = np.arange(1, n + 1)
    branching = np.concatenate([[True], np.diff(s) > 0])
    values = np.empty(n)
    for positions, stages in ((t[branching], current.num_stages),
                              (t[~branching], current.num_stages + 1)):
        rows = batch_rows(n, stages, len(tables.grid))
        for lo in range(0, len(positions), rows):
            j = positions[lo:lo + rows]
            levels, ends = stage_rows(s + (t >= j[:, None]))
            values[j - 1] = d_e_g_values(levels, ends, k, cm, limit, tables)
    return values


def sbp_optimize(n: int, k: int, cm: CostModel, limit: float,
                 tables: MomentTables) -> SbpTrace:
    """Place k message bits greedily; returns the trace and final profile.

    Runs k-1 placement steps (the first bit is fixed at t = 1 by the all-ones
    start), each sweeping all n insertion positions: at most (k-1) n bound
    evaluations total, batched per step.  Only each step's winner is built
    as a profile and evaluated alone, for its SbpStep record.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < 1:
        raise ValueError("n must be at least 1")
    profile = profile_from_s(n, 1, [1] * n)
    steps = []
    for step in range(1, k):
        # argmin takes the first minimum: ties go to the smallest j
        j = int(np.argmin(candidate_sweep(profile, cm, limit, tables))) + 1
        s = np.asarray(profile.s, dtype=np.int64)
        s[j - 1:] += 1
        profile = profile_from_s(n, profile.k + 1, s)
        report = d_e_g(profile, cm, limit, tables)
        steps.append(SbpStep(step=step, position=j, d_e_g=report.d_e_g,
                             d_cle_g=report.d_cle_g, d_cfe_g=report.d_cfe_g,
                             varrho_star=report.varrho_star,
                             rho_star=report.rho_star))
    return SbpTrace(steps=tuple(steps), final_profile=profile)
