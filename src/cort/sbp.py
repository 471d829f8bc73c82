"""Successive bit placement: greedy profile optimization.

Starting from the single-bit profile s(t) = 1, each step inserts one more
message bit at the position j whose suffix-wide increment (s(t) += 1 for
t >= j) minimizes the total error bound, evaluated with the bit count the
candidate profile actually carries.  Ties go to the smallest j.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .bounds import BoundReport, MomentTables, d_e_g
from .measure import CostModel
from .tree_code import TreeProfile, profile_from_s


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
                    tables: MomentTables):
    """Evaluate the bound for every insertion position.

    Candidate j adds the bit at every t >= j, so the n candidates are
    distinct: at t = j candidate j has s(j) + 1 and every later one s(j).
    Returns [(position, BoundReport)] in position order; each candidate is an
    (n, k+1) profile and is evaluated as such (its own bit count everywhere
    the bound formulas involve k).
    """
    s = np.asarray(current.s, dtype=np.int64)
    out = []
    for j in range(1, current.n + 1):
        cand = s.copy()
        cand[j - 1:] += 1
        prof = profile_from_s(current.n, current.k + 1, cand)
        out.append((j, d_e_g(prof, cm, limit, tables)))
    return out


def sbp_optimize(n: int, k: int, cm: CostModel, limit: float,
                 tables: MomentTables) -> SbpTrace:
    """Place k message bits greedily; returns the trace and final profile.

    Runs k-1 placement steps (the first bit is fixed at t = 1 by the all-ones
    start), each scanning all n insertion positions: at most (k-1) n bound
    evaluations total.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < 1:
        raise ValueError("n must be at least 1")
    profile = profile_from_s(n, 1, [1] * n)
    steps = []
    for step in range(1, k):
        best = None
        for j, report in candidate_sweep(profile, cm, limit, tables):
            if best is None or report.d_e_g < best[1].d_e_g:
                best = (j, report)
        j, report = best
        profile = report.profile
        steps.append(SbpStep(step=step, position=j, d_e_g=report.d_e_g,
                             d_cle_g=report.d_cle_g, d_cfe_g=report.d_cfe_g,
                             varrho_star=report.varrho_star,
                             rho_star=report.rho_star))
    return SbpTrace(steps=tuple(steps), final_profile=profile)
