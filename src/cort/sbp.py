"""Successive bit placement: greedy profile optimization.

Starting from the single-bit profile s(t) = 1, each step inserts one more
message bit at the position j whose suffix-wide increment (s(t) += 1 for
t >= j) minimizes the total error bound, evaluated with the bit count the
candidate profile actually carries.  Ties go to the smallest j.

A step evaluates its n candidates in numpy batches (`candidate_sweep`),
bit for bit equal to evaluating each candidate profile alone.  The
candidates' stage levels and ends are derived from the current profile's,
the step's record is read from the sweep, and only the winner is built as
a TreeProfile, for the next step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import (MomentTables, _check_limit, _require_match, batch_rows,
                     bound_values)
# d_e_g is not called here but stays importable from this module, where
# perfbench's tracer looks it up by name
from .bounds import d_e_g  # noqa: F401
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


class Sweep(NamedTuple):
    """The bounds of every insertion position of a step, in position order:
    entry j - 1 of each (n,) array is candidate j's."""

    d_cle_g: np.ndarray
    varrho_star: np.ndarray
    d_cfe_g: np.ndarray
    rho_star: np.ndarray

    @property
    def d_e_g(self) -> np.ndarray:
        return self.d_cle_g + self.d_cfe_g


def candidate_stages(current: TreeProfile):
    """The n candidates of a sweep from `current` in two groups of equal
    stage count, each as (positions, levels, ends): the 1-based positions j
    in increasing order and the (len(j), stages + 1) int64 stage levels and
    ends (see TreeProfile) of the profiles s + (t >= j)."""
    h_f = current.num_stages
    levels = np.array(current.levels)
    ends = np.array(current.ends)
    branching = ends[:-1] + 1
    # j = b_m keeps the stages and adds 1 to the levels from stage m on
    m = np.arange(1, h_f + 1)[:, None]
    same = (branching, levels + (np.arange(h_f + 1) >= m),
            np.broadcast_to(ends, (h_f, h_f + 1)))
    # any other j, inside stage m, becomes a branching time: level
    # s(j) + 1 and end j - 1 enter after index m, and later levels gain 1
    other = np.ones(current.n + 1, dtype=bool)
    other[0] = False
    other[branching] = False
    j = np.flatnonzero(other)
    m = np.searchsorted(branching, j, side="right")[:, None]
    i = np.arange(h_f + 2)
    after = i > m
    more = (j, levels[i - after] + after,
            np.where(i == m, j[:, None] - 1, ends[i - after]))
    return same, more


def candidate_sweep(current: TreeProfile, cm: CostModel, limit: float,
                    tables: MomentTables) -> Sweep:
    """The bounds of every insertion position, in position order.

    Candidate j adds the bit at every t >= j, so the n candidates are
    distinct: at t = j candidate j has s(j) + 1 and every later one s(j).
    Each is an (n, k+1) profile, evaluated with its own bit count everywhere
    the bound formulas involve k, and its bounds equal those of
    `d_e_g(profile_from_s(n, k + 1, s + (t >= j)))`.  A candidate keeps the
    stage count h_f when j is a branching time and has h_f + 1 otherwise;
    each group is evaluated in batches of `batch_rows` candidates, from
    the window table of `tables`.
    """
    n, k = current.n, current.k + 1
    _check_limit(limit)
    _require_match(tables, n, cm)
    values = np.empty((4, n))
    for positions, levels, ends in candidate_stages(current):
        rows = batch_rows(levels.shape[1] - 1, len(tables.grid))
        for lo in range(0, len(positions), rows):
            batch = slice(lo, lo + rows)
            values[:, positions[batch] - 1] = bound_values(
                levels[batch], ends[batch], k, limit, tables)
    return Sweep(*values)


def sbp_optimize(n: int, k: int, cm: CostModel, limit: float,
                 tables: MomentTables) -> SbpTrace:
    """Place k message bits greedily; returns the trace and final profile.

    Runs k-1 placement steps (the first bit is fixed at t = 1 by the all-ones
    start), each sweeping all n insertion positions: at most (k-1) n bound
    evaluations total, batched per step, all reading the window table of
    `tables`.
    Each step's SbpStep record is the winner's entry of the sweep; only the
    winner is built as a profile.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < 1:
        raise ValueError("n must be at least 1")
    profile = profile_from_s(n, 1, [1] * n)
    steps = []
    for step in range(1, k):
        sweep = candidate_sweep(profile, cm, limit, tables)
        # argmin takes the first minimum: ties go to the smallest j
        i = int(np.argmin(sweep.d_e_g))
        s = np.asarray(profile.s, dtype=np.int64)
        s[i:] += 1
        profile = profile_from_s(n, profile.k + 1, s)
        cle, varrho, cfe, rho = (float(v[i]) for v in sweep)
        steps.append(SbpStep(step=step, position=i + 1, d_e_g=cle + cfe,
                             d_cle_g=cle, d_cfe_g=cfe, varrho_star=varrho,
                             rho_star=rho))
    return SbpTrace(steps=tuple(steps), final_profile=profile)
