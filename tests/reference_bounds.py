"""Reference forms of the two bound parts, kept so that tests can require
the evaluations in `cort.bounds` to return the same bytes.

`full_square_cle_curves` is the form that the triangular limit pass of
`cort.bounds._curves` replaced: it evaluates every (h, h') term, including
the h' > h terms that are exp2(-inf) = 0, and overwrites the diagonal after
the exponential.  It
builds its own agreement probabilities and tau matrix from 2^-levels, so it
shares no code with the triangle it checks.

`per_stage_cfe_curves` is the computation-free pass that `_curves` folded
into its limit pass: it gathers the window sums at r_[h] and the
last-agreement probabilities on its own.

`term_loop_cle_m_exact` is the term-by-term loop that `d_cle_m_exact`'s
gather replaced; it shares its inputs, `_triangle` and
`_window_probabilities`, and checks only the gather and the summation
order.
"""

from __future__ import annotations

import math

import numpy as np

from cort import MomentTables
from cort.bounds import _agreement, _triangle, _window_probabilities


def full_square_cle_curves(levels: np.ndarray, ends: np.ndarray,
                           limit: float, tables: MomentTables) -> np.ndarray:
    """Computation-limit bound of each profile at every grid point, (B, G),
    from the (B, h_f + 1) levels and ends of B profiles with h_f stages."""
    h_f = levels.shape[1] - 1
    rh = ends[:, :h_f].T
    # [b, h, h'] -> log2 Pr(tau_h = b_h'): of the probability 2^-levels[h'] -
    # 2^-levels[h' + 1] of last agreeing at stage h' below the diagonal
    # (from the level gap where that difference underflows to 0),
    # -levels[h] on it, -inf above it
    through = np.exp2(-levels.astype(float))
    last = through[:, :-1] - through[:, 1:]
    gap = np.log2(-np.expm1(-math.log(2) * np.diff(levels))) - levels[:, :-1]
    log_last = np.where(last > 0, np.log2(np.where(last > 0, last, 1.0)), gap)
    diag = np.arange(h_f)
    below = diag[:, None] > diag[None, :]
    log_tau = np.where(below, log_last[:, None, :], -np.inf)
    log_tau[:, diag, diag] = -levels[:, :-1]
    log_v = levels[:, 1:].astype(float) - math.log2(limit)

    # [h, b, g] prefix sums at r_[h]
    SA = tables.prefix_abar.T[rh]
    SB = tables.prefix_a.T[rh]
    SB_n = tables.prefix_a[:, -1]
    # [h, h', b, g]: log2 of the (h, h') moment, then of the term
    terms = np.empty((h_f, h_f) + SA.shape[1:])
    np.subtract(SA[:, None], SA[None, :], out=terms)
    terms += SB_n - SB
    terms *= tables.grid
    terms += (log_v[:, :, None] + log_tau).transpose(1, 2, 0)[..., None]
    with np.errstate(over="ignore"):
        np.exp2(terms, out=terms)
        terms[diag, diag] = np.exp2(log_v + log_tau[:, diag, diag]).T[..., None]
    return terms.sum(axis=(0, 1))


def per_stage_cfe_curves(levels: np.ndarray, ends: np.ndarray, k: int,
                         tables: MomentTables) -> np.ndarray:
    """Computation-free bound of each profile at every grid point, (B, G),
    from the (B, h_f + 1) levels and ends of B (n, k) profiles with h_f
    stages."""
    rh = ends[:, :-1].T
    _, tau = _agreement(levels)
    log_w = k + np.log2(tau.T)
    abar, a = tables.prefix_abar, tables.prefix_a
    # [h, b, g], summed over h in order
    S = (abar[:, -1] - abar.T[rh]) + (a[:, -1] - a.T[rh])
    with np.errstate(over="ignore"):
        return np.exp2(tables.grid * (log_w[..., None] + S)).sum(axis=0)


def term_loop_cle_m_exact(profile, cm, limit: float) -> float:
    """`d_cle_m_exact`, one Python float term at a time, (h, h') row by
    row."""
    n, r, levels = profile.n, profile.ends, profile.levels
    hh, hp, tau = _triangle(*_agreement(np.array([levels])))
    P = _window_probabilities(n, cm.p)
    total = 0.0
    for i, (h, h_prime) in enumerate(zip(hh.tolist(), hp.tolist())):
        v = 2.0 ** float(levels[h + 1]) / limit
        total += v * tau[0, i] * P[r[h] - r[h_prime], n - r[h_prime]]
    return float(total)
