"""Reference computation-limit curves over the full (h, h') square.

This is the form that `cort.bounds._cle_curves` replaced: it evaluates every
(h, h') term, including the h' > h terms that are exp2(-inf) = 0, and
overwrites the diagonal after the exponential.  It is kept only so that
tests can require the triangular evaluation to return the same bytes, and
it builds its own agreement probabilities and tau matrix from 2^-levels, so
it shares no code with the triangle it checks.
"""

from __future__ import annotations

import math

import numpy as np

from cort import MomentTables


def full_square_cle_curves(levels: np.ndarray, ends: np.ndarray,
                           limit: float, tables: MomentTables) -> np.ndarray:
    """Computation-limit bound of each profile at every grid point, (B, G),
    from the (B, h_f + 1) levels and ends of B profiles with h_f stages."""
    h_f = levels.shape[1] - 1
    rh = ends[:, :h_f].T
    # [b, h, h'] -> Pr(tau_h = b_h'): the probability 2^-levels[h'] -
    # 2^-levels[h' + 1] of last agreeing at stage h' below the diagonal,
    # 2^-levels[h] of agreeing through stage h on it, 0 above it
    through = np.exp2(-levels.astype(float))
    last = through[:, :-1] - through[:, 1:]
    tau = np.tril(np.broadcast_to(last[:, None, :], (len(levels), h_f, h_f)))
    diag = np.arange(h_f)
    tau[:, diag, diag] = through[:, :-1]
    log_tau = np.where(tau > 0, np.log2(np.maximum(tau, 1e-300)), -np.inf)
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
