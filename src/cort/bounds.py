"""Closed-form achievability bounds for the discounted-cost BSC decoder.

The frame-error bound splits into a computation-limit part (probability the
node-check budget L is exhausted) and a computation-free part (probability a
wrong terminal node costs no more than the transmitted one).  Both are
evaluated in closed form through per-symbol exponential moments of the cost
differences, with the Chernoff parameters vartheta = 1/(1+varrho) and
theta = 1/(1+rho) optimized over a shared grid on [0, 1].

Conventions used throughout (see the module tests for the small worked
cases that pin them down):

* A competitor path that last agrees with the transmitted message at
  branching stage h' shares its coded prefix through r_[h'] = b_{h'+1} - 1,
  so comparison windows open at the next branching time: the competitor
  moment runs over (r_[h'], r_[h]] and the transmitted-path moment over
  (r_[h'], n].  Stage h of the computation-free part compares both paths
  over (r_[h], n], so both parts read the same prefix sums at r_[h].
* Node-count weights are v_h = 2^{s(b_{h+1})} / L (the per-stage child count
  divided by the budget, averaged over competitor prefixes).
* Rows whose comparison holds with probability one - the root row h = 0 and
  the agreeing diagonal h' = h - contribute their exact weight instead of a
  Chernoff moment.  Both readings are valid upper bounds; the exact one is
  tighter and keeps the grid minimum away from the degenerate varrho = 0
  corner.

Reported values are raw (unclipped) sums; presentation layers clip to 1
(the `*_clipped` keys of `BoundReport.to_json_dict`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import CostModel
from .tree_code import TreeProfile

DEFAULT_GRID_POINTS = 10
RCU_MAX_N = 512  # largest n of rcu_exact_bsc and of `cort bound`'s rcu line


def chernoff_grid(points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Uniform grid on [0, 1] with both endpoints included."""
    if points < 2:
        raise ValueError("need at least two grid points")
    return np.linspace(0.0, 1.0, points)


class MomentTables:
    """Per-symbol log2 moments of the discounted cost, with prefix sums.

    For each grid value (through vartheta = 1/(1+grid)) and each time t:
      log_moment_abar[g, t-1] = log2 E[2^(-vartheta d_t)]   (competitor symbol)
      log_moment_a[g, t-1]    = log2 E[2^(+vartheta d_t)]   (transmitted symbol)
    prefix_abar / prefix_a hold leading-zero cumulative sums so any
    contiguous product over (t0, t1] is one subtraction.
    """

    def __init__(self, n: int, p: float, gamma: float, grid=None):
        if grid is None:
            grid = chernoff_grid()
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or np.any(grid < 0) or np.any(grid > 1):
            raise ValueError("grid values must lie in [0, 1]")
        self.n = int(n)
        self.p = float(p)
        self.gamma = float(gamma)
        self.grid = grid
        self.theta = 1.0 / (1.0 + grid)
        lam = (1.0 - p) / p
        tilt = self.theta[:, None] * gamma ** np.arange(n)[None, :]
        abar = 0.5 + 0.5 * lam ** (-tilt)
        a = (1.0 - p) + p * lam ** tilt
        self.log_moment_abar = np.log2(abar)
        self.log_moment_a = np.log2(a)
        zeros = np.zeros((len(grid), 1))
        self.prefix_abar = np.hstack([zeros, np.cumsum(self.log_moment_abar, axis=1)])
        self.prefix_a = np.hstack([zeros, np.cumsum(self.log_moment_a, axis=1)])


# Peak bytes of a batched bound evaluation per float64 element of its
# largest arrays (see _profile_elements): tracemalloc measured at most
# 8.7 B per element over sub-batches of 2^16 elements or more, at n = 1 to
# 128 and grids of 2 to 20000 points.
_BYTES_PER_ELEMENT = 12
# A batch of profiles is evaluated in sub-batches of at most this many
# elements together, unless one profile alone has more.
_BATCH_ELEMENTS = 2 ** 18


def _profile_elements(stages: int, points: int) -> int:
    """Float64 elements that the largest arrays of a bound evaluation hold
    per profile with `stages` stages on a grid of `points`: at each grid
    point the h' <= h terms of the computation-limit curve and three
    per-stage prefix-sum rows, and five arrays of agreement probabilities
    that have one entry per term."""
    terms = stages * (stages + 1) // 2
    return points * (terms + 3 * stages) + 5 * terms


def batch_rows(stages: int, points: int) -> int:
    """How many profiles with `stages` stages one batched evaluation on a
    grid of `points` takes at a time: as many as fit _BATCH_ELEMENTS, and at
    least one."""
    return max(1, _BATCH_ELEMENTS // _profile_elements(stages, points))


def bound_memory_bytes(n: int, stages: int, points: int) -> int:
    """Estimated peak memory of MomentTables plus one batched bound
    evaluation of n-time profiles with at most `stages` stages on a grid of
    `points`: 64 B per grid point and time for the tables, and
    _BYTES_PER_ELEMENT per element of the largest sub-batch (both measured
    peaks)."""
    elements = max(_profile_elements(stages, points), _BATCH_ELEMENTS)
    return 64 * points * (n + 1) + _BYTES_PER_ELEMENT * elements


def _require_match(tables: MomentTables, n: int, cm: CostModel):
    if (tables.n, tables.p, tables.gamma) != (n, cm.p, cm.gamma):
        raise ValueError(
            f"moment tables built for (n={tables.n}, p={tables.p}, "
            f"gamma={tables.gamma}) do not match the requested configuration")


def _check_limit(limit: float):
    if limit < 1:
        raise ValueError("limit must be at least 1")


def _agreement(levels: np.ndarray):
    """For each row of `levels` ((B, h_f + 1) stage levels): the probability
    2^-levels[h] that a competitor agrees through stage h, and the
    probability that it last agrees at stage h, h = 0..h_f-1."""
    through = np.exp2(-levels.astype(float))
    return through, through[:, :-1] - through[:, 1:]


def _triangle(through: np.ndarray, last: np.ndarray):
    """The T = h_f (h_f + 1) / 2 terms h' <= h of the computation-limit
    bound of B profiles with h_f stages, row by row, from their `_agreement`
    probabilities: the stage pairs h and h' ((T,) int arrays) and
    Pr(tau_h = b_h') of each profile, (B, T).  On the diagonal h' = h this is
    the probability 2^-s(b_h) of agreeing through stage h, which in the
    h = 0 root row is the unit mass the root term carries."""
    h_f = last.shape[1]
    hh = np.repeat(np.arange(h_f), np.arange(1, h_f + 1))
    hp = np.arange(len(hh)) - hh * (hh + 1) // 2
    tau = last[:, hp]
    tau[:, hh == hp] = through[:, :-1]
    return hh, hp, tau


def _curves(levels: np.ndarray, ends: np.ndarray, k: int, limit: float,
            tables: MomentTables):
    """Computation-limit and computation-free bounds of each profile at
    every grid point, two (B, G) arrays, from the (B, h_f + 1) levels and
    ends of B (n, k) profiles with h_f stages."""
    h_f = levels.shape[1] - 1
    rh = ends[:, :h_f].T
    through, last = _agreement(levels)
    hh, hp, tau = _triangle(through, last)
    diag = hh == hp
    log_tau = np.where(tau > 0, np.log2(np.maximum(tau, 1e-300)), -np.inf)
    log_v = levels[:, 1:].astype(float) - math.log2(limit)
    # log2 Pr(last agreement at stage h), from the level gap where
    # 2^-s(b_h) - 2^-s(b_{h+1}) underflows to 0
    log_last = (np.log2(-np.expm1(-math.log(2) * np.diff(levels)))
                - levels[:, :-1])
    np.log2(last, out=log_last, where=last > 0)
    del through, last

    # [h, b, g] prefix sums at r_[h]
    SA = tables.prefix_abar.T[rh]
    Dp = tables.prefix_a[:, -1] - tables.prefix_a.T[rh]
    # [(h, h'), b, g] over the h' <= h triangle, row by row: log2 of the
    # (h, h') moment (competitor over (r_[h'], r_[h]], transmitted path over
    # (r_[h'], n]), then of the term
    terms = np.empty((len(hh),) + SA.shape[1:])
    for h in range(h_f):
        row = terms[h * (h + 1) // 2:(h + 1) * (h + 2) // 2]
        np.subtract(SA[h], SA[:h + 1], out=row)
        row += Dp[:h + 1]
    terms *= tables.grid
    terms += (log_v[:, hh] + log_tau).T[..., None]
    with np.errstate(over="ignore"):
        np.exp2(terms, out=terms)
        # probability-one rows: root (0, 0) and agreeing diagonal (h, h)
        terms[diag] = np.exp2(log_v + log_tau[:, diag]).T[..., None]
        # numpy reduces this outer axis sequentially, so each (b, g) entry
        # is summed in the same order, (h, h') row by row, whatever the
        # batch.  The h' > h terms, where tau = 0, are exp2(-inf) = 0 and
        # x + 0.0 == x, so they are not evaluated: the sums equal those
        # over the full square.
        cle = terms.sum(axis=0)
        del terms, row
        # [h, b, g] in SA's memory: log2 of stage h's term over (r_[h], n]
        free = np.add(tables.prefix_abar[:, -1] - SA, Dp, out=SA)
        free += (k + log_last.T)[..., None]
        free *= tables.grid
        cfe = np.exp2(free, out=free).sum(axis=0)
    return cle, cfe


def _grid_minima(curves: np.ndarray, grid: np.ndarray):
    """Each row's minimum over the grid and the grid value attaining it;
    ties resolve to the smallest grid value."""
    i = np.argmin(curves, axis=1)
    return curves[np.arange(len(curves)), i], grid[i]


def bound_values(levels: np.ndarray, ends: np.ndarray, k: int, cm: CostModel,
                 limit: float, tables: MomentTables):
    """(d_cle_g, varrho_star, d_cfe_g, rho_star) of each of B (n, k)
    profiles that share their stage count, given as (B, h_f + 1) levels and
    ends: four (B,) arrays.  Each bound is minimized over the grid on its
    own, ties resolving to the smallest grid value, and each row's values
    do not depend on the rest of the batch."""
    _check_limit(limit)
    _require_match(tables, int(ends[0, -1]), cm)
    (cle, varrho), (cfe, rho) = (_grid_minima(c, tables.grid) for c in
                                 _curves(levels, ends, k, limit, tables))
    return cle, varrho, cfe, rho


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bound pair with the attaining grid values and the full
    configuration echoed.  Values are raw; the `*_clipped` keys of the JSON
    form clip them to 1."""

    d_cle_g: float
    d_cfe_g: float
    d_e_g: float
    varrho_star: float
    rho_star: float
    profile: TreeProfile
    p: float
    gamma: float
    limit: float

    def to_json_dict(self) -> dict:
        return {
            "n": self.profile.n,
            "k": self.profile.k,
            "p": self.p,
            "gamma": self.gamma,
            "limit": self.limit,
            "d_cle_g": self.d_cle_g,
            "d_cfe_g": self.d_cfe_g,
            "d_e_g": self.d_e_g,
            "d_cle_g_clipped": min(self.d_cle_g, 1.0),
            "d_cfe_g_clipped": min(self.d_cfe_g, 1.0),
            "d_e_g_clipped": min(self.d_e_g, 1.0),
            "varrho_star": self.varrho_star,
            "rho_star": self.rho_star,
            "profile": self.profile.to_json_dict(),
        }

    def csv_row(self) -> list:
        return [self.profile.n, self.profile.k, self.p, self.gamma, self.limit,
                self.d_cle_g, self.d_cfe_g, self.d_e_g,
                self.varrho_star, self.rho_star]


CSV_HEADER = ["n", "k", "p", "gamma", "L", "d_cle_g", "d_cfe_g", "d_e_g",
              "varrho", "rho"]


def d_e_g(profile: TreeProfile, cm: CostModel, limit: float,
          tables: MomentTables) -> BoundReport:
    """Total frame-error bound: limit part plus computation-free part, each
    minimized over the grid independently (`bound_values` of a batch of
    one)."""
    cle, varrho, cfe, rho = (float(v[0]) for v in bound_values(
        np.array([profile.levels]), np.array([profile.ends]), profile.k, cm,
        limit, tables))
    return BoundReport(d_cle_g=cle, d_cfe_g=cfe, d_e_g=cle + cfe,
                       varrho_star=varrho, rho_star=rho, profile=profile,
                       p=cm.p, gamma=cm.gamma, limit=float(limit))


def _binom_pmfs(n: int, p: float) -> np.ndarray:
    """Row l is the Binom(l, p) pmf on 0..n, by Pascal's rule: row l + 1 is
    (1 - p) row l plus p times row l shifted right by one."""
    rows = np.zeros((n + 1, n + 1))
    rows[0, 0] = 1.0
    for l in range(n):
        rows[l + 1] = (1.0 - p) * rows[l]
        rows[l + 1, 1:] += p * rows[l, :-1]
    return rows


def d_cle_m_exact(profile: TreeProfile, cm: CostModel, limit: float) -> float:
    """Exact expected-node-count bound (no Chernoff step) for gamma = 1.

    With undiscounted costs both sides of every comparison are binomial
    mismatch counts scaled by the same constant, so each window probability
    is an exact double-binomial sum.
    """
    if cm.gamma != 1.0:
        raise ValueError("exact evaluation requires gamma = 1")
    _check_limit(limit)
    n = profile.n
    r, levels = np.array(profile.ends), np.array([profile.levels])
    hh, hp, tau = _triangle(*_agreement(levels))
    # P[l1, l2] = Pr(Binom(l1, 1/2) <= Binom(l2, p))
    P = np.cumsum(_binom_pmfs(n, 0.5), axis=1) @ _binom_pmfs(n, cm.p).T
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.ldexp(1.0 / limit, levels[0, hh + 1])  # rounds as 2^level / L
        terms = v * tau[0] * P[r[hh] - r[hp], n - r[hp]]
    # a term is inf only where 2^level / L is, and nan where such an inf
    # meets an agreement probability that underflows to 0: inf there too
    terms[np.isnan(terms)] = np.inf
    # cumsum adds in (h, h') row order, one term at a time
    return float(np.cumsum(terms)[-1])


def rcu_exact_bsc(n: int, k: int, p: float) -> float:
    """Random-coding union bound for the BSC with 2^k equiprobable messages.

    Conditioning on the error weight w, a uniform competitor beats the
    transmitted word iff its distance to y is at most w, which happens with
    probability Pr(Binom(n, 1/2) <= w).
    """
    if n > RCU_MAX_N:
        raise ValueError(f"rcu_exact_bsc needs n <= {RCU_MAX_N} so that "
                         f"2^-n stays inside float64, got n = {n}")
    beat = np.cumsum(_binom_pmfs(n, 0.5)[n])
    # 2^k - 1 saturates to inf above k = 1023; as beat >= 2^-n, the clip to
    # 1 is then exact
    with np.errstate(over="ignore"):
        union = (np.ldexp(1.0, k) - 1.0) * beat
    return float(_binom_pmfs(n, p)[n] @ np.minimum(1.0, union))


def gallager_reference_bsc(n: int, k: int, p: float, rho_grid=None) -> float:
    """Independent random-coding exponent evaluation for cross-validation:
    min over rho of
        (2^k - 1)^rho [sum_y (sum_x (1/2) P(y|x)^(1/(1+rho)))^(1+rho)]^n,
    the tight competitor-count form of the classical exponent bound.

    This expression and the computation-free bound of the pure random
    profile are distinct functions of rho that coincide exactly at rho = 0
    and rho = 1, which is where the grid minimum of either lands at rates
    below capacity; comparing the two at a matched rho cross-checks the
    moment machinery through an independent algebraic path.
    """
    if rho_grid is None:
        rho_grid = chernoff_grid()
    rho_grid = np.asarray(rho_grid, dtype=float)
    log_m1 = math.log2(2 ** k - 1)
    best = np.inf
    for rho in rho_grid:
        e = 1.0 / (1.0 + rho)
        inner = 2.0 * (0.5 * ((1.0 - p) ** e + p ** e)) ** (1.0 + rho)
        with np.errstate(over="ignore"):
            value = 2.0 ** (log_m1 * rho + n * math.log2(inner))
        best = min(best, value)
    return float(best)
