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

The window table.  With P-bar and P the prefix sums of `MomentTables`, the
log2 moment of the window pair (t_i, t_j] at grid point g, the competitor
over (t_i, t_j] and the transmitted path over (t_i, n], is
(P-bar[g, t_j] - P-bar[g, t_i]) + (P[g, n] - P[g, t_i]).  It depends only
on the pair and on (n, p, gamma), so `MomentTables` evaluates it once, for
every pair of times 0 <= t_i <= t_j <= n: W[t_i, t_j, g] is that moment
times grid[g], W[t, t, g] = 0.0, and F[t_i, g] = (P-bar[g, n] - P-bar[g,
t_i]) + (P[g, n] - P[g, t_i]).  W is filled one row block t_j at a time
(subtract, add), then its diagonal is zeroed and the whole table scaled by
the grid, so its build holds no second full-size array.  Limit term
(h, h') is exp2(W[r_[h'], r_[h]] + log2 v_h + log2 tau[h, h']), so the
zero diagonal gives the exact weight above bit for bit; free term h is
exp2((F[r_[h]] + k + log2 Pr(last agreement at stage h)) grid[g]).
log2 tau comes from the levels, -s(b_h) on the diagonal and log2 Pr(last
agreement at h') off it, so no term is lost where 2^-s(b_h) underflows.
Every bound evaluation gathers its terms from the table of the
`MomentTables` it is given, at its profiles' ends.

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
    """Per-symbol log2 moments of the discounted cost, with prefix sums and
    the window table built from them.

    For each grid value (through vartheta = 1/(1+grid)) and each time t:
      log_moment_abar[g, t-1] = log2 E[2^(-vartheta d_t)]   (competitor symbol)
      log_moment_a[g, t-1]    = log2 E[2^(+vartheta d_t)]   (transmitted symbol)
    prefix_abar / prefix_a hold leading-zero cumulative sums so any
    contiguous product over (t0, t1] is one subtraction.  `window` row
    j (j + 1) / 2 + i holds W[i, j] and `free` row i holds F[i], each over
    the grid, for all times 0 <= i <= j <= n (see the module docstring).
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
        # the window table, one row block j at a time (subtract, add), then
        # its diagonal rows j (j + 3) / 2 zeroed and all of it scaled by the
        # grid, in place; besides it the build holds a few (n + 1, G) rows
        del tilt
        abar, a = self.prefix_abar.T.copy(), self.prefix_a.T.copy()
        a = a[-1] - a
        times = self.n + 1
        self.window = np.empty((times * (times + 1) // 2, len(grid)))
        for j in range(times):
            block = self.window[j * (j + 1) // 2:(j + 1) * (j + 2) // 2]
            np.subtract(abar[j], abar[:j + 1], out=block)
            block += a[:j + 1]
        j = np.arange(times)
        self.window[j * (j + 3) // 2] = 0.0
        self.window *= grid
        self.free = np.add(abar[-1] - abar, a, out=abar)


# Peak bytes of a batched bound evaluation per element of its largest
# arrays (see _profile_elements): tracemalloc measured at most 7.9 B per
# element over sub-batches of 2^16 elements or more, at n = 16 to 300,
# 1 to 200 stages and grids of 2 to 1000 points.
_BYTES_PER_ELEMENT = 12
# A batch of profiles is evaluated in sub-batches of at most this many
# elements together, unless one profile alone has more.
_BATCH_ELEMENTS = 2 ** 18


def _profile_elements(stages: int, points: int) -> int:
    """Elements (float64 or int64) that the largest arrays of a bound
    evaluation hold per profile with `stages` stages on a grid of `points`:
    at each grid point the h' <= h terms of the computation-limit part, the
    free part's per-stage row and both curves, and per term its
    window-table index, two index gathers and three arrays of log2
    weights."""
    terms = stages * (stages + 1) // 2
    return points * (terms + stages + 2) + 6 * terms


def batch_rows(stages: int, points: int) -> int:
    """How many profiles with `stages` stages one batched evaluation on a
    grid of `points` takes at a time: as many as fit _BATCH_ELEMENTS, and at
    least one."""
    return max(1, _BATCH_ELEMENTS // _profile_elements(stages, points))


def bound_memory_bytes(n: int, stages: int, points: int) -> int:
    """Estimated peak memory of MomentTables, with its window table over
    every pair of the n + 1 times, and one batched bound evaluation of
    n-time profiles with at most `stages` stages on a grid of `points`:
    64 B per grid point and time for the moment tables, which also covers
    the O(n points) rows the window table's build holds; 8 B per grid
    point and stored window entry; and _BYTES_PER_ELEMENT per element of
    the largest sub-batch (all measured peaks).  `d_e_g` and
    `sbp_optimize` both hold the whole table, so one estimate serves
    both."""
    entries = (n + 1) * (n + 2) // 2 + n + 1
    elements = max(_profile_elements(stages, points), _BATCH_ELEMENTS)
    return (64 * points * (n + 1) + 8 * points * entries
            + _BYTES_PER_ELEMENT * elements)


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


def _pairs(h_f: int):
    """The stage pairs h and h' ((T,) int arrays) of the T = h_f (h_f + 1) / 2
    terms h' <= h of the computation-limit bound with h_f stages, row by
    row."""
    hh = np.repeat(np.arange(h_f), np.arange(1, h_f + 1))
    return hh, np.arange(len(hh)) - hh * (hh + 1) // 2


def _triangle(through: np.ndarray, last: np.ndarray):
    """The stage pairs of `_pairs` and Pr(tau_h = b_h') of each of B
    profiles, (B, T), from their `_agreement` probabilities.  On the
    diagonal h' = h this is the probability 2^-s(b_h) of agreeing through
    stage h, which in the h = 0 root row is the unit mass the root term
    carries."""
    hh, hp = _pairs(last.shape[1])
    tau = last[:, hp]
    tau[:, hh == hp] = through[:, :-1]
    return hh, hp, tau


def _curves(levels: np.ndarray, ends: np.ndarray, k: int, limit: float,
            tables: MomentTables):
    """Computation-limit and computation-free bounds of each profile at
    every grid point, two (B, G) arrays, from the (B, h_f + 1) levels and
    ends of B (n, k) profiles with h_f stages, gathered from the window
    table of `tables` at their ends."""
    h_f = levels.shape[1] - 1
    hh, hp = _pairs(h_f)
    _, last = _agreement(levels)
    # log2 Pr(last agreement at stage h), from the level gap where
    # 2^-s(b_h) - 2^-s(b_{h+1}) underflows to 0
    log_last = (np.log2(-np.expm1(-math.log(2) * np.diff(levels)))
                - levels[:, :-1])
    np.log2(last, out=log_last, where=last > 0)
    # log2 v_h tau[h, h'] of each term: tau is 2^-s(b_h) on the diagonal
    # and the last-agreement probability of h' off it
    log_v = levels[:, 1:] - math.log2(limit)
    log_tau = np.hstack([log_last, -levels[:, :-1]])[
        :, np.where(hh == hp, h_f + hh, hp)]

    r = ends.T
    terms = np.take(tables.window, (r * (r + 1) // 2)[hh] + r[hp], axis=0)
    terms += (log_v[:, hh] + log_tau).T[..., None]
    with np.errstate(over="ignore"):
        np.exp2(terms, out=terms)
        # numpy reduces this outer axis sequentially, so each (b, g) entry
        # is summed in the same order, (h, h') row by row, whatever the
        # batch.  The h' > h terms have tau = 0 and are not evaluated.
        cle = terms.sum(axis=0)
        del terms
        free = np.take(tables.free, r[:h_f], axis=0)
        free += (k + log_last.T)[..., None]
        free *= tables.grid
        cfe = np.exp2(free, out=free).sum(axis=0)
    return cle, cfe


def bound_values(levels: np.ndarray, ends: np.ndarray, k: int, limit: float,
                 tables: MomentTables):
    """(d_cle_g, varrho_star, d_cfe_g, rho_star) of each of B (n, k)
    profiles that share their stage count, given as (B, h_f + 1) levels and
    ends, from the window table of `tables`: four (B,) arrays.  Each bound is
    minimized over the grid on its own, ties resolving to the smallest grid
    value, and each row's values do not depend on the rest of the batch."""
    values = []
    for curves in _curves(levels, ends, k, limit, tables):
        i = np.argmin(curves, axis=1)  # the first minimum
        values += [curves[np.arange(len(curves)), i], tables.grid[i]]
    return values


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
    _check_limit(limit)
    _require_match(tables, profile.n, cm)
    cle, varrho, cfe, rho = (float(v[0]) for v in bound_values(
        np.array([profile.levels]), np.array([profile.ends]), profile.k,
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


def _window_probabilities(n: int, p: float) -> np.ndarray:
    """P[l1, l2] = Pr(Binom(l1, 1/2) <= Binom(l2, p)) for l1, l2 in 0..n,
    each a sum over the value j of Binom(l2, p), added one j at a time in
    increasing order, so that no BLAS kernel sets the order."""
    below = np.cumsum(_binom_pmfs(n, 0.5), axis=1)
    P = np.zeros((n + 1, n + 1))
    for below_j, pmf_j in zip(below.T, _binom_pmfs(n, p).T):
        P += np.multiply.outer(below_j, pmf_j)
    return P


def d_cle_m_exact(profile: TreeProfile, cm: CostModel, limit: float) -> float:
    """Exact expected-node-count bound (no Chernoff step) for gamma = 1.

    With undiscounted costs both sides of every comparison are binomial
    mismatch counts scaled by the same constant, so each window probability
    is an exact double-binomial sum (`_window_probabilities`).  Every sum
    runs in a fixed order, whatever the BLAS kernel: each probability over
    increasing values, and the terms in (h, h') row order.
    """
    if cm.gamma != 1.0:
        raise ValueError("exact evaluation requires gamma = 1")
    _check_limit(limit)
    n = profile.n
    r, levels = np.array(profile.ends), np.array([profile.levels])
    hh, hp, tau = _triangle(*_agreement(levels))
    P = _window_probabilities(n, cm.p)
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
    probability Pr(Binom(n, 1/2) <= w).  The terms are added in increasing
    w by a sequential cumsum, so no BLAS kernel sets the order.
    """
    if n > RCU_MAX_N:
        raise ValueError(f"rcu_exact_bsc needs n <= {RCU_MAX_N} so that "
                         f"2^-n stays inside float64, got n = {n}")
    beat = np.cumsum(_binom_pmfs(n, 0.5)[n])
    # 2^k - 1 saturates to inf above k = 1023; as beat >= 2^-n, the clip to
    # 1 is then exact
    with np.errstate(over="ignore"):
        union = (np.ldexp(1.0, k) - 1.0) * beat
    return float(np.cumsum(_binom_pmfs(n, p)[n] * np.minimum(1.0, union))[-1])


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
