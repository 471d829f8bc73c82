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
  (r_[h'], n].
* Node-count weights are v_h = 2^{s(b_{h+1})} / L (the per-stage child count
  divided by the budget, averaged over competitor prefixes).
* Rows whose comparison holds with probability one - the root row h = 0 and
  the agreeing diagonal h' = h - contribute their exact weight instead of a
  Chernoff moment.  Both readings are valid upper bounds; the exact one is
  tighter and keeps the grid minimum away from the degenerate varrho = 0
  corner.

Reported values are raw (unclipped) sums; presentation layers clip to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .measure import CostModel
from .tree_code import TreeProfile

DEFAULT_GRID_POINTS = 10


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

    def __init__(self, n: int, p: float, gamma: float,
                 grid=None):
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

    def matches(self, profile: TreeProfile, cm: CostModel) -> bool:
        return (self.n == profile.n and self.p == cm.p and self.gamma == cm.gamma)


def bound_memory_bytes(n: int, stages: int, points: int) -> int:
    """Estimated peak memory of MomentTables plus one bound evaluation on a
    grid of `points`: 64 B per grid point and time for the tables, and 56 B
    per grid point and (h, h') stage pair for the computation-limit terms
    (both measured peaks)."""
    return points * (64 * (n + 1) + 56 * stages * stages)


def _require_match(tables: MomentTables, profile: TreeProfile, cm: CostModel):
    if not tables.matches(profile, cm):
        raise ValueError(
            f"moment tables built for (n={tables.n}, p={tables.p}, "
            f"gamma={tables.gamma}) do not match the requested configuration")


def tau_distribution(profile: TreeProfile) -> np.ndarray:
    """Full-depth agreement-stage distribution over h = 0..h_f; the terminal
    entry 2^-k is the probability the competitor equals the message."""
    lv = np.exp2(-np.asarray(profile.levels, dtype=float))
    return np.append(lv[:-1] - lv[1:], 2.0 ** -profile.k)


def _tau_matrix(profile: TreeProfile) -> np.ndarray:
    """Lower-triangular [h, h'] -> Pr(tau_h = b_h').  Its diagonal is the
    probability 2^-s(b_h) of agreeing through stage h, which in the h = 0
    root row is the unit mass the root term carries."""
    h_f = profile.num_stages
    tau = np.tril(np.tile(tau_distribution(profile)[:h_f], (h_f, 1)))
    np.fill_diagonal(tau, np.exp2(-np.asarray(profile.levels[:h_f], dtype=float)))
    return tau


def _cle_curve(profile: TreeProfile, cm: CostModel, limit: float,
               tables: MomentTables) -> np.ndarray:
    """Computation-limit bound evaluated at every grid point."""
    _require_match(tables, profile, cm)
    h_f = profile.num_stages
    rh = np.asarray(profile.ends[:h_f])
    tau = _tau_matrix(profile)
    log_tau = np.where(tau > 0, np.log2(np.maximum(tau, 1e-300)), -np.inf)
    log_v = np.asarray(profile.levels[1:], dtype=float) - math.log2(limit)

    SA = tables.prefix_abar[:, rh]
    SB = tables.prefix_a[:, rh]
    SB_n = tables.prefix_a[:, -1]
    # log2 of the (h, h') moment: competitor over (r_[h'], r_[h]],
    # transmitted path over (r_[h'], n].
    M = (SA[:, :, None] - SA[:, None, :]) + (SB_n[:, None, None] - SB[:, None, :])
    log_terms = log_v[None, :, None] + log_tau[None, :, :] \
        + tables.grid[:, None, None] * M
    terms = np.exp2(log_terms)
    # probability-one rows: root (0, 0) and agreeing diagonal (h, h)
    diag = np.arange(h_f)
    terms[:, diag, diag] = np.exp2(log_v + log_tau[diag, diag])[None, :]
    mask = np.tril(np.ones((h_f, h_f), dtype=bool))
    return np.where(mask[None, :, :], terms, 0.0).sum(axis=(1, 2))


def _cfe_curve(profile: TreeProfile, cm: CostModel,
               tables: MomentTables) -> np.ndarray:
    """Computation-free bound evaluated at every grid point."""
    _require_match(tables, profile, cm)
    h_f = profile.num_stages
    rh = np.asarray(profile.ends[:h_f])
    log_w = profile.k + np.log2(tau_distribution(profile)[:h_f])
    S = (tables.prefix_abar[:, -1][:, None] - tables.prefix_abar[:, rh]) \
        + (tables.prefix_a[:, -1][:, None] - tables.prefix_a[:, rh])
    return np.exp2(tables.grid[:, None] * (log_w[None, :] + S)).sum(axis=1)


def d_cle_g(profile: TreeProfile, cm: CostModel, limit: float,
            tables: MomentTables):
    """Grid-minimized computation-limit bound; returns (value, varrho_star).

    Ties resolve to the smallest grid value.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    curve = _cle_curve(profile, cm, limit, tables)
    i = int(np.argmin(curve))
    return float(curve[i]), float(tables.grid[i])


def d_cfe_g(profile: TreeProfile, cm: CostModel, tables: MomentTables):
    """Grid-minimized computation-free bound; returns (value, rho_star)."""
    curve = _cfe_curve(profile, cm, tables)
    i = int(np.argmin(curve))
    return float(curve[i]), float(tables.grid[i])


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bound pair with the attaining grid values and the full
    configuration echoed.  Values are raw; `*_clipped` clip to 1 for
    presentation."""

    d_cle_g: float
    d_cfe_g: float
    d_e_g: float
    varrho_star: float
    rho_star: float
    profile: TreeProfile
    p: float
    gamma: float
    limit: float

    @property
    def d_cle_g_clipped(self) -> float:
        return min(self.d_cle_g, 1.0)

    @property
    def d_cfe_g_clipped(self) -> float:
        return min(self.d_cfe_g, 1.0)

    @property
    def d_e_g_clipped(self) -> float:
        return min(self.d_e_g, 1.0)

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
            "d_cle_g_clipped": self.d_cle_g_clipped,
            "d_cfe_g_clipped": self.d_cfe_g_clipped,
            "d_e_g_clipped": self.d_e_g_clipped,
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
    minimized over the grid independently."""
    cle, varrho = d_cle_g(profile, cm, limit, tables)
    cfe, rho = d_cfe_g(profile, cm, tables)
    return BoundReport(d_cle_g=cle, d_cfe_g=cfe, d_e_g=cle + cfe,
                       varrho_star=varrho, rho_star=rho, profile=profile,
                       p=cm.p, gamma=cm.gamma, limit=float(limit))


def _binom_order_table(n: int, p: float) -> np.ndarray:
    """P[l1, l2] = Pr(Binom(l1, 1/2) <= Binom(l2, p)) for all l1, l2 <= n."""
    vals = np.arange(n + 1)
    pmf = np.vstack([stats.binom.pmf(vals, l2, p) for l2 in range(n + 1)])
    cdf_half = np.vstack([stats.binom.cdf(vals, l1, 0.5) for l1 in range(n + 1)])
    return cdf_half @ pmf.T


def d_cle_m_exact(profile: TreeProfile, cm: CostModel, limit: float) -> float:
    """Exact expected-node-count bound (no Chernoff step) for gamma = 1.

    With undiscounted costs both sides of every comparison are binomial
    mismatch counts scaled by the same constant, so each window probability
    is an exact double-binomial sum.
    """
    if cm.gamma != 1.0:
        raise ValueError("exact evaluation requires gamma = 1")
    if limit < 1:
        raise ValueError("limit must be at least 1")
    n = profile.n
    h_f = profile.num_stages
    r, levels = profile.ends, profile.levels
    tau = _tau_matrix(profile)
    P = _binom_order_table(n, cm.p)
    total = 0.0
    for h in range(h_f):
        v = 2.0 ** float(levels[h + 1]) / limit
        for hp in range(h + 1):
            total += v * tau[h, hp] * P[r[h] - r[hp], n - r[hp]]
    return total


def rcu_exact_bsc(n: int, k: int, p: float) -> float:
    """Random-coding union bound for the BSC with 2^k equiprobable messages.

    Conditioning on the error weight w, a uniform competitor beats the
    transmitted word iff its distance to y is at most w, which happens with
    probability Pr(Binom(n, 1/2) <= w).
    """
    if n > 512:
        raise ValueError("binomial tables limited to n <= 512")
    w = np.arange(n + 1)
    weight_pmf = np.exp(stats.binom.logpmf(w, n, p))
    union = np.minimum(1.0, (2.0 ** k - 1.0) * stats.binom.cdf(w, n, 0.5))
    return float(weight_pmf @ union)


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
        value = 2.0 ** (log_m1 * rho + n * math.log2(inner))
        best = min(best, value)
    return float(best)
