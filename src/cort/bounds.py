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


def tau_distribution(profile: TreeProfile) -> np.ndarray:
    """Full-depth agreement-stage distribution over h = 0..h_f; the terminal
    entry 2^-k is the probability the competitor equals the message."""
    _, tau = _agreement(np.array([profile.levels]))
    return np.append(tau[0], 2.0 ** -profile.k)


def _tau_matrices(levels: np.ndarray) -> np.ndarray:
    """Lower-triangular [b, h, h'] -> Pr(tau_h = b_h') for each row b of
    `levels`.  Its diagonal is the probability 2^-s(b_h) of agreeing through
    stage h, which in the h = 0 root row is the unit mass the root term
    carries."""
    through, tau = _agreement(levels)
    rows, h_f = tau.shape
    tau = np.tril(np.broadcast_to(tau[:, None, :], (rows, h_f, h_f)))
    diag = np.arange(h_f)
    tau[:, diag, diag] = through[:, :-1]
    return tau


def _cle_curves(levels: np.ndarray, ends: np.ndarray, limit: float,
                tables: MomentTables) -> np.ndarray:
    """Computation-limit bound of each profile at every grid point, (B, G),
    from the (B, h_f + 1) levels and ends of B profiles with h_f stages."""
    h_f = levels.shape[1] - 1
    rh = ends[:, :h_f].T
    # (h, h') of each term of the h' <= h triangle, row by row
    hh = np.repeat(np.arange(h_f), np.arange(1, h_f + 1))
    hp = np.arange(len(hh)) - hh * (hh + 1) // 2
    diag = hh == hp
    # Pr(tau_h = b_h'), as in _tau_matrices
    through, tau = _agreement(levels)
    tau = tau[:, hp]
    tau[:, diag] = through[:, :-1]
    log_tau = np.where(tau > 0, np.log2(np.maximum(tau, 1e-300)), -np.inf)
    log_v = levels[:, 1:].astype(float) - math.log2(limit)

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
    # numpy reduces this outer axis sequentially, so each (b, g) entry is
    # summed in the same order, (h, h') row by row, whatever the batch.
    # The h' > h terms, where tau = 0, are exp2(-inf) = 0 and x + 0.0 == x,
    # so they are not evaluated: the sums equal those over the full square.
    return terms.sum(axis=0)


def _cfe_curves(levels: np.ndarray, ends: np.ndarray, k: int,
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


def _grid_minima(curves: np.ndarray, grid: np.ndarray):
    """Each row's minimum over the grid and the grid value attaining it;
    ties resolve to the smallest grid value."""
    i = np.argmin(curves, axis=1)
    return curves[np.arange(len(curves)), i], grid[i]


def _stage_arrays(profile: TreeProfile):
    return np.array([profile.levels]), np.array([profile.ends])


def d_cle_g(profile: TreeProfile, cm: CostModel, limit: float,
            tables: MomentTables):
    """Grid-minimized computation-limit bound; returns (value, varrho_star).

    Ties resolve to the smallest grid value.
    """
    _check_limit(limit)
    _require_match(tables, profile.n, cm)
    value, varrho = _grid_minima(
        _cle_curves(*_stage_arrays(profile), limit, tables), tables.grid)
    return float(value[0]), float(varrho[0])


def d_cfe_g(profile: TreeProfile, cm: CostModel, tables: MomentTables):
    """Grid-minimized computation-free bound; returns (value, rho_star)."""
    _require_match(tables, profile.n, cm)
    value, rho = _grid_minima(
        _cfe_curves(*_stage_arrays(profile), profile.k, tables), tables.grid)
    return float(value[0]), float(rho[0])


def bound_values(levels: np.ndarray, ends: np.ndarray, k: int, cm: CostModel,
                 limit: float, tables: MomentTables):
    """(d_cle_g, varrho_star, d_cfe_g, rho_star) of each of B (n, k)
    profiles that share their stage count, given as (B, h_f + 1) levels and
    ends: four (B,) arrays, equal to those of each profile evaluated alone
    by `d_cle_g` and `d_cfe_g`."""
    _check_limit(limit)
    _require_match(tables, int(ends[0, -1]), cm)
    cle, varrho = _grid_minima(_cle_curves(levels, ends, limit, tables),
                               tables.grid)
    cfe, rho = _grid_minima(_cfe_curves(levels, ends, k, tables), tables.grid)
    return cle, varrho, cfe, rho


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
    _check_limit(limit)
    n = profile.n
    h_f = profile.num_stages
    r, levels = profile.ends, profile.levels
    tau = _tau_matrices(np.array([profile.levels]))[0]
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
        with np.errstate(over="ignore"):
            value = 2.0 ** (log_m1 * rho + n * math.log2(inner))
        best = min(best, value)
    return float(best)
