"""Discounted accumulating-error-cost measures for the BSC.

The cost of a coded prefix against the channel output is
    sum_t  gamma^(t-1) * Delta * [x_t != y_t],
with Delta = log2((1-p)/p).  Every per-symbol term is non-negative, so the
prefix cost never decreases as the prefix grows (the accumulating property
the sequential decoder relies on).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import BscChannel


@dataclass(frozen=True, eq=False)
class CostModel:
    """Per-symbol mismatch penalties gamma^(t-1) * Delta, precomputed for n uses.

    gamma in (0, 1] discounts later symbols.
    """

    channel: BscChannel
    gamma: float
    n: int
    per_symbol_cost: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        w = self.channel.llr_scale * self.gamma ** np.arange(self.n)
        w.setflags(write=False)
        object.__setattr__(self, "per_symbol_cost", w)

    @property
    def p(self) -> float:
        return self.channel.p


def prefix_cost(cm: CostModel, x_prefix, y) -> float:
    """Cost of a coded prefix against the first |x_prefix| output symbols."""
    x = np.asarray(x_prefix, dtype=np.uint8)
    y = np.asarray(y, dtype=np.uint8)
    if len(x) > len(y):
        raise ValueError(f"prefix length {len(x)} exceeds output length {len(y)}")
    t = len(x)
    return float(cm.per_symbol_cost[:t] @ (x != y[:t]))


def check_aec(cm) -> bool:
    """Whether prefix costs never decrease in t, for every (x, y) pair.

    Symbol t adds w_t * [x_t != y_t] to the prefix cost, and some pair
    differs only at t, so the property holds exactly when every per-symbol
    cost w_t is >= 0; a NaN cost fails, as nan >= 0 is false.  Works for any
    object exposing per_symbol_cost.  Always true for CostModel instances.
    """
    return bool(np.all(np.asarray(cm.per_symbol_cost, dtype=float) >= 0.0))
