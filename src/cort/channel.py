"""Binary symmetric channel model and transmission sampling."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .streams import CHANNEL_STREAM, uniforms


@dataclass(frozen=True)
class BscChannel:
    """Memoryless binary symmetric channel with crossover probability p.

    Requires 0 < p < 1/2 so the per-symbol log-likelihood scale
    log2((1-p)/p) is positive, and p large enough for it to be finite.
    """

    p: float
    llr_scale: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.p < 0.5:
            raise ValueError(f"crossover probability must be in (0, 0.5), got {self.p}")
        llr_scale = math.log2((1.0 - self.p) / self.p)
        if llr_scale == math.inf:
            raise ValueError(f"crossover probability {self.p} is too small for "
                             "a finite log-likelihood ratio")
        object.__setattr__(self, "llr_scale", llr_scale)


def transmit(ch: BscChannel, x, seed: int) -> np.ndarray:
    """Send x through the channel: y = x XOR e with e ~ iid Bernoulli(p).

    The error pattern comes from a Philox stream keyed by
    (seed, CHANNEL_STREAM), independent of the generator-sampling stream
    for the same integer seed.
    """
    x = np.asarray(x, dtype=np.uint8)
    return x ^ (uniforms(seed, CHANNEL_STREAM, len(x)) < ch.p)

