"""Seeded random streams: one counter-based Philox generator per (seed, domain).

Every random draw in cort comes from a stream keyed by [seed mod 2^64,
domain].  Distinct domains let one integer seed drive independent streams for
the message, the generator matrix, the channel noise and the accumulation
check, and (seed, domain) reproduces a stream bit-exactly on any platform.
"""

from __future__ import annotations

import numpy as np

MESSAGE_STREAM = 0x4D5347
GENERATOR_STREAM = 0x47454E
CHANNEL_STREAM = 0x4348414E
AEC_CHECK_STREAM = 0x414543
_MASK64 = (1 << 64) - 1


def stream(seed: int, domain: int) -> np.random.Generator:
    """The Philox generator keyed by (seed mod 2^64, domain)."""
    key = np.array([seed & _MASK64, domain], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
