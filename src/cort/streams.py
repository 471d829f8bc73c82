"""Seeded random streams: one counter-based Philox generator per (seed, domain).

Every random draw in cort comes from a stream keyed by [seed mod 2^64,
domain].  Distinct domains let one integer seed drive independent streams for
the message, the generator matrix, the channel noise and the accumulation
check, and (seed, domain) reproduces a stream bit-exactly on any platform.
"""

from __future__ import annotations

from functools import cache

import numpy as np

MESSAGE_STREAM = 0x4D5347
GENERATOR_STREAM = 0x47454E
CHANNEL_STREAM = 0x4348414E
AEC_CHECK_STREAM = 0x414543
_MASK64 = (1 << 64) - 1


@cache
def _keyed_sequence() -> type:
    """A seed sequence whose state is a given Philox key.

    Handing Philox this instead of key= skips the SeedSequence it would
    otherwise build from fresh OS entropy and then discard; the key, the
    zero counter and so every draw are the same.  Defined on first use so
    that importing cort does not load numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class KeyedSequence(ISeedSequence):
        def __init__(self, key: list):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint64):
            # Philox asks for its two 64-bit key words.
            return np.array(self.key, dtype=np.uint64)

    return KeyedSequence


def stream(seed: int, domain: int) -> np.random.Generator:
    """The Philox generator keyed by (seed mod 2^64, domain)."""
    key = _keyed_sequence()([seed & _MASK64, domain])
    return np.random.Generator(np.random.Philox(key))
