"""Seeded random streams: counter-based Philox words per (seed, domain).

Every random draw in cort comes from the Philox stream keyed by [seed mod
2^64, domain], with its counter starting at 0.  Distinct domains let one
integer seed drive independent streams for the message, the generator
matrix and the channel noise, and (seed, domain) reproduces a stream
bit-exactly on any platform.

`words` returns a stream's first raw 64-bit words; `bits` and `uniforms`
convert them, and equal what a `np.random.Generator` on a Philox with that
key returns from its first draw:

- `Generator.integers(0, 2, size, dtype=np.uint8)` is numpy's buffered
  Lemire draw.  Each byte u of the raw words gives the value (2 u) >> 8,
  the top bit of u (range 2 divides 2^8, so no byte is rejected).  The
  bytes are taken from each 32-bit half low byte first, and from each
  64-bit word low half first: the little-endian bytes of the words, in
  order.
- `Generator.random(size)` turns each word w into the 53-bit double
  (w >> 11) * 2^-53, one word per value.
"""

from __future__ import annotations

import math
import threading
from functools import cache

import numpy as np

MESSAGE_STREAM = 0x4D5347
GENERATOR_STREAM = 0x47454E
CHANNEL_STREAM = 0x4348414E
_MASK64 = (1 << 64) - 1
_ZERO4 = (0, 0, 0, 0)


@cache
def _shared_philox():
    """The one Philox that `words` re-keys, with the lock that keeps each
    re-key and its draw together.  Built on first use, like numpy.random;
    its construction seed is never read, as `words` sets the whole state."""
    return threading.Lock(), np.random.Philox(0)


def words(seed: int, domain: int, count: int) -> np.ndarray:
    """The first count raw 64-bit words of the (seed, domain) stream.

    Setting the state re-keys the shared Philox and resets its counter,
    buffer and half-word carry, so no call sees another's state.
    """
    lock, philox = _shared_philox()
    with lock:
        philox.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZERO4, "key": (seed & _MASK64, domain)},
            "buffer": _ZERO4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        return philox.random_raw(count)


def bits(seed: int, domain: int, shape) -> np.ndarray:
    """Fair uint8 bits of the given shape (an int or a tuple); the
    stream's `Generator.integers(0, 2, shape, dtype=np.uint8)`."""
    count = math.prod(shape) if isinstance(shape, tuple) else shape
    raw = words(seed, domain, -(-count // 8))
    return (raw.astype("<u8", copy=False).view(np.uint8)[:count] >> 7).reshape(shape)


def uniforms(seed: int, domain: int, count: int) -> np.ndarray:
    """count doubles in [0, 1); the stream's `Generator.random(count)`."""
    return (words(seed, domain, count) >> 11) * 2.0 ** -53
