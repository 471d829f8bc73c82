import sys
import threading

import numpy as np
import pytest

from cort import streams

SEEDS = [0, 1, -1, 2 ** 63, 2 ** 64 - 1, 2 ** 64 + 5]
DOMAINS = [streams.MESSAGE_STREAM, streams.GENERATOR_STREAM,
           streams.CHANNEL_STREAM]
SHAPES = [1, 5, 13, 255, (7, 3), (32, 8), (128, 64)]


def reference(seed, domain):
    """An independent Generator on the stream's Philox key."""
    key = np.array([seed & (2 ** 64 - 1), domain], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("seed", SEEDS)
def test_bits_equal_generator_integers(seed, domain):
    for shape in SHAPES:
        expected = reference(seed, domain).integers(0, 2, shape, dtype=np.uint8)
        got = streams.bits(seed, domain, shape)
        assert got.dtype == np.uint8 and got.shape == expected.shape
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("seed", SEEDS)
def test_uniforms_equal_generator_random(seed, domain):
    for count in (1, 5, 13, 255):
        expected = reference(seed, domain).random(count)
        got = streams.uniforms(seed, domain, count)
        assert got.dtype == np.float64
        assert np.array_equal(got, expected)


def test_words_are_the_raw_stream():
    expected = reference(3, streams.CHANNEL_STREAM).bit_generator.random_raw(9)
    assert np.array_equal(streams.words(3, streams.CHANNEL_STREAM, 9), expected)


def test_interleaved_draws_equal_fresh_draws():
    rng = np.random.default_rng(5)
    calls = []
    for _ in range(200):
        seed = SEEDS[int(rng.integers(len(SEEDS)))] + int(rng.integers(50))
        domain = DOMAINS[int(rng.integers(len(DOMAINS)))]
        count = int(rng.integers(1, 40))
        calls.append((seed, domain, count, bool(rng.integers(2))))
    for seed, domain, count, as_bits in calls:
        fresh = reference(seed, domain)
        if as_bits:
            assert np.array_equal(streams.bits(seed, domain, count),
                                  fresh.integers(0, 2, count, dtype=np.uint8))
        else:
            assert np.array_equal(streams.uniforms(seed, domain, count),
                                  fresh.random(count))


def test_threads_sharing_the_philox_get_their_own_draws():
    # More threads than cores, switching often, each checking its draws
    # against a precomputed reference: a re-key between another thread's
    # re-key and draw would show as a mismatch.
    seeds = range(40)
    want = {s: reference(s, streams.MESSAGE_STREAM).integers(
        0, 2, 64, dtype=np.uint8) for s in seeds}
    mismatches = []
    finished = []

    def work(offset):
        for i in range(300):
            s = (i + offset) % len(seeds)
            if not np.array_equal(streams.bits(s, streams.MESSAGE_STREAM, 64),
                                  want[s]):
                mismatches.append(s)
        finished.append(offset)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(7 * t,))
                   for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(finished) == len(threads)
    assert mismatches == []
