import numpy as np
import pytest

from cort import streams


@pytest.mark.parametrize("domain", [streams.MESSAGE_STREAM,
                                    streams.CHANNEL_STREAM])
@pytest.mark.parametrize("seed", [0, 1, -1, 2 ** 63, 2 ** 64 - 1,
                                  2 ** 64 + 5])
def test_stream_is_philox_keyed_by_seed_and_domain(seed, domain):
    key = np.array([seed & (2 ** 64 - 1), domain], dtype=np.uint64)
    expected = np.random.Generator(np.random.Philox(key=key))
    got = streams.stream(seed, domain)
    assert np.array_equal(got.integers(0, 2 ** 62, 64),
                          expected.integers(0, 2 ** 62, 64))
    assert np.array_equal(got.random(64), expected.random(64))
    assert np.array_equal(got.integers(0, 2, 200, dtype=np.uint8),
                          expected.integers(0, 2, 200, dtype=np.uint8))
