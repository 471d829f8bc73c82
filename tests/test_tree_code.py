import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cort import (ProfileError, TreeProfile, encode, profile_from_arrivals,
                  profile_from_s, pure_random_profile, sample_generator)
from cort.streams import GENERATOR_STREAM
from cort.tree_code import load_profile, profile_from_json_dict


def all_valid_s(n, k):
    """Every non-decreasing s with s(1) >= 1 and s(n) = k."""
    for s in itertools.combinations_with_replacement(range(1, k + 1), n):
        if s[-1] == k:
            yield s


class TestProfileFromS:
    def test_pure_random_code(self):
        prof = profile_from_s(4, 4, [4, 4, 4, 4])
        assert prof.arrivals == (1, 1, 1, 1)
        assert prof.levels == (0, 4)
        assert prof.ends == (0, 4)
        assert prof.num_stages == 1
        assert prof.branch_fanout == (16,)

    def test_two_stage_example(self):
        prof = profile_from_s(4, 2, [1, 1, 2, 2])
        assert prof.arrivals == (1, 3)
        assert prof.levels == (0, 1, 2)
        assert prof.ends == (0, 2, 4)
        assert prof.branch_fanout == (2, 2)

    def test_non_monotone_rejected(self):
        # the drop is observed at t=2, the first offending index
        with pytest.raises(ProfileError, match="t=2"):
            profile_from_s(3, 2, [2, 1, 2])

    def test_zero_start_rejected(self):
        with pytest.raises(ProfileError, match=r"s\(1\)"):
            profile_from_s(3, 2, [0, 1, 2])

    def test_wrong_end_rejected(self):
        with pytest.raises(ProfileError, match="k=3"):
            profile_from_s(3, 3, [1, 2, 2])

    def test_zero_k_rejected(self):
        with pytest.raises(ProfileError):
            profile_from_s(3, 0, [0, 0, 0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ProfileError, match="length"):
            profile_from_s(4, 2, [1, 2])

    def test_last_bit_arriving_at_n(self):
        prof = profile_from_s(4, 2, [1, 1, 1, 2])
        assert prof.levels == (0, 1, 2)
        assert prof.ends == (0, 3, 4)

    @pytest.mark.parametrize("n,k,s", [
        (4, 2, [1.9, 1.2, 2.7, 2]),
        (4, 2, [1.0, 1, 2, 2]),
        (4, 2, [True, 1, 2, 2]),
        (4, 2, ["1", 1, 2, 2]),
        (4, 2.0, [1, 1, 2, 2]),
        (4, True, [1, 1, 1, 1]),
        ("4", 2, [1, 1, 2, 2]),
    ], ids=["fractional-s", "float-s", "bool-s", "string-s", "float-k",
            "bool-k", "string-n"])
    def test_non_integer_entries_rejected(self, n, k, s):
        # int() would truncate or coerce each of these into a valid profile
        with pytest.raises(ProfileError, match="integers"):
            profile_from_s(n, k, s)


class TestProfileFromArrivals:
    def test_basic(self):
        prof = profile_from_arrivals(4, [1, 3])
        assert prof.s == (1, 1, 2, 2)

    def test_single_bit(self):
        prof = profile_from_arrivals(2, [1])
        assert prof.s == (1, 1)

    def test_no_arrivals_rejected(self):
        with pytest.raises(ProfileError, match="at least one arrival time"):
            profile_from_arrivals(4, [])

    def test_first_arrival_must_be_one(self):
        with pytest.raises(ProfileError, match="a_1"):
            profile_from_arrivals(4, [2, 3])

    def test_out_of_range(self):
        with pytest.raises(ProfileError):
            profile_from_arrivals(4, [1, 5])

    def test_decreasing_rejected(self):
        with pytest.raises(ProfileError):
            profile_from_arrivals(4, [1, 3, 2])


class TestDerivedInvariants:
    @pytest.mark.parametrize("n,k", [(4, 3), (6, 4), (8, 8)])
    def test_exhaustive_round_trip_and_invariants(self, n, k):
        for s in all_valid_s(n, k):
            prof = profile_from_s(n, k, s)
            # round-trip through arrivals
            assert profile_from_arrivals(n, prof.arrivals).s == prof.s
            # arrivals characterize s
            for j, a in enumerate(prof.arrivals, start=1):
                assert prof.s[a - 1] >= j
                assert a == 1 or prof.s[a - 2] < j
            # fanout product covers the whole message space
            prod = 1
            for c in prof.branch_fanout:
                prod *= c
            assert prod == 2 ** k
            # stages against their definitions over s
            levels = prof.levels
            assert levels == (0,) + tuple(sorted(set(s)))
            assert len(prof.ends) == len(levels)
            for h, level in enumerate(levels):
                assert prof.ends[h] == max(
                    (t for t in range(1, n + 1) if s[t - 1] <= level),
                    default=0)
            for h, fanout in enumerate(prof.branch_fanout):
                assert fanout == 2 ** (levels[h + 1] - levels[h])

    def test_stage_ends(self):
        prof = profile_from_s(4, 2, [1, 1, 2, 2])
        assert prof.ends == (0, 2, 4)


@st.composite
def arrival_vectors(draw):
    """(n, arrivals): sorted 1-based arrival times with a_1 = 1."""
    n = draw(st.integers(1, 40))
    rest = draw(st.lists(st.integers(1, n), max_size=39))
    return n, [1, *sorted(rest)]


class TestStageStorage:
    """A profile keeps its stages; s, the arrivals and the fanouts are
    read off them, and equal what construction once derived from s."""

    def test_fields_are_the_stages(self):
        assert [f.name for f in dataclasses.fields(TreeProfile)] \
            == ["n", "k", "levels", "ends"]

    @settings(max_examples=300, deadline=None)
    @given(arrival_vectors())
    def test_derived_equal_derivations_from_s(self, case):
        n, a = case
        prof = profile_from_arrivals(n, a)
        s = [sum(x <= t for x in a) for t in range(1, n + 1)]
        arr = np.asarray(s)
        rises = np.flatnonzero(np.diff(arr)) + 1
        levels = [0, s[0]] + arr[rises].tolist()
        assert prof.s == tuple(s)
        assert prof.arrivals == tuple(
            (np.searchsorted(arr, np.arange(1, len(a) + 1)) + 1).tolist())
        assert prof.levels == tuple(levels)
        assert prof.ends == (0, *rises.tolist(), n)
        assert prof.branch_fanout == tuple(
            1 << (hi - lo) for lo, hi in zip(levels, levels[1:]))
        rows = np.arange(1, n + 1)[:, None]
        assert np.array_equal(prof.support,
                              (rows >= np.asarray(a)[None, :]).view(np.uint8))
        assert all(type(v) is int for v in (*prof.s, *prof.arrivals,
                                             *prof.levels, *prof.ends))

    @settings(max_examples=200, deadline=None)
    @given(arrival_vectors())
    def test_json_round_trip(self, case):
        prof = profile_from_arrivals(*case)
        doc = json.loads(json.dumps(prof.to_json_dict()))
        assert profile_from_json_dict(doc) == prof

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 300))
    def test_pure_equals_its_s_vector(self, n, k):
        pure, built = pure_random_profile(n, k), profile_from_s(n, k, [k] * n)
        assert pure == built and hash(pure) == hash(built)
        assert pure.s == built.s and pure.arrivals == built.arrivals

    def test_pure_built_without_its_vectors(self):
        tracemalloc.start()
        try:
            prof = pure_random_profile(10 ** 9, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert (prof.levels, prof.ends) == ((0, 1), (0, 10 ** 9))


class TestGeneratorSampling:
    def test_deterministic(self):
        prof = profile_from_arrivals(6, [1, 3, 5])
        a = sample_generator(prof, 42)
        b = sample_generator(prof, 42)
        assert np.array_equal(a.bits, b.bits)
        assert not np.array_equal(a.bits, sample_generator(prof, 43).bits)

    def test_staircase_support(self):
        prof = profile_from_arrivals(4, [1, 3])
        g = sample_generator(prof, 9)
        assert g.bits[0, 1] == 0 and g.bits[1, 1] == 0

    def test_bits_read_only(self):
        g = sample_generator(profile_from_arrivals(4, [1, 3]), 1)
        with pytest.raises(ValueError):
            g.bits[0, 0] = 1

    def test_free_entries_uniform(self):
        prof = profile_from_arrivals(4, [1, 3])
        total = np.zeros((4, 2))
        samples = 10_000
        for seed in range(samples):
            total += sample_generator(prof, seed).bits
        free = (np.arange(1, 5)[:, None] >= np.asarray(prof.arrivals)[None, :])
        means = total[free] / samples
        assert np.all(means >= 0.48) and np.all(means <= 0.52)


def random_profiles(count, seed):
    """Seeded random profiles: n up to 128, sorted arrivals with a_1 = 1."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 129))
        k = int(rng.integers(1, min(n, 64) + 1))
        rest = np.sort(rng.integers(1, n + 1, k - 1))
        yield profile_from_arrivals(n, [1, *rest.tolist()])


def reference_generator_bits(prof, seed):
    """The generator draw as two steps on an independent Generator: fair
    bits, then the staircase zeroed by a mask built from the arrivals."""
    key = np.array([seed & (2 ** 64 - 1), GENERATOR_STREAM], dtype=np.uint64)
    bits = np.random.Generator(np.random.Philox(key=key)).integers(
        0, 2, size=(prof.n, prof.k), dtype=np.uint8)
    rows = np.arange(1, prof.n + 1)[:, None]
    bits *= (rows >= np.asarray(prof.arrivals)[None, :]).astype(np.uint8)
    return bits


class TestSupport:
    def test_equals_arrival_mask(self):
        for prof in random_profiles(60, 11):
            rows = np.arange(1, prof.n + 1)[:, None]
            mask = rows >= np.asarray(prof.arrivals)[None, :]
            assert prof.support.dtype == np.uint8
            assert np.array_equal(prof.support, mask.astype(np.uint8))

    def test_read_only(self):
        prof = profile_from_arrivals(4, [1, 3])
        with pytest.raises(ValueError):
            prof.support[0, 1] = 1
        assert prof.support is prof.support

    def test_not_in_json_eq_or_hash(self):
        built = profile_from_arrivals(6, [1, 2, 5])
        fresh = profile_from_arrivals(6, [1, 2, 5])
        built.support
        assert "support" in vars(built) and "support" not in vars(fresh)
        assert built == fresh and hash(built) == hash(fresh)
        assert built.to_json_dict() == fresh.to_json_dict() == {
            "n": 6, "k": 3, "s": [1, 2, 2, 2, 3, 3], "arrivals": [1, 2, 5]}

    def test_sample_generator_equals_two_step_reference(self):
        profiles = [*random_profiles(40, 12),
                    profile_from_arrivals(128, np.repeat(np.arange(1, 128, 4),
                                                         2).tolist())]
        for i, prof in enumerate(profiles):
            for seed in (i, -i - 1, 2 ** 64 + i):
                got = sample_generator(prof, seed).bits
                assert got.dtype == np.uint8
                assert np.array_equal(got, reference_generator_bits(prof, seed))


class TestEncoding:
    def test_zero_message(self):
        g = sample_generator(profile_from_arrivals(8, [1, 3, 5]), 3)
        assert not encode(g, [0, 0, 0]).any()

    def test_hand_example(self):
        prof = profile_from_arrivals(4, [1, 3])
        g = sample_generator(prof, 0)
        bits = np.array([[1, 0], [1, 0], [0, 1], [1, 1]], dtype=np.uint8)
        g = type(g)(profile=prof, bits=bits)
        assert encode(g, [1, 1]).tolist() == [1, 1, 1, 0]

    def test_prefix_property(self):
        # bit t reads only the first s(t) message bits: zeroing the others
        # leaves the first t coded bits unchanged
        prof = profile_from_arrivals(8, [1, 2, 5, 7])
        g = sample_generator(prof, 11)
        m = [1, 0, 1, 1]
        full = encode(g, m)
        for t in range(1, 9):
            st_level = prof.s[t - 1]
            head = m[:st_level] + [0] * (4 - st_level)
            assert encode(g, head)[:t].tolist() == full[:t].tolist()

    def test_short_prefix_rejected(self):
        g = sample_generator(profile_from_arrivals(4, [1, 3]), 2)
        with pytest.raises(ValueError, match="message has 1 bits"):
            encode(g, [1])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 31), st.data())
    def test_tree_code_property(self, seed, data):
        # messages agreeing on the first s(t) bits encode identically up to t
        prof = profile_from_arrivals(8, [1, 3, 4, 7])
        g = sample_generator(prof, seed)
        m1 = data.draw(st.lists(st.integers(0, 1), min_size=4, max_size=4))
        t = data.draw(st.integers(1, 8))
        st_level = prof.s[t - 1]
        m2 = list(m1)
        for j in range(st_level, 4):
            m2[j] ^= data.draw(st.integers(0, 1))
        assert encode(g, m1)[:t].tolist() == encode(g, m2)[:t].tolist()


class TestJson:
    def test_round_trip(self, tmp_path):
        prof = profile_from_arrivals(6, [1, 2, 5])
        path = tmp_path / "profile.json"
        with open(path, "w") as fh:
            json.dump(prof.to_json_dict(), fh)
        doc = json.loads(path.read_text())
        assert doc["arrivals"] == [1, 2, 5]
        assert load_profile(path) == prof

    def test_reader_only_needs_s(self):
        prof = profile_from_json_dict({"n": 4, "k": 2, "s": [1, 1, 2, 2]})
        assert prof.arrivals == (1, 3)

    def test_inconsistent_arrivals_rejected(self):
        with pytest.raises(ProfileError, match="inconsistent"):
            profile_from_json_dict(
                {"n": 4, "k": 2, "s": [1, 1, 2, 2], "arrivals": [1, 2]})
