"""Branching profiles of (n, k) random tree codes, generator sampling, prefix encoding.

A profile is stored canonically as the vector s(1..n), where s(t) counts the
message bits that have arrived by time t.  Everything else (arrival times,
stage levels, stage end times, fanouts) is derived from s once, at
construction, and never stored independently.

Time indices t and arrival times are 1-based throughout, matching the JSON
interchange format; message bits are 0-based in code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .streams import GENERATOR_STREAM, bits


class ProfileError(ValueError):
    """Raised when a branching profile fails validation."""


@dataclass(frozen=True)
class TreeProfile:
    """Branching structure of an (n, k) random tree code.

    Fields beyond (n, k, s) are derived from s, with b_1 = 1 < b_2 < ... <
    b_{h_f} the branching times, where s strictly increases:
      arrivals[j]      -- first time t with s(t) >= j+1 (0-based bit j)
      levels[h]        -- s(b_h), the prefix length of a stage-h node, for
                          h = 0..h_f: (0, s(b_1), ..., s(b_{h_f}) = k)
      ends[h]          -- r_[h], the last time whose output a stage-h node
                          determines: (0, b_2 - 1, ..., b_{h_f} - 1, n)
      branch_fanout[h] -- c_h = 2^(levels[h+1] - levels[h]), h = 0..h_f-1
    """

    n: int
    k: int
    s: tuple
    arrivals: tuple = field(repr=False)
    levels: tuple = field(repr=False)
    ends: tuple = field(repr=False)
    branch_fanout: tuple = field(repr=False)

    @property
    def num_stages(self) -> int:
        """Number of branching stages h_f."""
        return len(self.levels) - 1

    @cached_property
    def support(self) -> np.ndarray:
        """Read-only (n, k) uint8 staircase mask of the generator: entry
        (i, j) is 1 iff time i+1 is at or after bit j's arrival.  Built on
        first use and kept; not a field, so not in eq, hash or JSON."""
        rows = np.arange(1, self.n + 1)[:, None]
        mask = (rows >= np.asarray(self.arrivals)[None, :]).view(np.uint8)
        mask.setflags(write=False)
        return mask

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "s": list(self.s),
            "arrivals": list(self.arrivals),
        }


def _integer_array(name: str, values) -> np.ndarray:
    """values as a 1-D int64 array.  A float, bool or string among them
    raises ProfileError, where int() would truncate or coerce it."""
    arr = np.asarray(values)
    if (arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu")
            or (not isinstance(values, np.ndarray)
                and any(isinstance(v, (bool, np.bool_)) for v in values))):
        raise ProfileError(f"{name} must be integers")
    return arr.astype(np.int64, copy=False)


def profile_from_s(n: int, k: int, s) -> TreeProfile:
    """Build and fully derive a TreeProfile from its s-vector.

    Rejects non-integer entries, non-monotone s, s(1) < 1, or s(n) != k,
    naming the first offending (1-based) time index.
    """
    _integer_array("n and k", [n, k])
    n, k = int(n), int(k)
    if n < 1 or k < 1:
        raise ProfileError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    s = _integer_array("the entries of s", s)
    if len(s) != n:
        raise ProfileError(f"s has length {len(s)}, expected n={n}")
    if s[0] < 1:
        raise ProfileError("s(1) must be at least 1 (the first bit arrives at t=1)")
    steps = np.diff(s)
    drops = np.flatnonzero(steps < 0)
    if len(drops):
        raise ProfileError(f"s is decreasing at t={drops[0] + 2}")
    if s[-1] != k:
        raise ProfileError(f"s(n)={s[-1]} does not equal k={k}")

    # 0-based indices of the branching times b_2..b_{h_f}, so also b_h - 1
    rises = np.flatnonzero(steps) + 1
    levels = [0, int(s[0])] + s[rises].tolist()
    ends = [0] + rises.tolist() + [n]
    return TreeProfile(
        n=n,
        k=k,
        s=tuple(s.tolist()),
        arrivals=tuple((np.searchsorted(s, np.arange(1, k + 1)) + 1).tolist()),
        levels=tuple(levels),
        ends=tuple(ends),
        branch_fanout=tuple(1 << (b - a) for a, b in zip(levels, levels[1:])),
    )


def profile_from_arrivals(n: int, arrivals) -> TreeProfile:
    """Build a profile from non-decreasing 1-based arrival times (a_1 = 1)."""
    a = _integer_array("arrival times", arrivals)
    if not len(a):
        raise ProfileError("need at least one arrival time")
    if a[0] != 1:
        raise ProfileError("a_1 must be 1")
    drops = np.flatnonzero(np.diff(a) < 0)
    if len(drops):
        raise ProfileError(f"arrival times decrease at j={drops[0] + 2}")
    if a[-1] > n:
        raise ProfileError(f"arrival times must lie in 1..{n}")
    # s(t) = #{j : a_j <= t}
    s = np.searchsorted(a, np.arange(1, n + 1), side="right")
    return profile_from_s(n, len(a), s)


def pure_random_profile(n: int, k: int) -> TreeProfile:
    """Profile with every bit arriving at t=1: a single branching stage."""
    return profile_from_s(n, k, [k] * n)


def profile_from_json_dict(doc: dict) -> TreeProfile:
    """Read a profile from its JSON form; only "s" is required."""
    prof = profile_from_s(doc["n"], doc["k"], doc["s"])
    if "arrivals" in doc and list(doc["arrivals"]) != list(prof.arrivals):
        raise ProfileError("arrivals in document are inconsistent with s")
    return prof


def load_profile(path) -> TreeProfile:
    with open(path) as fh:
        return profile_from_json_dict(json.load(fh))


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """One sampled generator: n x k binary matrix with staircase support.

    Entry (i, j) is zero whenever time i+1 precedes bit j's arrival; in a
    `sample_generator` draw the remaining entries are fair coin flips from a
    Philox counter-based stream keyed by (seed, GENERATOR_STREAM), so
    (profile, seed) reproduces the matrix bit-exactly on any platform.
    """

    profile: TreeProfile
    bits: np.ndarray


def sample_generator(profile: TreeProfile, seed: int) -> GeneratorMatrix:
    """Draw one generator matrix from the ensemble, deterministically."""
    g = bits(seed, GENERATOR_STREAM, (profile.n, profile.k))
    g &= profile.support
    g.setflags(write=False)
    return GeneratorMatrix(profile=profile, bits=g)


def encode(g: GeneratorMatrix, message) -> np.ndarray:
    """Codeword G m over GF(2).  By the staircase support, its first t bits
    depend only on the first s(t) message bits."""
    m = np.asarray(message, dtype=np.uint8)
    if len(m) != g.profile.k:
        raise ValueError(f"message has {len(m)} bits, expected k={g.profile.k}")
    return (g.bits @ m) % 2
