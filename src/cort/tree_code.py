"""Branching profiles of (n, k) random tree codes, generator sampling, prefix encoding.

A profile is stored canonically as the vector s(1..n), where s(t) counts the
message bits that have arrived by time t.  Everything else (arrival times,
branching times, fanouts, last-time-at-level) is derived from s at
construction and never stored independently.

Time indices t and arrival times are 1-based throughout, matching the JSON
interchange format; message bits are 0-based in code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .streams import GENERATOR_STREAM, stream


class ProfileError(ValueError):
    """Raised when a branching profile fails validation."""


@dataclass(frozen=True)
class TreeProfile:
    """Branching structure of an (n, k) random tree code.

    Fields beyond (n, k, s) are derived:
      arrivals[j]        -- first time t with s(t) >= j+1 (0-based bit j)
      branch_times       -- times b_1..b_{h_f} where s strictly increases
      branch_fanout      -- children counts c_0..c_{h_f-1}; c_0 = 2^{s(b_1)}
      last_same_level[l] -- r_{l+1}: last time t with s(t) <= l+1 (0-based l)
    """

    n: int
    k: int
    s: tuple
    arrivals: tuple = field(repr=False)
    branch_times: tuple = field(repr=False)
    branch_fanout: tuple = field(repr=False)
    last_same_level: tuple = field(repr=False)

    @property
    def num_stages(self) -> int:
        """Number of branching stages h_f."""
        return len(self.branch_times)

    @property
    def branch_levels(self) -> tuple:
        """s(b_h) for h = 1..h_f; the prefix lengths of stage-h nodes."""
        return tuple(self.s[t - 1] for t in self.branch_times)

    def stage_end_times(self) -> np.ndarray:
        """r_{[h]} for h = 0..h_f: the last time whose output a stage-h node
        determines.  r_{[0]} = 0 (root), r_{[h_f]} = n."""
        bt = np.asarray(self.branch_times, dtype=np.int64)
        return np.concatenate([[0], bt[1:] - 1, [self.n]])

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "s": list(self.s),
            "arrivals": list(self.arrivals),
        }


def profile_from_s(n: int, k: int, s) -> TreeProfile:
    """Build and fully derive a TreeProfile from its s-vector.

    Rejects non-monotone s, s(1) < 1, or s(n) != k, naming the first
    offending (1-based) time index.
    """
    s = [int(v) for v in s]
    if n < 1 or k < 1:
        raise ProfileError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    if len(s) != n:
        raise ProfileError(f"s has length {len(s)}, expected n={n}")
    if s[0] < 1:
        raise ProfileError("s(1) must be at least 1 (the first bit arrives at t=1)")
    for t in range(1, n):
        if s[t] < s[t - 1]:
            raise ProfileError(f"s is decreasing at t={t + 1}")
    if s[-1] != k:
        raise ProfileError(f"s(n)={s[-1]} does not equal k={k}")

    arrivals = []
    t = 0
    for j in range(1, k + 1):  # a_j = min{t : s(t) >= j}
        while s[t] < j:
            t += 1
        arrivals.append(t + 1)

    branch_times = [1] + [t + 1 for t in range(1, n) if s[t] > s[t - 1]]

    levels = [0] + [s[t - 1] for t in branch_times]
    fanout = [2 ** (levels[h + 1] - levels[h]) for h in range(len(branch_times))]

    # r_l = max{t : s(t) <= l}; equals max{t : s(t) = l} at attained levels
    # and extends past skipped ones.
    last = []
    t = n
    for level in range(k, 0, -1):
        while t >= 1 and s[t - 1] > level:
            t -= 1
        last.append(t)
    last.reverse()

    return TreeProfile(
        n=n,
        k=k,
        s=tuple(s),
        arrivals=tuple(arrivals),
        branch_times=tuple(branch_times),
        branch_fanout=tuple(fanout),
        last_same_level=tuple(last),
    )


def profile_from_arrivals(n: int, arrivals) -> TreeProfile:
    """Build a profile from non-decreasing 1-based arrival times (a_1 = 1)."""
    arrivals = [int(a) for a in arrivals]
    if not arrivals:
        raise ProfileError("need at least one arrival time")
    if arrivals[0] != 1:
        raise ProfileError("a_1 must be 1")
    for j in range(1, len(arrivals)):
        if arrivals[j] < arrivals[j - 1]:
            raise ProfileError(f"arrival times decrease at j={j + 1}")
    if arrivals[-1] > n or arrivals[0] < 1:
        raise ProfileError(f"arrival times must lie in 1..{n}")
    s = [sum(1 for a in arrivals if a <= t) for t in range(1, n + 1)]
    return profile_from_s(n, len(arrivals), s)


def pure_random_profile(n: int, k: int) -> TreeProfile:
    """Profile with every bit arriving at t=1: a single branching stage."""
    return profile_from_s(n, k, [k] * n)


def profile_from_json_dict(doc: dict) -> TreeProfile:
    """Read a profile from its JSON form; only "s" is required."""
    prof = profile_from_s(int(doc["n"]), int(doc["k"]), doc["s"])
    if "arrivals" in doc and list(doc["arrivals"]) != list(prof.arrivals):
        raise ProfileError("arrivals in document are inconsistent with s")
    return prof


def load_profile(path) -> TreeProfile:
    with open(path) as fh:
        return profile_from_json_dict(json.load(fh))


def save_profile(profile: TreeProfile, path) -> None:
    with open(path, "w") as fh:
        json.dump(profile.to_json_dict(), fh)
        fh.write("\n")


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """One sampled generator: n x k binary matrix with staircase support.

    Entry (i, j) is zero whenever time i+1 precedes bit j's arrival; the
    remaining entries are fair coin flips from a Philox counter-based stream
    keyed by (seed, GENERATOR_STREAM), so (profile, seed) reproduces the
    matrix bit-exactly on any platform.
    """

    profile: TreeProfile
    bits: np.ndarray
    seed: int


def sample_generator(profile: TreeProfile, seed: int) -> GeneratorMatrix:
    """Draw one generator matrix from the ensemble, deterministically."""
    bits = stream(seed, GENERATOR_STREAM).integers(
        0, 2, size=(profile.n, profile.k), dtype=np.uint8)
    rows = np.arange(1, profile.n + 1)[:, None]
    bits *= (rows >= np.asarray(profile.arrivals)[None, :]).astype(np.uint8)
    bits.setflags(write=False)
    return GeneratorMatrix(profile=profile, bits=bits, seed=seed)


def encode(g: GeneratorMatrix, message) -> np.ndarray:
    """Codeword G m over GF(2).  By the staircase support, its first t bits
    depend only on the first s(t) message bits."""
    m = np.asarray(message, dtype=np.uint8)
    if len(m) != g.profile.k:
        raise ValueError(f"message has {len(m)} bits, expected k={g.profile.k}")
    return (g.bits @ m) % 2
