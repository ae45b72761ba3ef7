"""Deterministic pseudo-random streams shared by the simulation modules.

Everything here is built on the splitmix64 mixing function so that row
selections, noise realizations and generated test scenes are reproducible
bit-for-bit from a single u64 seed, independent of numpy's generator
internals.  The stream is stateless: output i is mix(seed + (i+1)*GAMMA),
which also lets us vectorize long draws with numpy u64 arithmetic.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Sequential splitmix64 stream with small helpers for sampling.

    The seed may be any int; it is taken mod 2**64."""

    def __init__(self, seed: int):
        self._state = int(seed) & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GAMMA) & MASK64
        return _mix(self._state)

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) without modulo bias.

        A draw r is rejected exactly when r >= 2**64 - (2**64 mod n), and
        the next stream value is drawn instead; sensing.select_rows applies
        the same rule to a whole vectorized block of draws.
        """
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        # largest multiple of n that fits in 64 bits
        limit = ((MASK64 + 1) // n) * n
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def integers(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi)."""
        return lo + self.below(hi - lo)


def u64_stream(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of the splitmix64 stream, vectorized.

    Identical values to repeated SplitMix64.next_u64 calls with the same
    seed, which like SplitMix64 may be any int and is taken mod 2**64.
    Output i depends only on seed + (i+1)*GAMMA, so the stream from
    position s on is u64_stream(seed + s*GAMMA, ...); long noise draws and
    row selections take all their values in one call.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    idx = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(int(seed) & MASK64) + idx * np.uint64(GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
    return z


def normal_stream(seed: int, count: int) -> np.ndarray:
    """`count` iid standard normal draws via Box-Muller on the u64 stream.

    Consumes 2*ceil(count/2) stream values; deterministic for a given seed.
    """
    pairs = (count + 1) // 2
    raw = u64_stream(seed, 2 * pairs).reshape(pairs, 2)
    # u1 in (0, 1] so the log is finite, u2 in [0, 1)
    u1 = ((raw[:, 0] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (raw[:, 1] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]
