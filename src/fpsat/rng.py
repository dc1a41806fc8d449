"""splitmix64 and xoshiro256+ pseudo-random number generators.

Both follow the published reference algorithms bit for bit (verified
against a C oracle in the test suite). splitmix64 seeds and derives
decorrelated streams; xoshiro256+ drives all stochastic search.
"""

from __future__ import annotations

import ctypes

__all__ = ["splitmix64_next", "derive_seed", "Xoshiro256Plus"]

_M64 = (1 << 64) - 1
_INV_2_53 = 2.0**-53


def splitmix64_next(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (output, new_state)."""
    state = (state + 0x9E3779B97F4A7C15) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31), state


def derive_seed(seed: int, index: int) -> int:
    """Decorrelated 64-bit sub-seed for instance `index` of a global seed."""
    state = seed & _M64
    out = 0
    for _ in range(index + 1):
        out, state = splitmix64_next(state)
    return out


class Xoshiro256Plus:
    """xoshiro256+ with a 256-bit state, seeded via splitmix64 expansion.

    The state is one `uint64[4]` buffer, which the native whole runs
    (`kernels.py`) advance in place with the same draws.
    """

    __slots__ = ("_s",)

    def __init__(self, seed: int):
        state = seed & _M64
        words = []
        for _ in range(4):
            out, state = splitmix64_next(state)
            words.append(out)
        if not any(words):
            # all-zero state is invalid; cannot happen via splitmix64
            # expansion of any seed, but guard the invariant anyway
            words[0] = 1
        self._s = (ctypes.c_uint64 * 4)(*words)

    def next_u64(self) -> int:
        s = self._s  # indexed word by word: unpacking a ctypes array is slower
        s0, s1, s2, s3 = s[0], s[1], s[2], s[3]
        result = (s0 + s3) & _M64
        t = (s1 << 17) & _M64
        s2 ^= s0
        s3 ^= s1
        s[1] = s1 ^ s2
        s[0] = s0 ^ s3
        s[2] = s2 ^ t
        s[3] = ((s3 << 45) | (s3 >> 19)) & _M64
        return result

    def next_double(self) -> float:
        """Uniform binary64 in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * _INV_2_53

    def doubles(self, k: int) -> list[float]:
        """The next k `next_double()` values, drawn in one loop."""
        s = self._s
        s0, s1, s2, s3 = s[0], s[1], s[2], s[3]
        out = [0.0] * k
        for i in range(k):
            out[i] = (((s0 + s3) & _M64) >> 11) * _INV_2_53
            t = (s1 << 17) & _M64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _M64
        s[0], s[1], s[2], s[3] = s0, s1, s2, s3
        return out

    def uniform(self, lo: float, hi: float) -> float:
        return lo + self.next_double() * (hi - lo)

    def state(self) -> tuple[int, int, int, int]:
        s = self._s
        return (s[0], s[1], s[2], s[3])
