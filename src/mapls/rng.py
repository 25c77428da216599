"""Counter-based pseudorandom primitives shared by generators and metaheuristics.

Everything here is built on SplitMix64 so that the same (seed, draw index)
always yields the same value, in scalar Python and in vectorized numpy alike.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15

_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB


def u64(x: int) -> np.ndarray:
    """x as a read-only 0-d uint64 array. numpy's ufuncs convert a numpy
    scalar operand to an array on every call and take a 0-d array as it
    is, which makes the random hash of 600 values about a quarter faster."""
    a = np.array(x, dtype=np.uint64)
    a.flags.writeable = False
    return a


# the constants as uint64 operands for the array ops
_U_C1, _U_C2, _U_GAMMA = u64(_C1), u64(_C2), u64(GOLDEN_GAMMA)
_U30, _U27, _U31 = u64(30), u64(27), u64(31)


def mix64(x: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit value."""
    z = x & MASK64
    z = ((z ^ (z >> 30)) * _C1) & MASK64
    z = ((z ^ (z >> 27)) * _C2) & MASK64
    return (z ^ (z >> 31)) & MASK64


def mix64_array(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """Vectorized mix64, in place: z must be a writable uint64 array. It is
    overwritten with the result and returned, and no copy is made. The
    shifted values go to tmp, a uint64 array of z's shape, when one is
    given, and to fresh temporaries otherwise. Array arithmetic wraps mod
    2^64 without warnings.
    """
    z ^= np.right_shift(z, _U30, out=tmp)
    z *= _U_C1
    z ^= np.right_shift(z, _U27, out=tmp)
    z *= _U_C2
    z ^= np.right_shift(z, _U31, out=tmp)
    return z


class SplitMix64:
    """Sequential SplitMix64 stream.

    The k-th output (1-based) is mix64(seed + k * GOLDEN_GAMMA), so blocks of
    draws can be produced with numpy without changing the sequence.
    """

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self._count = 0

    def next_u64(self) -> int:
        self._count += 1
        return mix64((self.seed + self._count * GOLDEN_GAMMA) & MASK64)

    def next_block(self, m: int) -> np.ndarray:
        """Next m outputs as a uint64 array (identical to m next_u64 calls)."""
        z = np.arange(self._count + 1, self._count + m + 1, dtype=np.uint64)
        self._count += m
        z *= _U_GAMMA
        z += np.uint64(self.seed)
        return mix64_array(z)

    def randint_block(self, lo: int, hi: int, m: int) -> np.ndarray:
        """m uniform integers in [lo, hi] inclusive (modulo reduction; the
        bias is negligible for the ranges used here, all far below 2**64)."""
        span = np.uint64(hi - lo + 1)
        return (self.next_block(m) % span).astype(np.int64) + lo

    def permutation(self, n: int) -> np.ndarray:
        """Uniform permutation of range(n), by Fisher-Yates."""
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return np.asarray(perm, dtype=np.int64)

    def sample_distinct(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), uniform, via partial Fisher-Yates."""
        pool = list(range(n))
        for i in range(k):
            j = i + self.next_u64() % (n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return np.asarray(pool[:k], dtype=np.int64)
