"""Portable seeded randomness.

All experiment-visible randomness flows through a splitmix-style 64-bit
generator so that a (scenario, seed) pair produces bit-identical results
on any platform. Doubles are built from the top 53 bits of each output
word, so no libm or platform RNG enters the pipeline.

Independent streams are derived by hashing (master seed, stream index);
see ``derive_seed``. Random-access draws (one value per time step, no
sequential state) use ``indexed_choice``.

splitmix64 is counter-based (Steele, Lea & Flood, *Fast splittable
pseudorandom number generators*, OOPSLA 2014): from state ``s``, draw ``k``
is ``mix64(s + k * gamma)``, so ``SplitMix64.random_block`` computes a run
of draws at once in numpy ``uint64``, bit-identical to drawing them one by
one.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Draws per numpy pass in random_block; bounds its uint64 temporaries.
_BLOCK = 1 << 16


def mix64(z: int) -> int:
    """Finalization mix of splitmix64; a 64-bit bijection."""
    z &= _MASK
    z ^= z >> 30
    z = (z * _MIX1) & _MASK
    z ^= z >> 27
    z = (z * _MIX2) & _MASK
    z ^= z >> 31
    return z


def derive_seed(master: int, stream: int) -> int:
    """Seed for an independent substream of ``master``.

    Stream indices are fixed per use site (0: initial opinions,
    1: schedule draws, 2: generated matrices) and documented in the README.
    """
    return mix64((master & _MASK) ^ mix64(((stream & _MASK) + 1) * _GAMMA))


def indexed_choice(seed: int, step: int, n: int) -> int:
    """Stateless draw from range(n) for a given (seed, step) pair."""
    if n <= 0:
        raise ValueError("choice over an empty range")
    return derive_seed(seed, step) % n


class SplitMix64:
    """Sequential splitmix64 stream."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return mix64(self._state)

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def random_block(self, m: int) -> np.ndarray:
        """The next ``m`` ``random()`` draws as one float64 array.

        Bit-identical to ``m`` sequential ``random()`` calls and leaves the
        same final state. Works in chunks of at most ``_BLOCK`` draws, so
        the temporaries stay small whatever ``m`` is.
        """
        out = np.empty(m)  # raises ValueError for m < 0
        chunk = min(_BLOCK, m)
        steps = np.arange(1, chunk + 1, dtype=np.uint64)
        steps *= np.uint64(_GAMMA)  # k * gamma mod 2^64: array ops wrap
        z = np.empty(chunk, dtype=np.uint64)
        tmp = np.empty(chunk, dtype=np.uint64)
        for start in range(0, m, max(chunk, 1)):
            size = min(chunk, m - start)
            zs, ts = z[:size], tmp[:size]
            np.add(steps[:size], np.uint64(self._state), out=zs)
            np.right_shift(zs, np.uint64(30), out=ts)
            zs ^= ts
            zs *= np.uint64(_MIX1)
            np.right_shift(zs, np.uint64(27), out=ts)
            zs ^= ts
            zs *= np.uint64(_MIX2)
            np.right_shift(zs, np.uint64(31), out=ts)
            zs ^= ts
            zs >>= np.uint64(11)
            np.multiply(zs, 2.0**-53, out=out[start:start + size])
            self._state = (self._state + size * _GAMMA) & _MASK
        return out

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randrange(self, n: int) -> int:
        """Unbiased integer in range(n) via rejection."""
        if n <= 0:
            raise ValueError("randrange over an empty range")
        span = _MASK + 1
        limit = span - span % n
        while True:
            v = self.next_uint64()
            if v < limit:
                return v % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]
