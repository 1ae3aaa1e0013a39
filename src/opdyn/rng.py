"""Portable seeded randomness.

All experiment-visible randomness flows through a splitmix-style 64-bit
generator so that a (scenario, seed) pair produces bit-identical results
on any platform. Doubles are built from the top 53 bits of each output
word, so no libm or platform RNG enters the pipeline.

Independent streams are derived by hashing (master seed, stream index);
see ``derive_seed``. Random-access draws (one value per time step, no
sequential state) use ``indexed_choice``, or ``_indexed_choices`` for a
run of consecutive steps.

splitmix64 is counter-based (Steele, Lea & Flood, *Fast splittable
pseudorandom number generators*, OOPSLA 2014): from state ``s``, draw ``k``
is ``mix64(s + k * gamma)``, so ``SplitMix64`` computes a run of words at
once in numpy ``uint64`` (``random_block``, ``shuffle`` and the thresholded
draws of ``_hits``), bit-identical to drawing them one by one.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Words per numpy pass of the block draws; bounds their uint64 temporaries.
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


def _mix_in_place(z: np.ndarray, scratch: np.ndarray) -> None:
    """``mix64`` of every word of the uint64 array ``z``, in place;
    ``scratch`` is a uint64 array of the same size that it overwrites."""
    np.right_shift(z, np.uint64(30), out=scratch)
    z ^= scratch
    z *= np.uint64(_MIX1)
    np.right_shift(z, np.uint64(27), out=scratch)
    z ^= scratch
    z *= np.uint64(_MIX2)
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch


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


def _indexed_choices(seed: int, start: int, m: int, n: int) -> list[int]:
    """``indexed_choice(seed, t, n)`` for ``t`` in ``range(start, start + m)``,
    ``0 < m <= _BLOCK``, computed at once in uint64 numpy.

    The inner ``mix64((t + 1) * gamma)`` of ``derive_seed`` is the splitmix
    stream from state ``start * gamma``; the seed is xored in and the outer
    ``mix64`` applied to the whole block.
    """
    (z,) = SplitMix64(start * _GAMMA)._words(m)
    z ^= np.uint64(seed & _MASK)
    _mix_in_place(z, np.empty_like(z))
    z %= np.uint64(n)
    return z.tolist()


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

    def _words(self, m: int) -> Iterator[np.ndarray]:
        """The next ``m`` ``next_uint64()`` words, as uint64 blocks of at
        most ``_BLOCK`` words.

        Each block comes with the state already past it. The mix runs in
        place on two buffers that every block reuses, so a caller keeps
        what it needs of one block before it takes the next.
        """
        steps = np.arange(1, min(_BLOCK, m) + 1, dtype=np.uint64)
        steps *= np.uint64(_GAMMA)  # k * gamma mod 2^64: array ops wrap
        words, shifted = np.empty_like(steps), np.empty_like(steps)
        for start in range(0, m, _BLOCK):
            size = min(_BLOCK, m - start)
            z, t = words[:size], shifted[:size]
            np.add(steps[:size], np.uint64(self._state), out=z)
            _mix_in_place(z, t)
            self._state = (self._state + size * _GAMMA) & _MASK
            yield z

    def random_block(self, m: int) -> np.ndarray:
        """The next ``m`` ``random()`` draws as one float64 array.

        Bit-identical to ``m`` sequential ``random()`` calls and leaves the
        same final state.
        """
        out = np.empty(m)  # raises ValueError for m < 0
        for start, z in zip(range(0, m, _BLOCK), self._words(m)):
            z >>= np.uint64(11)
            np.multiply(z, 2.0**-53, out=out[start:start + z.size])
        return out

    def _hits(self, m: int, p: float) -> np.ndarray:
        """The indices ``k`` in ``range(m)`` where the ``k``-th of the next
        ``m`` ``random()`` draws is below ``p``, for ``0 <= p <= 1``.

        The draws are compared as words, with the same outcome and final
        state: ``random()`` is ``(w >> 11) * 2**-53`` exactly, and
        ``p * 2**53`` is exact, so ``random() < p`` holds exactly when
        ``w < ceil(p * 2**53) << 11``. At ``p = 1`` that bound is 2^64,
        which no uint64 holds, and every draw is a hit.
        """
        if p == 1.0:
            self._state = (self._state + m * _GAMMA) & _MASK
            return np.arange(m)
        limit = np.uint64(math.ceil(p * 2.0**53) << 11)
        hits = [np.flatnonzero(z < limit) + start
                for start, z in zip(range(0, m, _BLOCK), self._words(m))]
        return np.concatenate(hits) if hits else np.arange(0)

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
        """In-place Fisher-Yates shuffle: for ``i`` from the last index
        down to 1, swap item ``i`` with item ``randrange(i + 1)``.

        The words come in blocks. A word that ``randrange`` would reject
        ends its block, and the next block starts after it, so the draws
        and the final state are those of the ``randrange`` calls.
        """
        i = len(items) - 1
        while i > 0:
            state = self._state
            for k, w in enumerate(next(self._words(min(_BLOCK, i))).tolist()):
                # randrange(i + 1) rejects w >= 2^64 - 2^64 mod (i + 1), never w <= _MASK - i
                if w > _MASK - i and w >= _MASK + 1 - (_MASK + 1) % (i + 1):
                    self._state = (state + (k + 1) * _GAMMA) & _MASK
                    break
                j = w % (i + 1)
                items[i], items[j] = items[j], items[i]
                i -= 1
