import hashlib

import numpy as np
import pytest

from opdyn.rng import _BLOCK, _GAMMA, _MASK, SplitMix64, derive_seed, indexed_choice, mix64

from _trials import reference_shuffle, unmix64


class TestRandomBlock:
    @pytest.mark.parametrize("m", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_equals_sequential_draws_and_final_state(self, seed, m):
        block_rng, scalar_rng = SplitMix64(seed), SplitMix64(seed)
        block = block_rng.random_block(m)
        sequential = np.array([scalar_rng.random() for _ in range(m)])
        assert block.dtype == np.float64 and block.shape == (m,)
        assert np.array_equal(block, sequential)
        assert block_rng._state == scalar_rng._state

    def test_continues_the_stream(self):
        block_rng, scalar_rng = SplitMix64(11), SplitMix64(11)
        head = block_rng.random()
        tail = block_rng.random_block(3)
        assert [head, *tail] == [scalar_rng.random() for _ in range(4)]

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            SplitMix64(0).random_block(-1)


def rejecting_state(n: int) -> int:
    """A state from which a shuffle of ``n >= 3`` items meets a rejected
    word: its draw ``n - 3`` is ``randrange(3)``'s, and that word is
    2^64 - 1, at or above 2^64 - (2^64 mod 3)."""
    return (unmix64(_MASK) - (n - 2) * _GAMMA) % 2**64


class TestShuffle:
    def test_inverse_mix(self):
        for z in (0, 1, _MASK, _GAMMA, 2**63, 12345678901234567890):
            assert mix64(unmix64(z)) == z == unmix64(mix64(z))

    @pytest.mark.parametrize("n", [3, 10, 1000, _BLOCK + 3])
    def test_rejected_word_ends_its_block(self, n):
        state = rejecting_state(n)
        block_rng, scalar_rng = SplitMix64(state), SplitMix64(state)
        items, expected = list(range(n)), list(range(n))
        block_rng.shuffle(items)
        reference_shuffle(expected, scalar_rng)
        assert items == expected
        # n - 1 draws and one rejected word
        assert block_rng._state == scalar_rng._state == (state + n * _GAMMA) % 2**64

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_equals_randrange_loop(self, seed):
        for n in range(301):
            block_rng, scalar_rng = SplitMix64(seed + n), SplitMix64(seed + n)
            items, expected = list(range(n)), list(range(n))
            block_rng.shuffle(items)
            reference_shuffle(expected, scalar_rng)
            assert items == expected
            assert block_rng._state == scalar_rng._state


class TestIndexedChoice:
    def test_draws_are_pinned(self):
        # Recorded before indexed_choice was written through derive_seed.
        assert [indexed_choice(s, t, n) for s, t, n in [
            (0, 0, 3), (0, 1, 3), (1, 0, 7), (42, 999, 5), (2**64 - 1, 2**64 - 1, 1000),
            (derive_seed(1, 1), 2000, 3), (7, 12345, 2**64 - 1),
        ]] == [1, 1, 4, 4, 67, 2, 3719304745057761342]
        seeds = [0, 1, 7, 42, 123456789, 2**63, 2**64 - 1, derive_seed(1, 1), derive_seed(7, 1)]
        draws = [indexed_choice(s, t, n)
                 for s in seeds for t in range(100) for n in (1, 2, 3, 5, 1000)]
        assert hashlib.sha256(",".join(map(str, draws)).encode()).hexdigest() == (
            "2219ff38838ef145d6a96f78a7b174a5c427b976cfc48f197a53d99a00bfb895")

    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_range_rejected(self, n):
        with pytest.raises(ValueError):
            indexed_choice(1, 0, n)
