import numpy as np
import pytest

from opdyn.rng import _BLOCK, SplitMix64


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
