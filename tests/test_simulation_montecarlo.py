"""Tests for repro.simulation.montecarlo."""

import numpy as np
import pytest

from repro.simulation.montecarlo import chunk_generators


def uniform_draws(*args, **kwargs):
    """Each chunk's ``count`` uniform draws, concatenated in chunk order."""
    return np.concatenate(
        [generator.uniform(size=count) for count, generator in chunk_generators(*args, **kwargs)]
    )


class TestChunkGenerators:
    def test_reproducible_for_same_seed_and_chunking(self):
        first = uniform_draws(1, "montecarlo", trials=100, chunk_size=32)
        second = uniform_draws(1, "montecarlo", trials=100, chunk_size=32)
        assert np.array_equal(first, second)

    def test_chunks_draw_independent_streams(self):
        draws = uniform_draws(2, "montecarlo", trials=100, chunk_size=10)
        assert len(set(draws.tolist())) == 100

    def test_partial_final_chunk(self):
        counts = [count for count, _ in chunk_generators(4, "montecarlo", 25, 10)]
        assert counts == [10, 10, 5]

    def test_continued_run_draws_the_tail_of_a_longer_run(self):
        # Chunk seeds are absolute: trials [20, 50) of one run are the run
        # continued from trial 20.
        whole = uniform_draws(7, "montecarlo", trials=50, chunk_size=10)
        tail = uniform_draws(7, "montecarlo", trials=30, chunk_size=10, first_trial=20)
        assert np.array_equal(tail, whole[20:])

    def test_validation_raises_at_the_call(self):
        for trials, chunk_size, first_trial in [(0, 10, 0), (10, 0, 0), (10, 10, -1)]:
            with pytest.raises(ValueError):
                chunk_generators(0, "montecarlo", trials, chunk_size, first_trial)
