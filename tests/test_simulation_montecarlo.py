"""Tests for repro.simulation.montecarlo."""

import numpy as np
import pytest

from repro.simulation.montecarlo import MonteCarloResult, MonteCarloRunner


class TestRunBatch:
    def test_reproducible_for_same_seed_and_chunking(self):
        trial = lambda rng, count: rng.uniform(size=count)
        first = MonteCarloRunner(seed=1).run_batch(trial, trials=100, chunk_size=32)
        second = MonteCarloRunner(seed=1).run_batch(trial, trials=100, chunk_size=32)
        assert np.array_equal(first.samples, second.samples)

    def test_chunks_draw_independent_streams(self):
        trial = lambda rng, count: rng.uniform(size=count)
        result = MonteCarloRunner(seed=2).run_batch(trial, trials=100, chunk_size=10)
        assert len(set(result.samples.tolist())) == 100

    def test_mean_of_uniform(self):
        trial = lambda rng, count: rng.uniform(size=count)
        result = MonteCarloRunner(seed=3).run_batch(trial, trials=5000)
        assert result.mean == pytest.approx(0.5, abs=0.03)

    def test_partial_final_chunk(self):
        result = MonteCarloRunner(seed=4).run_batch(
            lambda rng, count: np.full(count, 1.0), trials=25, chunk_size=10
        )
        assert result.trials == 25
        assert result.mean == 1.0

    def test_progress_reports_chunk_boundaries(self):
        seen = []
        MonteCarloRunner(seed=5).run_batch(
            lambda rng, count: np.zeros(count),
            trials=25,
            chunk_size=10,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen == [(10, 25), (20, 25), (25, 25)]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MonteCarloRunner(seed=6).run_batch(
                lambda rng, count: np.zeros(count + 1), trials=10
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            MonteCarloRunner().run_batch(lambda rng, count: np.zeros(count), trials=0)
        with pytest.raises(ValueError):
            MonteCarloRunner().run_batch(
                lambda rng, count: np.zeros(count), trials=10, chunk_size=0
            )


class TestMonteCarloResult:
    def test_statistics(self):
        result = MonteCarloResult(samples=np.array([1.0, 2.0, 3.0]))
        assert result.trials == 3
        assert result.minimum == 1.0
        assert result.maximum == 3.0
        assert result.mean == pytest.approx(2.0)
        assert result.std == pytest.approx(1.0)
        assert result.standard_error() == pytest.approx(1.0 / np.sqrt(3))
        assert result.percentile(50) == pytest.approx(2.0)

    def test_single_sample_std_zero(self):
        result = MonteCarloResult(samples=np.array([5.0]))
        assert result.std == 0.0

    def test_empty_raises(self):
        result = MonteCarloResult(samples=np.array([]))
        with pytest.raises(ValueError):
            _ = result.mean
