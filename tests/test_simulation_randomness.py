"""Tests for repro.simulation.randomness."""

import numpy as np
import pytest

from repro.simulation.randomness import RandomSource, split_seed


class TestSplitSeed:
    def test_deterministic(self):
        assert split_seed(1, "a") == split_seed(1, "a")

    def test_labels_give_different_streams(self):
        assert split_seed(1, "a") != split_seed(1, "b")

    def test_seeds_give_different_streams(self):
        assert split_seed(1, "a") != split_seed(2, "a")


class TestRandomSource:
    def test_reproducible_for_same_seed(self):
        a = RandomSource(42)
        b = RandomSource(42)
        assert a.normal(0, 1) == b.normal(0, 1)
        assert np.array_equal(a.generator.random(4), b.generator.random(4))

    def test_spawn_independent_but_deterministic(self):
        a = RandomSource(42).spawn("child")
        b = RandomSource(42).spawn("child")
        c = RandomSource(42).spawn("other")
        assert a.normal() == b.normal()
        assert RandomSource(42).spawn("child").normal() != c.normal()

    def test_bernoulli_extremes(self):
        source = RandomSource(0)
        assert source.bernoulli(1.0) is True
        assert source.bernoulli(0.0) is False
        with pytest.raises(ValueError):
            source.bernoulli(1.5)

    def test_exponential_positive_and_validated(self):
        source = RandomSource(0)
        assert source.exponential(1e6) > 0
        with pytest.raises(ValueError):
            source.exponential(0.0)

    def test_normal_array_negative_std_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(0).normal_array(0.0, -1.0, 5)


class TestPoissonArrivals:
    def test_rate_matches_expectation(self):
        source = RandomSource(3)
        times = source.poisson_arrival_times(rate=1e6, duration=1e-3)
        assert times.size == pytest.approx(1000, rel=0.15)
        assert np.all(np.diff(times) >= 0)
        assert np.all((times >= 0) & (times < 1e-3))

    def test_zero_rate_or_duration(self):
        source = RandomSource(0)
        assert source.poisson_arrival_times(0.0, 1.0).size == 0
        assert source.poisson_arrival_times(1e6, 0.0).size == 0

    def test_negative_inputs_rejected(self):
        source = RandomSource(0)
        with pytest.raises(ValueError):
            source.poisson_arrival_times(-1.0, 1.0)
        with pytest.raises(ValueError):
            source.poisson_arrival_times(1.0, -1.0)
