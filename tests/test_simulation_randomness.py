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
        assert a.bernoulli(0.5) == b.bernoulli(0.5)
        assert np.array_equal(a.normal_array(0, 1, 4), b.normal_array(0, 1, 4))
        assert np.array_equal(a.generator.random(4), b.generator.random(4))

    def test_spawn_independent_but_deterministic(self):
        a = RandomSource(42).spawn("child")
        b = RandomSource(42).spawn("child")
        c = RandomSource(42).spawn("other")
        assert np.array_equal(a.normal_array(0, 1, 4), b.normal_array(0, 1, 4))
        assert not np.array_equal(
            RandomSource(42).spawn("child").normal_array(0, 1, 4), c.normal_array(0, 1, 4)
        )

    def test_bernoulli_extremes(self):
        source = RandomSource(0)
        assert source.bernoulli(1.0) is True
        assert source.bernoulli(0.0) is False
        with pytest.raises(ValueError):
            source.bernoulli(1.5)

    def test_normal_array_negative_std_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(0).normal_array(0.0, -1.0, 5)
