"""Tests for repro.spad.jitter."""

import numpy as np
import pytest

from repro.analysis.units import PS
from repro.simulation.randomness import RandomSource
from repro.spad.jitter import JitterModel


class TestStatics:
    def test_fwhm_relation(self):
        model = JitterModel(sigma=100 * PS, tail_fraction=0.0)
        assert model.fwhm == pytest.approx(235.5 * PS, rel=1e-3)

    def test_rms_grows_with_tail(self):
        no_tail = JitterModel(sigma=80 * PS, tail_fraction=0.0)
        with_tail = JitterModel(sigma=80 * PS, tail_fraction=0.2, tail_constant=200 * PS)
        assert with_tail.rms() > no_tail.rms()

    def test_validation(self):
        with pytest.raises(ValueError):
            JitterModel(sigma=-1.0)
        with pytest.raises(ValueError):
            JitterModel(tail_fraction=2.0)
        with pytest.raises(ValueError):
            JitterModel(tail_constant=0.0)


class TestSampling:
    def test_gaussian_only_statistics(self):
        model = JitterModel(sigma=100 * PS, tail_fraction=0.0)
        samples = model.sample_array(RandomSource(0), 20_000)
        assert np.mean(samples) == pytest.approx(0.0, abs=3 * PS)
        assert np.std(samples) == pytest.approx(100 * PS, rel=0.03)

    def test_tail_delays_only(self):
        model = JitterModel(sigma=0.0, tail_fraction=1.0, tail_constant=200 * PS)
        samples = model.sample_array(RandomSource(1), 5_000)
        assert np.all(samples >= 0)
        assert np.mean(samples) == pytest.approx(200 * PS, rel=0.1)

    def test_sample_array_validation(self):
        with pytest.raises(ValueError):
            JitterModel().sample_array(RandomSource(0), -1)


class TestProbabilityOutside:
    def test_monotone_in_window(self):
        model = JitterModel(sigma=80 * PS, tail_fraction=0.1, tail_constant=200 * PS)
        p_small = model.probability_outside(50 * PS)
        p_large = model.probability_outside(500 * PS)
        assert p_large < p_small <= 1.0

    def test_matches_monte_carlo(self):
        model = JitterModel(sigma=80 * PS, tail_fraction=0.1, tail_constant=200 * PS)
        half_window = 250 * PS
        samples = model.sample_array(RandomSource(4), 100_000)
        empirical = np.mean(np.abs(samples) > half_window)
        assert model.probability_outside(half_window) == pytest.approx(empirical, rel=0.25)

    def test_zero_sigma_zero_tail(self):
        model = JitterModel(sigma=0.0, tail_fraction=0.0)
        assert model.probability_outside(1 * PS) == pytest.approx(0.0)

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            JitterModel().probability_outside(-1.0)
