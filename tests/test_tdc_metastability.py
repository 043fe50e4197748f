"""Tests for repro.tdc.metastability."""

import numpy as np
import pytest

from repro.analysis.units import PS
from repro.simulation.randomness import RandomSource
from repro.tdc.metastability import MetastabilityModel


class TestMetastabilityModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            MetastabilityModel(aperture=-1.0)
        with pytest.raises(ValueError):
            MetastabilityModel(flip_probability=1.5)

    def test_no_corruption_far_from_edge(self):
        model = MetastabilityModel(aperture=5 * PS, flip_probability=1.0)
        taps = np.arange(1, 11) * 100 * PS
        code = np.array([1] * 3 + [0] * 7, dtype=np.int8)
        corrupted = model.corrupt(code, taps, elapsed=350 * PS, random_source=RandomSource(0))
        assert np.array_equal(corrupted, code)

    def test_corruption_near_edge(self):
        model = MetastabilityModel(aperture=20 * PS, flip_probability=1.0)
        taps = np.arange(1, 11) * 100 * PS
        code = np.array([1] * 3 + [0] * 7, dtype=np.int8)
        # elapsed lands within the aperture of tap index 3 (400 ps).
        corrupted = model.corrupt(code, taps, elapsed=395 * PS, random_source=RandomSource(0))
        assert corrupted[3] == 1  # flipped from 0 to 1

    def test_no_random_source_is_noop(self):
        model = MetastabilityModel(aperture=20 * PS, flip_probability=1.0)
        taps = np.arange(1, 4) * 100 * PS
        code = np.array([1, 0, 0], dtype=np.int8)
        assert np.array_equal(model.corrupt(code, taps, 105 * PS, None), code)

    def test_length_mismatch_rejected(self):
        model = MetastabilityModel()
        with pytest.raises(ValueError):
            model.corrupt(np.array([1, 0]), np.array([1.0]), 0.5, RandomSource(0))

    def test_expected_bubble_rate(self):
        model = MetastabilityModel(aperture=10 * PS, flip_probability=0.5)
        rate = model.expected_bubble_rate(100 * PS)
        assert rate == pytest.approx(0.05)
        assert model.expected_bubble_rate(5 * PS) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            model.expected_bubble_rate(0.0)

