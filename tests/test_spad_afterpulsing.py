"""Tests for repro.spad.afterpulsing."""

import pytest

from repro.analysis.units import NS
from repro.spad.afterpulsing import AfterpulsingModel


class TestProbabilities:
    def test_survival_decays(self):
        model = AfterpulsingModel(probability=0.05, time_constant=30 * NS)
        assert model.survival_after(0.0) == pytest.approx(1.0)
        assert model.survival_after(30 * NS) == pytest.approx(0.3679, rel=1e-3)
        assert model.survival_after(300 * NS) < 1e-4

    def test_longer_dead_time_suppresses_afterpulses(self):
        """The paper's reason for matching the range to the SPAD dead time."""
        model = AfterpulsingModel(probability=0.05, time_constant=30 * NS)
        short = model.effective_probability(10 * NS)
        long = model.effective_probability(100 * NS)
        assert long < short < model.probability

    def test_probability_in_window_is_a_difference_of_survivals(self):
        model = AfterpulsingModel(probability=0.1, time_constant=30 * NS)
        p = model.probability_in_window(dead_time=30 * NS, window=30 * NS)
        expected = 0.1 * (model.survival_after(30 * NS) - model.survival_after(60 * NS))
        assert p == pytest.approx(expected)

    def test_window_zero_gives_zero(self):
        model = AfterpulsingModel()
        assert model.probability_in_window(10 * NS, 0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AfterpulsingModel(probability=1.5)
        with pytest.raises(ValueError):
            AfterpulsingModel(time_constant=0.0)
        with pytest.raises(ValueError):
            AfterpulsingModel().survival_after(-1.0)
        with pytest.raises(ValueError):
            AfterpulsingModel().probability_in_window(-1.0, 1.0)
