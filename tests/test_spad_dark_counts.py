"""Tests for repro.spad.dark_counts."""

import pytest

from repro.analysis.units import NS, US
from repro.spad.dark_counts import DarkCountModel


class TestRate:
    def test_reference_rate(self):
        model = DarkCountModel(rate_at_reference=200.0)
        assert model.rate() == pytest.approx(200.0)

    def test_doubles_every_doubling_temperature(self):
        model = DarkCountModel(rate_at_reference=100.0, doubling_temperature=10.0)
        assert model.rate(temperature=30.0) == pytest.approx(200.0)
        assert model.rate(temperature=50.0) == pytest.approx(800.0)

    def test_cold_operation_reduces_rate(self):
        model = DarkCountModel()
        assert model.rate(temperature=-20.0) < model.rate(temperature=20.0)

    def test_bias_slope(self):
        model = DarkCountModel(rate_at_reference=100.0, bias_slope=0.5)
        assert model.rate(excess_bias=model.reference_excess_bias + 1.0) == pytest.approx(150.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DarkCountModel(rate_at_reference=-1.0)
        with pytest.raises(ValueError):
            DarkCountModel(doubling_temperature=0.0)
        with pytest.raises(ValueError):
            DarkCountModel().rate(excess_bias=-1.0)


class TestWindowStatistics:
    def test_expected_counts_scale_with_window(self):
        model = DarkCountModel(rate_at_reference=1000.0)
        assert model.expected_counts(1e-3) == pytest.approx(1.0)
        assert model.expected_counts(0.0) == 0.0
        with pytest.raises(ValueError):
            model.expected_counts(-1.0)

    def test_probability_in_window_small_window(self):
        model = DarkCountModel(rate_at_reference=200.0)
        # 200 cps in a 32 ns window: ~6.4e-6 probability.
        prob = model.probability_in_window(32 * NS)
        assert prob == pytest.approx(200.0 * 32e-9, rel=1e-3)

    def test_probability_saturates_at_one(self):
        model = DarkCountModel(rate_at_reference=1e9)
        assert model.probability_in_window(1.0) == pytest.approx(1.0)
