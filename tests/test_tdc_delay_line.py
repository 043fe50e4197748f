"""Tests for repro.tdc.delay_line."""

import numpy as np
import pytest

from repro.analysis.units import NS, PS
from repro.simulation.randomness import RandomSource
from repro.tdc.delay_element import DelayElementModel
from repro.tdc.delay_line import TappedDelayLine


@pytest.fixture
def ideal_line():
    """A 10-element line with exactly 100 ps elements (no mismatch)."""
    return TappedDelayLine(DelayElementModel(nominal_delay=100 * PS, mismatch_sigma=0.0), length=10)


class TestGeometry:
    def test_total_delay(self, ideal_line):
        assert ideal_line.total_delay == pytest.approx(1 * NS)
        assert len(ideal_line) == 10

    def test_tap_times_monotonic(self, ideal_line):
        taps = ideal_line.tap_times
        assert np.all(np.diff(taps) > 0)
        assert taps[0] == pytest.approx(100 * PS)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            TappedDelayLine(DelayElementModel(), length=0)

    def test_mean_resolution(self, ideal_line):
        assert ideal_line.mean_resolution() == pytest.approx(100 * PS)


class TestMeasurement:
    def test_taps_reached_exact_multiples(self, ideal_line):
        assert ideal_line.taps_reached(0.0) == 0
        assert ideal_line.taps_reached(99 * PS) == 0
        assert ideal_line.taps_reached(100 * PS) == 1
        assert ideal_line.taps_reached(550 * PS) == 5
        assert ideal_line.taps_reached(2 * NS) == 10  # saturates at length

    def test_negative_elapsed_rejected(self, ideal_line):
        with pytest.raises(ValueError):
            ideal_line.taps_reached(-1.0)

    def test_thermometer_code_shape(self, ideal_line):
        code = ideal_line.thermometer_code(350 * PS)
        assert code.sum() == 3
        assert list(code[:3]) == [1, 1, 1]
        assert code[3] == 0

    def test_covers(self, ideal_line):
        assert ideal_line.covers(1 * NS)
        assert not ideal_line.covers(1.1 * NS)
        with pytest.raises(ValueError):
            ideal_line.covers(0.0)

    def test_elements_used_for_window(self, ideal_line):
        assert ideal_line.elements_used_for(0.95 * NS) == 9

    def test_bin_widths_are_element_delays(self, ideal_line):
        assert np.allclose(ideal_line.bin_widths(), 100 * PS)


class TestOperatingPoint:
    def test_temperature_slows_the_same_chain(self):
        model = DelayElementModel(nominal_delay=100 * PS, mismatch_sigma=0.05, temperature_coefficient=1e-3)
        line = TappedDelayLine(model, length=20, random_source=RandomSource(1), temperature=20.0)
        cold_total = line.total_delay
        line.set_operating_point(temperature=80.0)
        assert line.total_delay > cold_total
        # Mismatch pattern is preserved (same silicon): ratios stay constant.
        line.set_operating_point(temperature=20.0)
        assert line.total_delay == pytest.approx(cold_total)

    def test_voltage_speeds_up_chain(self):
        model = DelayElementModel(nominal_delay=100 * PS, voltage_coefficient=0.15)
        line = TappedDelayLine(model, length=10)
        nominal = line.total_delay
        line.set_operating_point(voltage=1.8)
        assert line.total_delay < nominal

    def test_mismatch_frozen_per_instance(self):
        model = DelayElementModel(nominal_delay=100 * PS, mismatch_sigma=0.1)
        a = TappedDelayLine(model, length=16, random_source=RandomSource(1))
        b = TappedDelayLine(model, length=16, random_source=RandomSource(1))
        c = TappedDelayLine(model, length=16, random_source=RandomSource(2))
        assert np.array_equal(a.element_delays, b.element_delays)
        assert not np.array_equal(a.element_delays, c.element_delays)


class TestGeometryCaching:
    """tap_times/element_delays are cached per operating point (hot TDC path)."""

    def test_repeated_access_returns_same_array_object(self):
        model = DelayElementModel(nominal_delay=100 * PS, mismatch_sigma=0.05)
        line = TappedDelayLine(model, length=16, random_source=RandomSource(1))
        assert line.tap_times is line.tap_times
        assert line.element_delays is line.element_delays

    def test_cached_arrays_are_read_only(self):
        line = TappedDelayLine(DelayElementModel(nominal_delay=100 * PS), length=8)
        with pytest.raises(ValueError):
            line.tap_times[0] = 0.0
        with pytest.raises(ValueError):
            line.element_delays[0] = 0.0

    def test_set_operating_point_invalidates_cache(self):
        model = DelayElementModel(
            nominal_delay=100 * PS, mismatch_sigma=0.05, temperature_coefficient=1e-3
        )
        line = TappedDelayLine(model, length=16, random_source=RandomSource(1), temperature=20.0)
        cold_taps = line.tap_times
        cold_delays = line.element_delays
        cold_lsb = line.mean_resolution()
        line.set_operating_point(temperature=80.0)
        hot_taps = line.tap_times
        assert hot_taps is not cold_taps
        assert np.all(hot_taps > cold_taps)
        assert line.element_delays is not cold_delays
        assert line.mean_resolution() > cold_lsb
        assert line.mean_resolution() == float(np.mean(line.element_delays))
        # Moving back re-derives the original geometry from the frozen mismatch.
        line.set_operating_point(temperature=20.0)
        assert np.allclose(line.tap_times, cold_taps)
        assert line.mean_resolution() == pytest.approx(cold_lsb)
