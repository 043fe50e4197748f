"""Tests for repro.spad.device."""

import numpy as np
import pytest

from repro.analysis.units import NM, NS
from repro.simulation.randomness import RandomSource
from repro.spad.afterpulsing import AfterpulsingModel
from repro.spad.dark_counts import DarkCountModel
from repro.spad.device import DetectionOrigin, ImportanceSettings, SpadConfig, SpadDevice
from repro.spad.jitter import JitterModel
from repro.spad.pdp import PdpCurve
from repro.spad.quenching import QuenchingCircuit


def make_device(seed=0, **kwargs):
    defaults = dict(
        dark_counts=DarkCountModel(rate_at_reference=0.0),
        afterpulsing=AfterpulsingModel(probability=0.0),
        jitter=JitterModel(sigma=0.0, tail_fraction=0.0),
        random_source=RandomSource(seed),
    )
    defaults.update(kwargs)
    return SpadDevice(**defaults)


class TestSpadConfig:
    def test_active_area(self):
        config = SpadConfig(active_diameter=8e-6)
        assert config.active_area == pytest.approx(3.14159 * 16e-12, rel=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpadConfig(active_diameter=0.0)
        with pytest.raises(ValueError):
            SpadConfig(fill_factor=0.0)
        with pytest.raises(ValueError):
            SpadConfig(excess_bias=-1.0)


class TestStaticCharacteristics:
    def test_detection_probability_uses_pdp_curve(self):
        device = make_device()
        assert 0.1 < device.detection_probability < 0.5

    def test_detection_probability_follows_rebound_config_and_curve(self):
        # The PDP is cached, but rebinding either frozen input recomputes it.
        device = make_device()
        first = device.detection_probability
        assert device.detection_probability == first
        device.config = SpadConfig(wavelength=450 * NM)
        assert device.detection_probability > first
        assert device.detection_probability == device.pdp_curve.pdp(
            450 * NM, device.config.excess_bias
        )
        device.pdp_curve = PdpCurve(wavelengths=(400 * NM, 500 * NM), pdp_values=(0.5, 0.5))
        assert device.detection_probability == pytest.approx(0.5)

    def test_detection_probability_for_photons_saturates(self):
        device = make_device()
        assert device.detection_probability_for_photons(0.0) == 0.0
        assert device.detection_probability_for_photons(1000.0) == pytest.approx(1.0)
        low = device.detection_probability_for_photons(1.0)
        high = device.detection_probability_for_photons(10.0)
        assert low < high
        with pytest.raises(ValueError):
            device.detection_probability_for_photons(-1.0)

    def test_dark_count_rate_and_saturation(self):
        device = SpadDevice(random_source=RandomSource(0))
        assert device.dark_count_rate > 0
        assert device.saturated_count_rate() == pytest.approx(1.0 / device.dead_time)


class TestImportanceSettings:
    def test_nan_dark_floor_is_refused(self):
        # max(dark_mean, nan) is dark_mean: NaN would switch the floor off.
        with pytest.raises(ValueError, match="min_dark_expectation"):
            ImportanceSettings(min_dark_expectation=float("nan"))

    def test_infinite_dark_floor_is_refused(self):
        # Accepted, it failed later inside NumPy's Poisson draw.
        with pytest.raises(ValueError, match="min_dark_expectation"):
            ImportanceSettings(min_dark_expectation=float("inf"))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("min_miss_probability", True),
            ("min_dark_expectation", True),
            ("min_trap_probability", False),
            ("min_dark_expectation", np.True_),
        ],
    )
    def test_bool_floors_are_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            ImportanceSettings(**{field: value})

    def test_zero_floors_are_accepted(self):
        settings = ImportanceSettings(min_dark_expectation=0.0, min_trap_probability=0.0)
        assert settings.min_dark_expectation == settings.min_trap_probability == 0.0


class TestWindowDetection:
    def test_bright_pulse_always_detected(self):
        device = make_device()
        event = device.detect_in_window(0.0, 40 * NS, photon_time=10 * NS, mean_photons=1000.0)
        assert event is not None
        assert event.origin is DetectionOrigin.PHOTON
        assert event.time == pytest.approx(10 * NS)

    def test_no_pulse_and_no_noise_gives_nothing(self):
        device = make_device()
        assert device.detect_in_window(0.0, 40 * NS, photon_time=None) is None

    def test_photon_time_must_be_inside_window(self):
        device = make_device()
        with pytest.raises(ValueError):
            device.detect_in_window(0.0, 40 * NS, photon_time=50 * NS)
        with pytest.raises(ValueError):
            device.detect_in_window(0.0, -1.0, photon_time=None)

    def test_dead_time_blocks_next_window(self):
        device = make_device(quenching=QuenchingCircuit(dead_time=100 * NS, gate_recovery=5 * NS))
        first = device.detect_in_window(0.0, 40 * NS, photon_time=30 * NS, mean_photons=1000.0)
        assert first is not None
        second = device.detect_in_window(40 * NS, 40 * NS, photon_time=50 * NS, mean_photons=1000.0)
        assert second is None  # still within the 100 ns dead time

    def test_rearm_allows_next_window(self):
        device = make_device(quenching=QuenchingCircuit(dead_time=100 * NS, gate_recovery=5 * NS))
        device.detect_in_window(0.0, 40 * NS, photon_time=30 * NS, mean_photons=1000.0)
        assert device.rearm(40 * NS) is True
        second = device.detect_in_window(40 * NS, 40 * NS, photon_time=50 * NS, mean_photons=1000.0)
        assert second is not None

    def test_rearm_respects_physical_recovery(self):
        device = make_device(quenching=QuenchingCircuit(dead_time=100 * NS, gate_recovery=20 * NS))
        device.detect_in_window(0.0, 40 * NS, photon_time=35 * NS, mean_photons=1000.0)
        assert device.rearm(40 * NS) is False  # only 5 ns since the avalanche
        with pytest.raises(ValueError):
            device.rearm(10 * NS)

    def test_reset_clears_state(self):
        device = make_device()
        device.detect_in_window(0.0, 40 * NS, photon_time=30 * NS, mean_photons=1000.0)
        device.reset()
        assert device.is_ready(0.0)

    def test_dark_counts_preempt_late_photons(self):
        device = make_device(
            dark_counts=DarkCountModel(rate_at_reference=1e9),  # absurdly noisy device
            random_source=RandomSource(5),
        )
        event = device.detect_in_window(0.0, 40 * NS, photon_time=39 * NS, mean_photons=1000.0)
        assert event is not None
        assert event.origin is DetectionOrigin.DARK_COUNT
        assert event.time < 39 * NS

    def test_afterpulse_appears_in_later_window(self):
        device = make_device(
            afterpulsing=AfterpulsingModel(probability=1.0, time_constant=200 * NS),
            quenching=QuenchingCircuit(dead_time=10 * NS, gate_recovery=5 * NS),
            random_source=RandomSource(3),
        )
        first = device.detect_in_window(0.0, 40 * NS, photon_time=5 * NS, mean_photons=1000.0)
        assert first is not None
        # Scan subsequent windows without any light: only after-pulses can fire.
        origins = []
        for index in range(1, 50):
            start = index * 40 * NS
            device.rearm(start)
            event = device.detect_in_window(start, 40 * NS, photon_time=None)
            if event is not None:
                origins.append(event.origin)
        assert DetectionOrigin.AFTERPULSE in origins
