"""Tests for repro.spad.device."""

import numpy as np
import pytest

from repro.analysis.units import NM, NS
from repro.simulation.randomness import RandomSource
from repro.spad.afterpulsing import AfterpulsingModel
from repro.spad.dark_counts import DarkCountModel
from repro.spad.device import ImportanceSettings, SpadConfig, SpadDevice
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

    @pytest.mark.parametrize("photons", [-5.0, float("nan")], ids=["negative", "nan"])
    def test_negative_or_nan_budgets_are_refused(self, photons):
        # NaN fails every comparison, so a ``< 0`` check lets it through.
        device = make_device()
        with pytest.raises(ValueError, match="mean_photons"):
            device.detection_probability_for_photons(photons)
        with pytest.raises(ValueError, match="mean_photons"):
            device.detect_in_windows(40 * NS, np.full(8, 10 * NS), photons)

    def test_an_unbounded_budget_is_a_certain_detection(self):
        device = make_device()
        assert device.detection_probability_for_photons(float("inf")) == 1.0
        _, origins = device.detect_in_windows(40 * NS, np.full(8, 10 * NS), float("inf"))
        assert np.all(origins == 0)

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
    """One window per pulse offset, window ``i`` starting at ``i * 40 ns``."""

    WINDOW = 40 * NS

    def detect(self, device, offsets, photons=1000.0):
        return device.detect_in_windows(self.WINDOW, np.array(offsets, dtype=float), photons)

    def test_bright_pulse_always_detected(self):
        times, origins = self.detect(make_device(), [10 * NS])
        assert origins.tolist() == [0]
        assert times[0] == pytest.approx(10 * NS)

    def test_no_pulse_and_no_noise_gives_nothing(self):
        times, origins = self.detect(make_device(), [np.nan])
        assert origins.tolist() == [-1]
        assert np.isnan(times[0])

    def test_photon_time_must_be_inside_window(self):
        device = make_device()
        with pytest.raises(ValueError):
            self.detect(device, [50 * NS])
        with pytest.raises(ValueError):
            device.detect_in_windows(-1.0, np.array([np.nan]))

    def test_dead_time_blocks_next_window(self):
        # 5 ns after the fire is short of the 20 ns gate recovery, so the next
        # window stays blind for the 100 ns dead time; the one after re-arms.
        device = make_device(quenching=QuenchingCircuit(dead_time=100 * NS, gate_recovery=20 * NS))
        _, origins = self.detect(device, [35 * NS, 10 * NS, 10 * NS])
        assert origins.tolist() == [0, -1, 0]

    def test_rearm_allows_next_window(self):
        # 10 ns after the fire the gate recovery has passed: the receiver
        # re-arms the device at the window start despite the dead time.
        device = make_device(quenching=QuenchingCircuit(dead_time=100 * NS, gate_recovery=5 * NS))
        _, origins = self.detect(device, [30 * NS, 10 * NS])
        assert origins.tolist() == [0, 0]

    def test_reset_clears_state(self):
        device = make_device()
        self.detect(device, [30 * NS])
        assert device._last_fire_time is not None
        device.reset()
        assert device._last_fire_time is None and device._pending_afterpulse is None
        _, origins = self.detect(device, [10 * NS])  # a pass may start at 0 again
        assert origins.tolist() == [0]

    def test_dark_counts_preempt_late_photons(self):
        device = make_device(
            dark_counts=DarkCountModel(rate_at_reference=1e9),  # absurdly noisy device
            random_source=RandomSource(5),
        )
        times, origins = self.detect(device, [39 * NS])
        assert origins.tolist() == [1]
        assert times[0] < 39 * NS

    def test_afterpulse_appears_in_later_window(self):
        device = make_device(
            afterpulsing=AfterpulsingModel(probability=1.0, time_constant=200 * NS),
            quenching=QuenchingCircuit(dead_time=10 * NS, gate_recovery=5 * NS),
            random_source=RandomSource(3),
        )
        # One pulse at the end of the first window (a release within the rest
        # of its own window is absorbed), then windows without any light:
        # only afterpulses can fire.
        _, origins = self.detect(device, [39 * NS] + [np.nan] * 49)
        assert origins[0] == 0
        assert 2 in origins[1:].tolist()
