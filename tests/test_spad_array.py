"""Tests for repro.spad.array: the multichannel batch window pass."""

import numpy as np
import pytest

from repro.analysis.units import NS
from repro.spad.array import detect_in_windows_multichannel
from repro.spad.device import SpadDevice


class TestBatchWindows:
    """The vectorised (symbols, channels) window pass."""

    def test_bright_pulses_detected_on_every_channel(self):
        offsets = np.full((16, 8), 10 * NS)
        times, origins = detect_in_windows_multichannel(
            SpadDevice(), 40 * NS, offsets, mean_photons=1000.0,
            generator=np.random.default_rng(5),
        )
        assert times.shape == origins.shape == (16, 8)
        assert np.all(origins == 0)
        # Every detection lies inside its own window.
        relative = times - np.arange(16)[:, None] * 40 * NS
        assert np.all((relative >= 0) & (relative < 40 * NS))

    def test_no_pulses_mostly_missed(self):
        offsets = np.full((64, 4), np.nan)
        times, origins = detect_in_windows_multichannel(
            SpadDevice(), 40 * NS, offsets, mean_photons=0.0,
            generator=np.random.default_rng(6),
        )
        assert not np.any(origins == 0)
        assert np.all(np.isnan(times[origins < 0]))

    def test_determinism_per_array_seed(self):
        offsets = np.full((32, 4), 5 * NS)
        results = [
            detect_in_windows_multichannel(
                SpadDevice(), 40 * NS, offsets, mean_photons=3.0,
                generator=np.random.default_rng(7),
            )
            for _ in range(2)
        ]
        assert np.array_equal(results[0][0], results[1][0], equal_nan=True)
        assert np.array_equal(results[0][1], results[1][1])

    def test_statistics_match_per_pixel_scalar_loop(self):
        # The vectorised pass and the scalar per-pixel loop sample the same
        # detection probability (statistical, not draw-for-draw, equivalence).
        device = SpadDevice()
        windows, photons = 256, 2.0
        offsets = np.full((windows, 8), 10 * NS)
        _, origins = detect_in_windows_multichannel(
            device, 40 * NS, offsets, mean_photons=photons, generator=np.random.default_rng(8)
        )
        batch_rate = np.count_nonzero(origins == 0) / origins.size
        expected = device.detection_probability_for_photons(photons)
        sigma = np.sqrt(expected * (1 - expected) / origins.size)
        assert abs(batch_rate - expected) < 5 * sigma

    def test_validation(self):
        def detect(window, offsets):
            return detect_in_windows_multichannel(
                SpadDevice(), window, offsets, generator=np.random.default_rng(9)
            )

        with pytest.raises(ValueError):
            detect(40 * NS, np.full(4, 1 * NS))  # not 2-D
        with pytest.raises(ValueError):
            detect(0.0, np.full((4, 2), 1 * NS))
        with pytest.raises(ValueError):
            detect(40 * NS, np.full((4, 2), 50 * NS))  # outside window

    def test_secondary_pulses_report_crosstalk_origin(self):
        device = SpadDevice()
        generator = np.random.default_rng(3)
        own = np.full((64, 2), np.nan)  # victims send nothing themselves
        aggressor = np.full((64, 2), 10 * NS)
        times, origins = detect_in_windows_multichannel(
            device,
            40 * NS,
            own,
            mean_photons=0.0,
            generator=generator,
            secondary_offsets=[aggressor],
            secondary_photons=[1000.0],
        )
        assert np.count_nonzero(origins == 3) > 0.9 * origins.size
        assert not np.any(origins == 0)

    @pytest.mark.parametrize(
        "photons", [-5.0, np.nan, np.array([2.0, np.nan])], ids=["negative", "nan", "nan-channel"]
    )
    def test_negative_or_nan_photon_budgets_are_refused(self, photons):
        offsets = np.full((4, 2), 1 * NS)
        with pytest.raises(ValueError, match="mean_photons"):
            detect_in_windows_multichannel(SpadDevice(), 32 * NS, offsets, photons)

    @pytest.mark.parametrize(
        "photons", [-5.0, np.nan, np.array([np.nan, 2.0])], ids=["negative", "nan", "nan-channel"]
    )
    def test_negative_or_nan_interference_budgets_are_refused(self, photons):
        offsets = np.full((4, 2), 1 * NS)
        with pytest.raises(ValueError, match="secondary_photons"):
            detect_in_windows_multichannel(
                SpadDevice(), 32 * NS, offsets, 5.0,
                secondary_offsets=[offsets], secondary_photons=[photons],
            )

    def test_unbounded_budgets_are_certain_detections(self):
        # A link configured with ``mean_detected_photons=inf`` hands the pass
        # infinite budgets; they stay valid.
        offsets = np.full((8, 3), 1 * NS)
        _, origins = detect_in_windows_multichannel(
            SpadDevice(), 32 * NS, offsets, np.inf, generator=np.random.default_rng(1),
            secondary_offsets=[np.full((8, 3), 0.5 * NS)], secondary_photons=[np.inf],
        )
        assert np.all(origins == 3)  # the earlier interference pulse wins every window

    def test_unknown_kernel_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "psychic")
        with pytest.raises(ValueError, match="unknown kernel"):
            detect_in_windows_multichannel(SpadDevice(), 32 * NS, np.full((2, 2), 1 * NS))

    def test_dead_time_couples_consecutive_windows(self):
        # With a dead time spanning several windows and no gated recovery,
        # back-to-back bright pulses cannot all fire.
        from repro.spad.quenching import QuenchingCircuit

        device = SpadDevice(quenching=QuenchingCircuit(dead_time=100 * NS, gate_recovery=100 * NS))
        generator = np.random.default_rng(4)
        offsets = np.full((16, 1), 1 * NS)
        _, origins = detect_in_windows_multichannel(
            device, 10 * NS, offsets, mean_photons=1000.0, generator=generator
        )
        fired = np.flatnonzero(origins[:, 0] == 0)
        assert fired.size < 16
        assert np.all(np.diff(fired) >= 10)  # at least dead_time/window apart
