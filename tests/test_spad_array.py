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
        "label,device_kwargs,window,offset_span,photons,crosstalk,background",
        [
            ("moderate", {}, 32 * NS, (0, 8 * NS), 5.0, False, 0.0),
            ("bright", {}, 32 * NS, (0, 8 * NS), 500.0, False, 0.0),
            (
                "heavy-afterpulse",
                {"afterpulsing": dict(probability=0.5, time_constant=60 * NS)},
                32 * NS,
                (0, 8 * NS),
                50.0,
                False,
                0.0,
            ),
            (
                "long-dead-time",
                {"quenching": dict(dead_time=100 * NS, gate_recovery=100 * NS)},
                10 * NS,
                (0, 9 * NS),
                800.0,
                False,
                0.0,
            ),
            (
                "heavy-darks",
                {"dark_counts": dict(rate_at_reference=5e6)},
                32 * NS,
                (0, 8 * NS),
                2.0,
                False,
                0.0,
            ),
            ("crosstalk", {}, 32 * NS, (0, 8 * NS), 50.0, True, 0.1),
            (
                "late-fires",
                {
                    "quenching": dict(dead_time=32 * NS, gate_recovery=20 * NS),
                    "afterpulsing": dict(probability=0.4, time_constant=40 * NS),
                },
                32 * NS,
                (27 * NS, 31.9 * NS),
                300.0,
                True,
                0.05,
            ),
        ],
    )
    def test_fast_resolver_is_bit_identical_to_reference(
        self, monkeypatch, label, device_kwargs, window, offset_span, photons, crosstalk, background
    ):
        # Every kernel's resolver and the window-by-window reference consume
        # the same pre-drawn randomness, so their outputs must match exactly
        # — not just statistically — in every coupling regime.
        import dataclasses

        from repro import kernels
        from repro.kernels import reference
        from repro.spad.afterpulsing import AfterpulsingModel
        from repro.spad.dark_counts import DarkCountModel
        from repro.spad.quenching import QuenchingCircuit

        models = {}
        if "afterpulsing" in device_kwargs:
            models["afterpulsing"] = AfterpulsingModel(**device_kwargs["afterpulsing"])
        if "quenching" in device_kwargs:
            models["quenching"] = QuenchingCircuit(**device_kwargs["quenching"])
        if "dark_counts" in device_kwargs:
            models["dark_counts"] = DarkCountModel(**device_kwargs["dark_counts"])
        device = SpadDevice(**models)
        rng = np.random.default_rng(0)
        offsets = rng.uniform(*offset_span, (300, 16))
        offsets[rng.random((300, 16)) < 0.1] = np.nan
        secondary = (
            ([np.roll(offsets, 1, axis=1), np.roll(offsets, -1, axis=1)], [20.0, 20.0])
            if crosstalk
            else ([], [])
        )

        def detect(kernel):
            return detect_in_windows_multichannel(
                device,
                window,
                offsets,
                photons,
                generator=np.random.default_rng(12),
                secondary_offsets=secondary[0],
                secondary_photons=secondary[1],
                background_mean=background,
                kernel=kernel,
            )

        outputs = {name: detect(name) for name in kernels.available_kernels()}
        # The reference resolver, reached through the registry.
        registry = kernels._registry()
        monkeypatch.setitem(
            registry,
            "python",
            dataclasses.replace(registry["python"], resolve_windows=reference.resolve_windows),
        )
        expected = detect("python")
        for name, (times, origins) in outputs.items():
            assert np.array_equal(times, expected[0], equal_nan=True), (label, name)
            assert np.array_equal(origins, expected[1]), (label, name)

    def test_unknown_resolver_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            detect_in_windows_multichannel(
                SpadDevice(), 32 * NS, np.full((2, 2), 1 * NS), kernel="psychic"
            )

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
