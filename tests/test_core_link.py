"""Tests for repro.core.link — the end-to-end PPM link."""

import pytest

from repro.analysis.units import NM, NS, PS
from repro.core.backend import make_link
from repro.core.config import LinkConfig
from repro.core.link import OpticalLink, TransmissionResult
from repro.photonics.channel import OpticalChannel
from repro.photonics.stack import DieStack


class TestTransmission:
    """Physics trends of the end-to-end link, on the default engine.

    The transmit contract itself (padding, validation, determinism) is
    ``tests/test_core_fastlink.py``'s; :class:`OpticalLink` only builds the
    parts every engine transmits over.
    """

    def test_ber_improves_with_photon_count(self):
        dim = make_link(LinkConfig(ppm_bits=4, mean_detected_photons=2.0), seed=5)
        bright = make_link(LinkConfig(ppm_bits=4, mean_detected_photons=100.0), seed=5)
        dim_result = dim.transmit_random(2000)
        bright_result = bright.transmit_random(2000)
        assert bright_result.bit_error_rate < dim_result.bit_error_rate

    def test_wider_slots_reduce_jitter_errors(self):
        narrow = make_link(LinkConfig(ppm_bits=4, slot_duration=200 * PS), seed=6)
        wide = make_link(LinkConfig(ppm_bits=4, slot_duration=2 * NS), seed=6)
        assert wide.transmit_random(3000).bit_error_rate <= narrow.transmit_random(3000).bit_error_rate

    def test_a_bare_link_points_to_make_link(self):
        link = OpticalLink(LinkConfig(ppm_bits=4), seed=1)
        with pytest.raises(NotImplementedError, match="make_link"):
            link.transmit_random(8)


class TestWithChannel:
    def test_channel_attenuates_photon_budget(self):
        stack = DieStack.uniform(count=6, wavelength=850 * NM)
        channel = OpticalChannel(stack=stack, source_layer=0, destination_layer=5)
        config = LinkConfig(ppm_bits=4, mean_detected_photons=1000.0, wavelength=850 * NM)
        with_channel = OpticalLink(config, channel=channel, seed=1)
        without = OpticalLink(config, seed=1)
        assert with_channel.mean_photons_at_detector() < without.mean_photons_at_detector()
        assert with_channel.detection_probability_per_pulse() <= without.detection_probability_per_pulse()

    def test_deep_stack_degrades_ber(self):
        config = LinkConfig(ppm_bits=4, mean_detected_photons=300.0, wavelength=650 * NM)
        shallow_stack = DieStack.uniform(count=2, wavelength=650 * NM)
        deep_stack = DieStack.uniform(count=12, wavelength=650 * NM)
        shallow = make_link(
            config, channel=OpticalChannel(stack=shallow_stack, source_layer=0, destination_layer=1), seed=2
        )
        deep = make_link(
            config, channel=OpticalChannel(stack=deep_stack, source_layer=0, destination_layer=11), seed=2
        )
        assert deep.transmit_random(1500).bit_error_rate >= shallow.transmit_random(1500).bit_error_rate


class TestTransmissionResult:
    def test_statistics_properties(self):
        result = TransmissionResult(
            transmitted_bits=[0, 1, 1, 0],
            received_bits=[0, 1, 0, 0],
            symbols_sent=1,
            symbol_errors=1,
            detection_counts={"photon": 1, "dark_count": 0, "afterpulse": 0, "missed": 0},
            elapsed_time=32e-9,
        )
        assert result.bit_errors == 1
        assert result.bit_error_rate == pytest.approx(0.25)
        assert result.symbol_error_rate == pytest.approx(1.0)
        assert "BER" in result.summary()

    def test_empty_statistics_raise(self):
        result = TransmissionResult(
            transmitted_bits=[], received_bits=[], symbols_sent=0, symbol_errors=0,
            detection_counts={}, elapsed_time=0.0,
        )
        with pytest.raises(ValueError):
            _ = result.bit_error_rate
        with pytest.raises(ValueError):
            _ = result.symbol_error_rate
        with pytest.raises(ValueError):
            _ = result.throughput
