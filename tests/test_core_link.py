"""Tests for repro.core.link — the end-to-end PPM link."""

import numpy as np
import pytest

from repro.analysis.units import NM, NS, PS
from repro.core.config import LinkConfig
from repro.core.link import OpticalLink, TransmissionResult
from repro.photonics.channel import OpticalChannel
from repro.photonics.stack import DieStack


class TestTransmission:
    def test_error_free_at_high_photon_count(self):
        link = OpticalLink(LinkConfig(ppm_bits=4, mean_detected_photons=200.0), seed=1)
        result = link.transmit_bits([1, 0, 1, 1, 0, 0, 1, 0] * 4)
        assert result.bit_errors == 0
        assert result.symbol_errors == 0
        assert result.detection_counts["photon"] == result.symbols_sent

    def test_payload_preserved_and_padded(self):
        link = OpticalLink(LinkConfig(ppm_bits=4, mean_detected_photons=200.0), seed=2)
        payload = [1, 0, 1, 1, 0]  # 5 bits -> padded to 8
        result = link.transmit_bits(payload)
        assert np.array_equal(result.transmitted_bits, payload)
        assert len(result.received_bits) == len(payload)
        assert result.symbols_sent == 2

    def test_zero_photons_loses_everything(self):
        link = OpticalLink(LinkConfig(ppm_bits=4, mean_detected_photons=0.0), seed=3)
        result = link.transmit_bits([1] * 16)
        assert result.detection_counts["missed"] == result.symbols_sent
        assert result.bit_errors > 0

    def test_throughput_matches_configuration(self):
        config = LinkConfig(ppm_bits=4)
        link = OpticalLink(config, seed=4)
        result = link.transmit_random(400)
        assert result.throughput == pytest.approx(config.raw_bit_rate, rel=1e-6)
        assert result.elapsed_time == pytest.approx(result.symbols_sent * config.symbol_duration)

    def test_ber_improves_with_photon_count(self):
        dim = OpticalLink(LinkConfig(ppm_bits=4, mean_detected_photons=2.0), seed=5)
        bright = OpticalLink(LinkConfig(ppm_bits=4, mean_detected_photons=100.0), seed=5)
        dim_result = dim.transmit_random(2000)
        bright_result = bright.transmit_random(2000)
        assert bright_result.bit_error_rate < dim_result.bit_error_rate

    def test_wider_slots_reduce_jitter_errors(self):
        narrow = OpticalLink(LinkConfig(ppm_bits=4, slot_duration=200 * PS), seed=6)
        wide = OpticalLink(LinkConfig(ppm_bits=4, slot_duration=2 * NS), seed=6)
        assert wide.transmit_random(3000).bit_error_rate <= narrow.transmit_random(3000).bit_error_rate

    def test_validation(self):
        link = OpticalLink(seed=0)
        with pytest.raises(ValueError):
            link.transmit_bits([])
        with pytest.raises(ValueError):
            link.transmit_bits([2])
        with pytest.raises(ValueError):
            link.transmit_random(0)

    def test_reproducible_for_fixed_seed(self):
        a = OpticalLink(LinkConfig(ppm_bits=4, mean_detected_photons=3.0), seed=9).transmit_random(1000)
        b = OpticalLink(LinkConfig(ppm_bits=4, mean_detected_photons=3.0), seed=9).transmit_random(1000)
        assert np.array_equal(a.received_bits, b.received_bits)


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
        shallow = OpticalLink(
            config, channel=OpticalChannel(stack=shallow_stack, source_layer=0, destination_layer=1), seed=2
        )
        deep = OpticalLink(
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
