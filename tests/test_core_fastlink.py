"""Tests for repro.core.fastlink — the vectorised batch transmission engine.

The batch path must be statistically equivalent to the scalar path (same
physics, same distributions) and individually deterministic per seed; it is
*not* required to be draw-for-draw identical to the scalar path.
"""

import numpy as np
import pytest

from repro.analysis.units import NS, PS
from repro.core.ber import monte_carlo_bit_error_rate
from repro.core.config import LinkConfig
from repro.core.fastlink import FastOpticalLink, transmit_segments
from repro.core.link import OpticalLink, TransmissionResult
from repro.core.throughput import TdcDesign
from repro.modulation.symbols import ints_to_bit_matrix
from repro.simulation.randomness import RandomSource
from repro.spad.afterpulsing import AfterpulsingModel
from repro.spad.device import (
    ORIGIN_BY_CODE,
    ImportanceSettings,
    SpadDevice,
    detect_in_segments,
)
from repro.spad.quenching import QuenchingCircuit


MODERATE = LinkConfig(ppm_bits=4, mean_detected_photons=5.0)
BRIGHT = LinkConfig(ppm_bits=4, mean_detected_photons=200.0)


class TestStatisticalEquivalence:
    """Scalar vs. batch on identical configs, within Monte-Carlo tolerance."""

    BITS = 24_000

    @pytest.fixture(scope="class")
    def pair(self):
        scalar = OpticalLink(MODERATE, seed=42).transmit_random(self.BITS)
        batch = FastOpticalLink(MODERATE, seed=42).transmit_random(self.BITS)
        return scalar, batch

    def test_ber_within_monte_carlo_tolerance(self, pair):
        scalar, batch = pair
        # Binomial std of each estimate, doubled for symbol-correlated bit
        # errors, 5 sigma on the combined difference.
        p = max(scalar.bit_error_rate, 1.0 / self.BITS)
        tolerance = 5.0 * 2.0 * np.sqrt(2.0 * p * (1 - p) / self.BITS)
        assert abs(scalar.bit_error_rate - batch.bit_error_rate) < tolerance

    def test_ser_within_monte_carlo_tolerance(self, pair):
        scalar, batch = pair
        symbols = scalar.symbols_sent
        assert batch.symbols_sent == symbols
        p = max(scalar.symbol_error_rate, 1.0 / symbols)
        tolerance = 5.0 * np.sqrt(2.0 * p * (1 - p) / symbols)
        assert abs(scalar.symbol_error_rate - batch.symbol_error_rate) < tolerance

    def test_detection_origin_distributions_match(self, pair):
        scalar, batch = pair
        symbols = scalar.symbols_sent
        assert set(scalar.detection_counts) == set(batch.detection_counts)
        for origin in scalar.detection_counts:
            p = max(scalar.detection_counts[origin] / symbols, 1.0 / symbols)
            tolerance = 5.0 * np.sqrt(2.0 * p * (1 - p) / symbols)
            delta = abs(scalar.detection_counts[origin] - batch.detection_counts[origin])
            assert delta / symbols < tolerance, origin

    def test_error_free_regime_agrees_exactly(self):
        # Wide slots push the jitter mis-slot probability to ~1e-5/symbol, so
        # both paths must round-trip the payload exactly.
        config = LinkConfig(ppm_bits=4, slot_duration=4 * NS, mean_detected_photons=200.0)
        payload = [1, 0, 1, 1, 0, 0, 1, 0] * 4
        scalar = OpticalLink(config, seed=1).transmit_bits(payload)
        batch = FastOpticalLink(config, seed=1).transmit_bits(payload)
        assert scalar.bit_errors == 0
        assert batch.bit_errors == 0
        assert np.array_equal(batch.received_bits, payload)

    def test_ber_estimator_backend_paths_agree(self):
        # backend= is the only engine selector (the legacy fast= boolean was
        # removed with PR 3); both spellings of the estimator must agree.
        fast = monte_carlo_bit_error_rate(MODERATE, bits=8000, seed=3, backend="batch")
        scalar = monte_carlo_bit_error_rate(MODERATE, bits=8000, seed=3, backend="scalar")
        assert fast.ber == pytest.approx(scalar.ber, abs=5.0 * (fast.confidence_95 + scalar.confidence_95))


class TestDeterminism:
    def test_same_seed_identical_result(self):
        a = FastOpticalLink(MODERATE, seed=9).transmit_random(4000)
        b = FastOpticalLink(MODERATE, seed=9).transmit_random(4000)
        assert np.array_equal(a.received_bits, b.received_bits)
        assert np.array_equal(a.transmitted_bits, b.transmitted_bits)
        assert a.symbol_errors == b.symbol_errors
        assert a.detection_counts == b.detection_counts
        assert a.elapsed_time == b.elapsed_time

    def test_different_seed_differs(self):
        a = FastOpticalLink(MODERATE, seed=9).transmit_random(4000)
        b = FastOpticalLink(MODERATE, seed=10).transmit_random(4000)
        assert not np.array_equal(a.received_bits, b.received_bits)


class TestBatchContract:
    def test_payload_preserved_and_padded(self):
        link = FastOpticalLink(BRIGHT, seed=2)
        payload = [1, 0, 1, 1, 0]  # 5 bits -> padded to 8
        result = link.transmit_bits(payload)
        assert isinstance(result, TransmissionResult)
        assert np.array_equal(result.transmitted_bits, payload)
        assert len(result.received_bits) == len(payload)
        assert result.symbols_sent == 2

    def test_zero_photons_loses_everything(self):
        link = FastOpticalLink(LinkConfig(ppm_bits=4, mean_detected_photons=0.0), seed=3)
        result = link.transmit_bits([1] * 16)
        assert result.detection_counts["missed"] == result.symbols_sent
        assert result.bit_errors > 0

    def test_throughput_matches_configuration(self):
        link = FastOpticalLink(MODERATE, seed=4)
        result = link.transmit_random(400)
        assert result.throughput == pytest.approx(MODERATE.raw_bit_rate, rel=1e-6)

    def test_validation(self):
        link = FastOpticalLink(seed=0)
        with pytest.raises(ValueError):
            link.transmit_bits([])
        with pytest.raises(ValueError):
            link.transmit_bits([2])
        with pytest.raises(ValueError):
            # Fractional values must not be silently truncated to valid bits.
            link.transmit_bits([0.5])
        with pytest.raises(ValueError):
            link.transmit_random(0)

    def test_bit_fields_are_uint8_arrays(self):
        payload = [1, 0, 1, 1, 0]
        result = FastOpticalLink(BRIGHT, seed=5).transmit_bits(payload)
        for bits in (result.transmitted_bits, result.received_bits):
            assert isinstance(bits, np.ndarray)
            assert bits.dtype == np.uint8
            assert bits.shape == (len(payload),)
            assert set(np.unique(bits).tolist()) <= {0, 1}


class TestSpadBatchWindows:
    def test_origin_codes_cover_enum(self):
        assert {origin.value for origin in ORIGIN_BY_CODE.values()} == {
            "photon",
            "dark_count",
            "afterpulse",
            "crosstalk",
        }

    def test_empty_batch(self):
        link = FastOpticalLink(MODERATE, seed=6)
        times, origins = link.spad.detect_in_windows(32 * NS, np.empty(0))
        assert times.size == 0 and origins.size == 0

    def test_nan_offsets_mean_no_pulse(self):
        link = FastOpticalLink(LinkConfig(ppm_bits=4, mean_detected_photons=500.0), seed=6)
        offsets = np.full(64, np.nan)
        times, origins = link.spad.detect_in_windows(32 * NS, offsets, mean_photons=500.0)
        # Without pulses only (rare) dark counts can fire.
        assert not np.any(origins == 0)

    def test_detection_times_lie_inside_their_windows(self):
        link = FastOpticalLink(MODERATE, seed=7)
        duration = MODERATE.symbol_duration
        offsets = np.full(256, 1.0 * NS)
        times, origins = link.spad.detect_in_windows(duration, offsets, mean_photons=50.0)
        detected = origins >= 0
        relative = times[detected] - np.flatnonzero(detected) * duration
        assert np.all(relative >= 0)
        assert np.all(relative < duration)

    def test_offset_validation(self):
        link = FastOpticalLink(MODERATE, seed=8)
        with pytest.raises(ValueError):
            link.spad.detect_in_windows(32 * NS, np.array([-1.0 * NS]))
        with pytest.raises(ValueError):
            link.spad.detect_in_windows(32 * NS, np.array([40 * NS]))
        with pytest.raises(ValueError):
            link.spad.detect_in_windows(0.0, np.array([1.0 * NS]))

    def test_batch_cannot_start_before_last_avalanche(self):
        # Mirrors the scalar ``rearm`` guard: device state cannot go backwards.
        link = FastOpticalLink(BRIGHT, seed=9)
        link.transmit_bits([1, 0] * 20)
        assert link.spad._last_fire_time is not None
        with pytest.raises(ValueError):
            link.spad.detect_in_windows(32 * NS, np.array([1.0 * NS]))
        # Chaining forward from the current state is fine.
        times, origins = link.spad.detect_in_windows(
            32 * NS, np.array([1.0 * NS]), mean_photons=200.0, start_time=1e-6
        )
        assert times.size == 1


def _state(device):
    return device._last_fire_time, device._pending_afterpulse


class TestSegmentedPass:
    """One pass over G links or devices equals G calls of their own, bit for bit."""

    BUDGETS = (2.0, 6.0, 40.0, 0.5, 300.0)
    SYMBOLS = (1, 37, 12, 64, 3)

    def links(self):
        # Link 2's TDC spans only half the data slots, so its decode differs
        # from the others': a pass that decoded a segment on another link's
        # TDC would show.
        short_range = TdcDesign(fine_elements=64, coarse_bits=0, element_delay=62.5 * PS)
        return [
            FastOpticalLink(
                LinkConfig(
                    ppm_bits=4,
                    mean_detected_photons=photons,
                    tdc_design=short_range if index == 2 else None,
                ),
                seed=index,
            )
            for index, photons in enumerate(self.BUDGETS)
        ]

    @pytest.mark.parametrize("seed", range(3))
    def test_transmit_segments_equals_one_transmit_per_link(self, seed):
        rng = np.random.default_rng(seed)
        payloads = [rng.integers(0, 2, 4 * count).astype(np.uint8) for count in self.SYMBOLS]
        links, twins = self.links(), self.links()
        for link, twin in zip(links, twins):  # state from an earlier call is reset
            link.transmit_bits([1, 0, 1, 1])
            twin.transmit_bits([1, 0, 1, 1])
        starts = np.cumsum((0,) + self.SYMBOLS[:-1])
        sent = transmit_segments(links, np.concatenate(payloads), starts)
        expected = [twin.transmit_bits(bits) for twin, bits in zip(twins, payloads)]
        assert np.array_equal(
            sent.decoded, np.concatenate([result.decoded_values for result in expected])
        )
        # Hence every received bit of every link.
        assert np.array_equal(
            ints_to_bit_matrix(sent.decoded, 4).ravel(),
            np.concatenate([result.received_bits for result in expected]),
        )
        bounds = np.append(starts, sum(self.SYMBOLS))
        for link, twin, result, lo, hi in zip(links, twins, expected, bounds, bounds[1:]):
            assert np.count_nonzero(sent.decoded[lo:hi] != sent.values[lo:hi]) == (
                result.symbol_errors
            )
            assert _state(link.spad) == _state(twin.spad)

    @pytest.mark.parametrize("seed", range(6))
    def test_detect_in_segments_leaves_every_device_where_its_own_call_would(self, seed):
        # Frequent, slow afterpulses, so segments end with a release pending,
        # consumed, or set in their last window.  The first device carries
        # a fire in from an earlier batch, on odd seeds with a release
        # pending past its dim two-window segment.
        def devices():
            return [
                SpadDevice(
                    afterpulsing=AfterpulsingModel(probability=0.6, time_constant=150 * NS),
                    random_source=RandomSource(seed * 10 + index),
                )
                for index in range(5)
            ]

        duration = 40 * NS
        grouped, separate = devices(), devices()
        for device in (grouped[0], separate[0]):
            device.detect_in_windows(duration, np.full(3, 5 * NS), mean_photons=30.0)
            if seed % 2:
                device._pending_afterpulse = 8 * duration
        rng = np.random.default_rng(seed)
        counts = [2, 1, 9, 2, 6]
        offsets = rng.uniform(0.0, duration, sum(counts))
        offsets[rng.random(offsets.size) < 0.3] = np.nan
        photons = [0.05, 0.2, 5.0, 80.0, 1.0]
        start = 3 * duration
        starts = np.cumsum([0] + counts[:-1])
        times, origins = detect_in_segments(
            grouped, duration, offsets, starts, photons, start_time=start
        )
        bounds = np.append(starts, offsets.size)
        for number, (device, lo, hi) in enumerate(zip(separate, bounds, bounds[1:])):
            own_times, own_origins = device.detect_in_windows(
                duration, offsets[lo:hi], photons[number], start_time=start
            )
            assert np.array_equal(times[lo:hi], own_times, equal_nan=True)
            assert np.array_equal(origins[lo:hi], own_origins)
            assert _state(grouped[number]) == _state(device)

    def test_rejects_what_one_pass_cannot_share(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        link = FastOpticalLink(MODERATE, seed=1)
        wider = FastOpticalLink(LinkConfig(ppm_bits=4, slot_duration=2 * NS), seed=2)
        with pytest.raises(ValueError, match="slot grid"):
            transmit_segments([link, wider], bits, [0, 1])
        rare = FastOpticalLink(MODERATE, seed=3, importance=ImportanceSettings())
        with pytest.raises(ValueError, match="naively"):
            transmit_segments([link, rare], bits, [0, 1])
        with pytest.raises(ValueError, match="segment"):
            transmit_segments([link, FastOpticalLink(MODERATE, seed=4)], bits, [0, 2])

        offsets = np.full(4, 1 * NS)
        fresh = SpadDevice(random_source=RandomSource(1))
        slower = SpadDevice(
            quenching=QuenchingCircuit(dead_time=64 * NS), random_source=RandomSource(2)
        )
        with pytest.raises(ValueError, match="quenching"):
            detect_in_segments([fresh, slower], 40 * NS, offsets, [0, 2], [5.0, 5.0])
        fired = SpadDevice(random_source=RandomSource(3))
        fired.detect_in_windows(40 * NS, offsets, mean_photons=500.0)
        with pytest.raises(ValueError, match="carry detector state"):
            detect_in_segments([fresh, fired], 40 * NS, offsets, [0, 2], [5.0, 5.0])
        with pytest.raises(ValueError, match="one photon budget per device"):
            detect_in_segments([fresh], 40 * NS, offsets, [0], [5.0, 5.0])
