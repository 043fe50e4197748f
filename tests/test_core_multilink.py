"""Tests for repro.core.multilink — the multichannel SPAD-array engine.

The contract mirrors the one ``tests/test_core_fastlink.py`` locks for the
single-channel batch engine: with crosstalk disabled, the per-channel results
must be *statistically equivalent* to C independent ``"batch"`` links (same
physics, same distributions, not draw-for-draw identical), and the whole
transmission must be deterministic per seed.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from _stats import assert_proportions_equal
from repro.core.backend import make_link
from repro.core.config import LinkConfig
from repro.core.multilink import MultichannelOpticalLink, MultichannelResult
from repro.core.link import TransmissionResult
from repro.photonics.crosstalk import CrosstalkModel
from repro.spad.device import ImportanceSettings
from repro.scenarios import ExperimentRunner, get_scenario

MODERATE = LinkConfig(ppm_bits=4, mean_detected_photons=5.0)
BRIGHT = LinkConfig(ppm_bits=4, mean_detected_photons=200.0)
CHANNELS = 8


class TestStatisticalEquivalence:
    """Multichannel (no crosstalk) vs. C independent batch links."""

    BITS = 24_000  # split across 8 channels: 750 windows of 8 symbols

    @pytest.fixture(scope="class")
    def pair(self):
        multi = make_link(MODERATE, backend="multichannel", channels=CHANNELS, seed=42)
        multi_result = multi.transmit_random(self.BITS)
        independent = [
            make_link(MODERATE, backend="batch", seed=100 + c).transmit_random(
                self.BITS // CHANNELS
            )
            for c in range(CHANNELS)
        ]
        return multi_result, independent

    def test_aggregate_ber_within_monte_carlo_tolerance(self, pair):
        multi_result, independent = pair
        reference_errors = sum(r.bit_errors for r in independent)
        assert_proportions_equal(
            multi_result.bit_errors, self.BITS, reference_errors, self.BITS,
            sigma=5.0, label="aggregate BER",
        )

    def test_per_channel_bers_look_like_independent_links(self, pair):
        multi_result, independent = pair
        per_channel = multi_result.per_channel_bit_error_rates()
        assert per_channel.shape == (CHANNELS,)
        bits_per_channel = self.BITS // CHANNELS
        reference_errors = sum(r.bit_errors for r in independent)
        # Each channel against the pooled reference, Bonferroni-split so the
        # family of C per-channel asserts keeps the single-test budget.
        for channel, result in enumerate(multi_result.channel_results):
            assert_proportions_equal(
                result.bit_errors, bits_per_channel,
                reference_errors, self.BITS,
                sigma=5.0, comparisons=CHANNELS, label=f"channel {channel} BER",
            )

    def test_detection_origin_distributions_match(self, pair):
        multi_result, independent = pair
        symbols = multi_result.symbols_sent
        reference = {}
        for result in independent:
            for origin, count in result.detection_counts.items():
                reference[origin] = reference.get(origin, 0) + count
        assert set(multi_result.detection_counts) == set(reference)
        for origin in reference:
            assert_proportions_equal(
                multi_result.detection_counts[origin], symbols,
                reference[origin], symbols,
                sigma=5.0, comparisons=len(reference), label=str(origin),
            )

    def test_error_free_regime_agrees_exactly(self):
        config = LinkConfig(ppm_bits=4, slot_duration=4e-9, mean_detected_photons=200.0)
        payload = [1, 0, 1, 1, 0, 0, 1, 0] * 8
        result = make_link(config, backend="multichannel", channels=4, seed=1).transmit_bits(
            payload
        )
        assert result.bit_errors == 0
        assert np.array_equal(result.received_bits, payload)
        for channel_result in result.channel_results:
            assert channel_result.bit_errors == 0


class TestDeterminism:
    def test_same_seed_identical_result(self):
        a = make_link(MODERATE, backend="multichannel", channels=CHANNELS, seed=9)
        b = make_link(MODERATE, backend="multichannel", channels=CHANNELS, seed=9)
        ra, rb = a.transmit_random(4000), b.transmit_random(4000)
        assert np.array_equal(ra.received_bits, rb.received_bits)
        assert ra.detection_counts == rb.detection_counts
        assert len(ra.channel_results) == len(rb.channel_results) == CHANNELS
        for ca, cb in zip(ra.channel_results, rb.channel_results):
            assert np.array_equal(ca.received_bits, cb.received_bits)

    def test_different_seed_differs(self):
        a = make_link(MODERATE, backend="multichannel", channels=CHANNELS, seed=9)
        b = make_link(MODERATE, backend="multichannel", channels=CHANNELS, seed=10)
        assert not np.array_equal(
            a.transmit_random(4000).received_bits, b.transmit_random(4000).received_bits
        )

    def test_crosstalk_is_deterministic_too(self):
        crosstalk = CrosstalkModel(channel_pitch=20e-6)
        results = [
            make_link(
                BRIGHT, backend="multichannel", channels=CHANNELS, seed=4, crosstalk=crosstalk
            ).transmit_random(4000)
            for _ in range(2)
        ]
        assert np.array_equal(results[0].received_bits, results[1].received_bits)
        assert results[0].detection_counts == results[1].detection_counts


def assert_same_result(result, other):
    """Every public field and the unpacked bits of two results are equal."""
    names = [field.name for field in dataclasses.fields(result) if not field.name.startswith("_")]
    for name in names + ["received_bits"]:
        value, expected = getattr(other, name), getattr(result, name)
        if isinstance(expected, np.ndarray):
            assert np.array_equal(value, expected), name
        else:
            assert value == expected, name


class TestPickling:
    @pytest.mark.parametrize(
        "importance", [None, ImportanceSettings()], ids=["naive", "importance"]
    )
    @pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
    def test_result_round_trips_with_its_channel_results(self, importance, read_first):
        link = make_link(
            MODERATE, backend="multichannel", channels=3, seed=5, importance=importance
        )
        result = link.transmit_random(99)
        assert (result.symbol_weights is None) == (importance is None)
        if read_first:
            assert len(result.channel_results) == 3
        restored = pickle.loads(pickle.dumps(result))
        assert_same_result(result, restored)
        assert len(restored.channel_results) == len(result.channel_results) == 3
        for channel, restored_channel in zip(result.channel_results, restored.channel_results):
            assert_same_result(channel, restored_channel)


class TestMultichannelContract:
    def test_payload_striping_and_padding(self):
        link = make_link(BRIGHT, backend="multichannel", channels=4, seed=2)
        payload = [1, 0, 1, 1, 0]  # 5 bits -> 2 symbols -> 1 window of 4 (2 padded)
        result = link.transmit_bits(payload)
        assert isinstance(result, MultichannelResult)
        assert np.array_equal(result.transmitted_bits, payload)
        assert len(result.received_bits) == len(payload)
        assert result.symbols_sent == 2
        assert result.channels == 4
        # Channel 1 carried the final partial symbol: only its one payload
        # bit counts.  Channels 2 and 3 carried only grid padding.
        assert [len(c.transmitted_bits) for c in result.channel_results] == [4, 1, 0, 0]

    def test_channel_results_interleave_back_to_the_payload(self):
        link = make_link(BRIGHT, backend="multichannel", channels=4, seed=3)
        result = link.transmit_random(64 * 4)
        k = link.config.ppm_bits
        rebuilt = []
        symbols_per_channel = [
            len(c.transmitted_bits) // k for c in result.channel_results
        ]
        for window in range(max(symbols_per_channel)):
            for channel_result in result.channel_results:
                bits = channel_result.transmitted_bits
                if window * k < len(bits):
                    rebuilt.extend(bits[window * k : (window + 1) * k])
        assert np.array_equal(rebuilt, result.transmitted_bits)

    def test_aggregate_throughput_scales_with_channels(self):
        single = make_link(MODERATE, backend="multichannel", channels=1, seed=4)
        wide = make_link(MODERATE, backend="multichannel", channels=8, seed=4)
        bits = 8 * 64 * 4
        assert wide.transmit_random(bits).throughput == pytest.approx(
            8 * single.transmit_random(bits).throughput, rel=1e-9
        )
        assert wide.transmit_random(bits).aggregate_throughput == pytest.approx(
            8 * MODERATE.raw_bit_rate, rel=1e-6
        )

    def test_elapsed_time_is_parallel_wall_clock(self):
        link = make_link(MODERATE, backend="multichannel", channels=8, seed=5)
        result = link.transmit_random(8 * 16 * 4)  # 16 windows of 8 symbols
        assert result.elapsed_time == pytest.approx(16 * MODERATE.symbol_duration)
        for channel_result in result.channel_results:
            assert channel_result.elapsed_time == result.elapsed_time

    def test_validation(self):
        link = make_link(backend="multichannel", channels=2, seed=0)
        with pytest.raises(ValueError):
            link.transmit_bits([])
        with pytest.raises(ValueError):
            link.transmit_bits([2])
        with pytest.raises(ValueError):
            link.transmit_bits([0.5])
        with pytest.raises(ValueError):
            MultichannelOpticalLink(channels=0)

    def test_channel_count_split_matches_aggregate_with_bit_padding(self):
        # 9 bits -> 3 symbols (last one zero-padded by 3 bits) over 2 channels:
        # the count split covers payload positions only, like the aggregate.
        lossy = LinkConfig(ppm_bits=4, mean_detected_photons=0.5)
        result = make_link(lossy, backend="multichannel", channels=2, seed=70).transmit_bits(
            [1] * 9
        )
        assert int(result.channel_bits.sum()) == 9
        assert int(result.channel_bit_errors.sum()) == result.bit_errors

    @pytest.mark.parametrize("payload_bits", [5, 6, 7, 13, 29, 2047])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_channel_views_match_count_split(self, payload_bits, seed):
        # A payload that is not a whole number of symbols ends in a zero-padded
        # partial symbol; its channel's view must leave the pad bits out, the
        # same way channel_bits/channel_bit_errors do.
        noisy = LinkConfig(ppm_bits=4, mean_detected_photons=1.0)
        result = make_link(noisy, backend="multichannel", channels=3, seed=seed).transmit_random(
            payload_bits, payload_seed=seed
        )
        for channel, view in enumerate(result.channel_results):
            assert view.transmitted_bits.dtype == view.received_bits.dtype == np.uint8
            assert len(view.transmitted_bits) == result.channel_bits[channel]
            assert len(view.received_bits) == result.channel_bits[channel]
            assert view.bit_errors == result.channel_bit_errors[channel]

    def test_count_accessors_do_not_materialise_channel_results(self):
        result = make_link(MODERATE, backend="multichannel", channels=8, seed=11).transmit_random(
            1024
        )
        assert result.channels == 8
        assert result.per_channel_bit_error_rates().shape == (8,)
        assert result._channel_results_cache is None  # still lazy
        assert len(result.channel_results) == 8  # materialises on demand
        assert result._channel_results_cache is not None

    def test_channel_results_are_plain_transmission_results(self):
        result = make_link(BRIGHT, backend="multichannel", channels=2, seed=6).transmit_bits(
            [1, 0, 1, 1] * 4
        )
        for channel_result in result.channel_results:
            assert isinstance(channel_result, TransmissionResult)
            assert set(channel_result.detection_counts) == set(result.detection_counts)
        assert sum(c.symbol_errors for c in result.channel_results) == result.symbol_errors
        assert sum(c.bit_errors for c in result.channel_results) == result.bit_errors


class TestCrosstalk:
    def test_no_crosstalk_reports_no_crosstalk_detections(self):
        result = make_link(MODERATE, backend="multichannel", channels=8, seed=7).transmit_random(
            4096
        )
        assert result.detection_counts["crosstalk"] == 0

    def test_tight_pitch_causes_crosstalk_detections_and_errors(self):
        clean = make_link(BRIGHT, backend="multichannel", channels=8, seed=8).transmit_random(
            8192
        )
        coupled = make_link(
            BRIGHT,
            backend="multichannel",
            channels=8,
            seed=8,
            crosstalk=CrosstalkModel(channel_pitch=15e-6),
        ).transmit_random(8192)
        assert coupled.detection_counts["crosstalk"] > 0
        assert coupled.bit_errors > clean.bit_errors

    def test_ber_decays_monotonically_with_pitch(self):
        pitches = (15e-6, 25e-6, 60e-6)
        bers = []
        for pitch in pitches:
            result = make_link(
                BRIGHT,
                backend="multichannel",
                channels=8,
                seed=9,
                crosstalk=CrosstalkModel(channel_pitch=pitch, floor=1e-9),
            ).transmit_random(16_384)
            bers.append(result.bit_error_rate)
        assert bers[0] > bers[1] > bers[2]

    def test_edge_channels_see_fewer_aggressors(self):
        result = make_link(
            BRIGHT,
            backend="multichannel",
            channels=8,
            seed=10,
            crosstalk=CrosstalkModel(channel_pitch=15e-6),
        ).transmit_random(32_768)
        per_channel = result.per_channel_bit_error_rates()
        inner = per_channel[1:-1].mean()
        outer = (per_channel[0] + per_channel[-1]) / 2.0
        assert outer < inner


class TestScenarioIntegration:
    def test_spad_array_imager_runs_end_to_end(self):
        scenario = get_scenario("spad-array-imager")
        report = ExperimentRunner(scenario.with_budget(1024), seed=1).run()
        assert report.backend == "multichannel"
        point = report.points[0]
        config, _ = scenario.config_for_point()
        assert point.metrics["aggregate_throughput"] == pytest.approx(
            64 * 64 * config.raw_bit_rate, rel=1e-6
        )
        assert np.isfinite(point.metrics["worst_channel_ber"])
        assert point.metrics["worst_channel_ber"] >= point.metrics["ber"]

    def test_crosstalk_vs_pitch_waterfall_improves_with_pitch(self):
        report = ExperimentRunner(
            get_scenario("crosstalk-vs-pitch").with_budget(4096), seed=3
        ).run()
        xs, ys = report.metric_series("ber")
        assert list(xs) == sorted(xs)
        # Tightest pitch is crosstalk-dominated, widest is near the isolated
        # floor; demand a strong monotone end-to-end improvement.
        assert ys[0] > 10 * ys[-1]
