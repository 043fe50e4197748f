"""Tests for repro.core.multilink — the multichannel SPAD-array engine.

The contract mirrors the one ``tests/test_core_fastlink.py`` locks for the
single-channel batch engine: with crosstalk disabled, the per-channel error
counts must be *statistically equivalent* to C independent ``"batch"`` links
(same physics, same distributions, not draw-for-draw identical), and the whole
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
        bits_per_channel = self.BITS // CHANNELS
        assert multi_result.channel_bits.tolist() == [bits_per_channel] * CHANNELS
        reference_errors = sum(r.bit_errors for r in independent)
        # Each channel against the pooled reference, Bonferroni-split so the
        # family of C per-channel asserts keeps the single-test budget.
        for channel, errors in enumerate(multi_result.channel_bit_errors):
            assert_proportions_equal(
                int(errors), bits_per_channel,
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
        assert result.channel_bits.tolist() == [16] * 4
        assert result.channel_bit_errors.tolist() == [0] * 4


class TestDeterminism:
    def test_same_seed_identical_result(self):
        a = make_link(MODERATE, backend="multichannel", channels=CHANNELS, seed=9)
        b = make_link(MODERATE, backend="multichannel", channels=CHANNELS, seed=9)
        ra, rb = a.transmit_random(4000), b.transmit_random(4000)
        assert np.array_equal(ra.received_bits, rb.received_bits)
        assert ra.detection_counts == rb.detection_counts
        assert np.array_equal(ra.decoded_values, rb.decoded_values)
        assert np.array_equal(ra.symbol_bit_errors, rb.symbol_bit_errors)
        assert np.array_equal(ra.channel_bit_errors, rb.channel_bit_errors)

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


def assert_count_split(result, payload_bits, width, channels):
    """``channel_bits``/``channel_bit_errors`` against the flat per-symbol
    arrays: symbol ``i`` rode channel ``i % C``, and only the final symbol
    carries fewer than ``width`` payload bits."""
    symbols = -(-payload_bits // width)
    symbol_bits = [min(width, payload_bits - i * width) for i in range(symbols)]
    assert result.channel_bits.tolist() == [
        sum(symbol_bits[c::channels]) for c in range(channels)
    ]
    assert result.channel_bit_errors.tolist() == [
        int(result.symbol_bit_errors[c::channels].sum()) for c in range(channels)
    ]


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
    def test_result_round_trips(self, importance, read_first):
        # "read" unpacks received_bits before pickling, "unread" after.
        link = make_link(
            MODERATE, backend="multichannel", channels=3, seed=5, importance=importance
        )
        result = link.transmit_random(99)
        assert (result.symbol_weights is None) == (importance is None)
        if read_first:
            assert len(result.received_bits) == 99
        restored = pickle.loads(pickle.dumps(result))
        assert ("received_bits" in vars(restored)) == read_first
        assert_same_result(result, restored)
        assert_count_split(restored, 99, 4, 3)


class TestMultichannelContract:
    def test_payload_striping_and_padding(self):
        link = make_link(BRIGHT, backend="multichannel", channels=4, seed=2)
        payload = [1, 0, 1, 1, 0]  # 5 bits -> 2 symbols -> 1 window of 4 (2 padded)
        result = link.transmit_bits(payload)
        assert isinstance(result, MultichannelResult)
        assert np.array_equal(result.transmitted_bits, payload)
        assert len(result.received_bits) == len(payload)
        assert result.symbols_sent == 2
        # Channel 1 carried the final partial symbol: only its one payload
        # bit counts.  Channels 2 and 3 carried only grid padding.
        assert result.channel_bits.tolist() == [4, 1, 0, 0]
        assert result.channel_bit_errors.tolist() == [0, 0, 0, 0]

    def test_throughput_scales_with_channels(self):
        single = make_link(MODERATE, backend="multichannel", channels=1, seed=4)
        wide = make_link(MODERATE, backend="multichannel", channels=8, seed=4)
        bits = 8 * 64 * 4
        assert wide.transmit_random(bits).throughput == pytest.approx(
            8 * single.transmit_random(bits).throughput, rel=1e-9
        )
        assert wide.transmit_random(bits).throughput == pytest.approx(
            8 * MODERATE.raw_bit_rate, rel=1e-6
        )

    def test_elapsed_time_is_parallel_wall_clock(self):
        link = make_link(MODERATE, backend="multichannel", channels=8, seed=5)
        result = link.transmit_random(8 * 16 * 4)  # 16 windows of 8 symbols
        assert result.elapsed_time == pytest.approx(16 * MODERATE.symbol_duration)

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
    def test_count_split_matches_the_flat_symbols(self, payload_bits, seed):
        # A payload that is not a whole number of symbols ends in a zero-padded
        # partial symbol; the count split must leave its pad bits out.
        noisy = LinkConfig(ppm_bits=4, mean_detected_photons=1.0)
        result = make_link(noisy, backend="multichannel", channels=3, seed=seed).transmit_random(
            payload_bits, payload_seed=seed
        )
        assert_count_split(result, payload_bits, 4, 3)


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
        per_channel = result.channel_bit_errors / result.channel_bits
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
