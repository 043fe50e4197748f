"""Tests for repro.tdc.converter."""

import numpy as np
import pytest

from repro.analysis.units import MHZ, NS, PS
from repro.simulation.randomness import RandomSource
from repro.tdc.coarse_counter import CoarseCounter
from repro.tdc.converter import TimeToDigitalConverter
from repro.tdc.delay_element import DelayElementModel
from repro.tdc.delay_line import TappedDelayLine
from repro.tdc.metastability import MetastabilityModel


def make_ideal_tdc(coarse_bits: int = 2, elements: int = 50, delay: float = 100 * PS):
    """Ideal (no mismatch) TDC whose chain exactly covers one clock period."""
    line = TappedDelayLine(
        DelayElementModel(nominal_delay=delay, mismatch_sigma=0.0), length=elements
    )
    coarse = CoarseCounter(clock_frequency=1.0 / (elements * delay), bits=coarse_bits)
    return TimeToDigitalConverter(line, coarse)


class TestConstruction:
    def test_chain_must_cover_clock_period(self):
        line = TappedDelayLine(DelayElementModel(nominal_delay=100 * PS, mismatch_sigma=0.0), length=10)
        with pytest.raises(ValueError):
            TimeToDigitalConverter(line, CoarseCounter(clock_frequency=100 * MHZ, bits=0))

    def test_static_properties(self):
        tdc = make_ideal_tdc(coarse_bits=3, elements=64, delay=50 * PS)
        assert tdc.fine_elements == 64
        assert tdc.coarse_bits == 3
        assert tdc.lsb == pytest.approx(50 * PS)
        assert tdc.usable_range == pytest.approx(8 * 64 * 50 * PS)
        assert tdc.measurement_window == pytest.approx(9 * 64 * 50 * PS)
        assert tdc.bits_per_conversion == pytest.approx(6 + 3)
        assert tdc.code_count() == 8 * 64

    def test_quantization_rms(self):
        tdc = make_ideal_tdc(delay=120 * PS)
        assert tdc.quantization_rms() == pytest.approx(120 * PS / np.sqrt(12))


class TestConversion:
    def test_measured_time_within_one_lsb(self):
        tdc = make_ideal_tdc(coarse_bits=2)
        for arrival in np.linspace(10 * PS, tdc.usable_range * 0.99, 37):
            conversion = tdc.convert(float(arrival))
            assert abs(conversion.error) <= tdc.lsb
            assert not conversion.saturated

    def test_codes_monotonic_in_time(self):
        tdc = make_ideal_tdc(coarse_bits=2)
        times = np.linspace(1 * PS, tdc.usable_range * 0.999, 200)
        codes = tdc.convert_many(times)
        assert np.all(np.diff(codes) >= 0)

    def test_convert_many_matches_scalar_convert(self):
        tdc = make_ideal_tdc(coarse_bits=1)
        times = np.linspace(1 * PS, tdc.usable_range * 0.99, 25)
        vector = tdc.convert_many(times)
        scalar = np.array([tdc.convert(float(t)).code for t in times])
        assert np.array_equal(vector, scalar)

    def test_saturation_beyond_range(self):
        tdc = make_ideal_tdc(coarse_bits=0)
        conversion = tdc.convert(tdc.usable_range * 2)
        assert conversion.saturated
        assert conversion.code == tdc.code_count() - 1

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            make_ideal_tdc().convert(-1e-9)
        with pytest.raises(ValueError):
            make_ideal_tdc().convert_many(np.array([-1e-9]))

    def test_coarse_and_fine_fields_consistent(self):
        tdc = make_ideal_tdc(coarse_bits=2, elements=10, delay=100 * PS)
        conversion = tdc.convert(1.55e-9)  # period is 1 ns -> coarse 1, residual 0.45 ns
        assert conversion.coarse_code == 1
        assert conversion.fine_code == 4
        assert conversion.code == 1 * 10 + (10 - 1 - 4)

    def test_mismatched_chain_still_monotonic(self):
        line = TappedDelayLine(
            DelayElementModel(nominal_delay=100 * PS, mismatch_sigma=0.1),
            length=55,
            random_source=RandomSource(3),
        )
        coarse = CoarseCounter(clock_frequency=1.0 / (50 * 100 * PS), bits=2)
        tdc = TimeToDigitalConverter(line, coarse)
        times = np.linspace(1 * PS, tdc.usable_range * 0.999, 300)
        codes = tdc.convert_many(times)
        assert np.all(np.diff(codes) >= 0)

    def test_metastability_path_still_bounded(self):
        line = TappedDelayLine(
            DelayElementModel(nominal_delay=100 * PS, mismatch_sigma=0.0), length=50
        )
        coarse = CoarseCounter(clock_frequency=1.0 / (50 * 100 * PS), bits=0)
        tdc = TimeToDigitalConverter(
            line,
            coarse,
            metastability=MetastabilityModel(aperture=20 * PS, flip_probability=1.0),
            random_source=RandomSource(1),
        )
        for arrival in np.linspace(10 * PS, tdc.usable_range * 0.99, 20):
            conversion = tdc.convert(float(arrival))
            # Bubble correction keeps the error within a couple of LSB.
            assert abs(conversion.error) <= 3 * tdc.lsb


class TestBatchConversion:
    def test_convert_array_matches_scalar_convert_field_by_field(self):
        tdc = make_ideal_tdc(coarse_bits=2)
        times = np.linspace(1 * PS, tdc.usable_range * 1.01, 60)
        batch = tdc.convert_array(times)
        for index, time in enumerate(times):
            scalar = tdc.convert(float(time))
            assert batch.coarse_codes[index] == scalar.coarse_code
            assert batch.fine_codes[index] == scalar.fine_code
            assert batch.codes[index] == scalar.code
            assert batch.measured_times[index] == pytest.approx(scalar.measured_time)
            assert batch.saturated[index] == scalar.saturated
        assert np.array_equal(batch.true_times, times)
        assert len(batch) == 60

    def test_convert_array_mismatched_chain_matches_scalar(self):
        line = TappedDelayLine(
            DelayElementModel(nominal_delay=100 * PS, mismatch_sigma=0.1),
            length=55,
            random_source=RandomSource(3),
        )
        coarse = CoarseCounter(clock_frequency=1.0 / (50 * 100 * PS), bits=2)
        tdc = TimeToDigitalConverter(line, coarse)
        times = np.linspace(1 * PS, tdc.usable_range * 0.999, 120)
        batch = tdc.convert_array(times)
        scalar_codes = np.array([tdc.convert(float(t)).code for t in times])
        scalar_measured = np.array([tdc.convert(float(t)).measured_time for t in times])
        assert np.array_equal(batch.codes, scalar_codes)
        assert np.allclose(batch.measured_times, scalar_measured)

    @staticmethod
    def make_metastable_tdc(bubble_correction: bool = True):
        line = TappedDelayLine(
            DelayElementModel(nominal_delay=100 * PS, mismatch_sigma=0.05),
            length=55,
            random_source=RandomSource(3),
        )
        coarse = CoarseCounter(clock_frequency=1.0 / (50 * 100 * PS), bits=2)
        return TimeToDigitalConverter(
            line,
            coarse,
            metastability=MetastabilityModel(aperture=20 * PS, flip_probability=0.8),
            bubble_correction=bubble_correction,
            random_source=RandomSource(1),
        )

    def test_convert_array_metastability_bounded(self):
        tdc = self.make_metastable_tdc()
        times = np.linspace(10 * PS, tdc.usable_range * 0.99, 10)
        batch = tdc.convert_array(times)
        assert len(batch) == 10
        assert np.all(np.abs(batch.errors) <= 3 * tdc.lsb)

    @pytest.mark.parametrize("bubble_correction", [True, False])
    def test_convert_array_metastability_matches_scalar_draw_for_draw(
        self, bubble_correction
    ):
        # With a metastability model attached, converting an array must
        # reproduce per-sample convert() calls *exactly*: the same random
        # stream, drawn sample by sample in C order, whatever the input's
        # shape, and the same saturation at and past the usable range.
        full = self.make_metastable_tdc().usable_range
        ramp = np.linspace(10 * PS, full * 0.99, 400)
        edges = np.array([full * 0.5, np.nextafter(full, 0.0), full, full * 1.5, 10 * full])
        for times in (ramp, ramp.reshape(20, 20), edges):
            scalar_tdc = self.make_metastable_tdc(bubble_correction)
            batch_tdc = self.make_metastable_tdc(bubble_correction)
            scalar = [scalar_tdc.convert(float(t)) for t in times.ravel()]
            batch = batch_tdc.convert_array(times)
            for name, field in (
                ("fine_codes", "fine_code"),
                ("coarse_codes", "coarse_code"),
                ("codes", "code"),
                ("saturated", "saturated"),
            ):
                column = getattr(batch, name)
                assert column.shape == times.shape
                assert np.array_equal(column.ravel(), [getattr(c, field) for c in scalar])
            assert batch.measured_times.shape == times.shape
            assert np.allclose(batch.measured_times.ravel(), [c.measured_time for c in scalar])
        assert batch.saturated.tolist() == [False, False, True, True, True]

    def test_convert_array_metastability_deterministic_stream(self):
        # Two identically-built TDCs consume identical random streams.
        a = self.make_metastable_tdc().convert_array(np.linspace(0, 4e-9, 64))
        b = self.make_metastable_tdc().convert_array(np.linspace(0, 4e-9, 64))
        assert np.array_equal(a.codes, b.codes)

    def test_convert_array_rejects_negative_times(self):
        with pytest.raises(ValueError):
            make_ideal_tdc().convert_array(np.array([-1e-9]))
