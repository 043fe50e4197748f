"""Tests for repro.modulation.symbols and ppm."""

import numpy as np
import pytest

from repro.analysis.units import NS, PS
from repro.modulation.ppm import PpmCodec
from repro.modulation.symbols import SlotGrid, bit_matrix_to_ints, bits_to_int, int_to_bits


class TestBitHelpers:
    def test_roundtrip(self):
        for value in range(64):
            assert bits_to_int(int_to_bits(value, 6)) == value

    def test_big_endian_order(self):
        assert int_to_bits(1, 4) == [0, 0, 0, 1]
        assert bits_to_int([1, 0, 0, 0]) == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            int_to_bits(16, 4)
        with pytest.raises(ValueError):
            int_to_bits(-1, 4)
        with pytest.raises(ValueError):
            int_to_bits(0, 0)
        with pytest.raises(ValueError):
            bits_to_int([])
        with pytest.raises(ValueError):
            bits_to_int([0, 2])

    @pytest.mark.parametrize("matrix", [[[2, 0]], [[-1, 0]]])
    def test_bit_matrix_rejects_non_bits(self, matrix):
        with pytest.raises(ValueError):
            bit_matrix_to_ints(np.array(matrix))


class TestSlotGrid:
    def test_paper_parameterisation(self):
        """K bits -> 2^K slots; R = data window + guard."""
        grid = SlotGrid(bits_per_symbol=4, slot_duration=500 * PS, guard_time=24 * NS)
        assert grid.slot_count == 16
        assert grid.data_window == pytest.approx(8 * NS)
        assert grid.symbol_duration == pytest.approx(32 * NS)
        assert grid.raw_bit_rate == pytest.approx(4 / 32e-9)

    def test_slots_of_times(self):
        grid = SlotGrid(bits_per_symbol=2, slot_duration=1 * NS, guard_time=2 * NS)
        # The guard interval maps to the last slot.
        assert grid.slots_of_times(np.array([0.0, 3.5 * NS, 5 * NS])).tolist() == [0, 3, 3]
        with pytest.raises(ValueError):
            grid.slots_of_times(np.array([6 * NS]))
        with pytest.raises(ValueError):
            grid.slots_of_times(np.array([-1.0]))

    def test_with_guard(self):
        grid = SlotGrid(bits_per_symbol=2, slot_duration=1 * NS)
        assert grid.with_guard(5 * NS).guard_time == pytest.approx(5 * NS)

    def test_validation(self):
        with pytest.raises(ValueError):
            SlotGrid(bits_per_symbol=0, slot_duration=1 * NS)
        with pytest.raises(ValueError):
            SlotGrid(bits_per_symbol=2, slot_duration=0.0)
        with pytest.raises(ValueError):
            SlotGrid(bits_per_symbol=2, slot_duration=1 * NS, guard_time=-1.0)


class TestPpmCodec:
    @pytest.fixture
    def codec(self):
        return PpmCodec(SlotGrid(bits_per_symbol=3, slot_duration=1 * NS, guard_time=4 * NS))

    def test_pulse_times_are_slot_centres(self, codec):
        assert codec.pulse_times_for_values(np.array([5]))[0] == pytest.approx(5.5 * NS)
        with pytest.raises(ValueError):
            codec.pulse_times_for_values(np.array([8]))

    def test_encode_decode_roundtrip_all_values(self, codec):
        values = np.arange(8)
        assert codec.decode_times(codec.pulse_times_for_values(values)).tolist() == values.tolist()

    def test_encode_bits_groups_of_k(self, codec):
        assert codec.encode_bits_to_values([0, 0, 1, 1, 1, 1]).tolist() == [1, 7]
        with pytest.raises(ValueError):
            codec.encode_bits_to_values([0, 1])  # not a multiple of K=3
        with pytest.raises(ValueError):
            codec.encode_bits_to_values([])

    def test_bit_mapping_distance_metrics(self, codec):
        matrix = codec.hamming_distance_matrix()
        assert matrix.shape == (8, 8)
        assert matrix[0, 0] == 0
        assert matrix[0, 7] == 3
        assert codec.expected_bit_errors_per_symbol_error() > 1.0
        assert codec.adjacent_slot_bit_errors() <= codec.expected_bit_errors_per_symbol_error() + 1.0
