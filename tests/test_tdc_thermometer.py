"""Tests for repro.tdc.thermometer."""

import numpy as np
import pytest

from repro.tdc.thermometer import (
    ThermometerEncoder,
    binary_to_thermometer,
    has_bubbles,
    majority_filter,
    thermometer_to_binary,
)


class TestConversions:
    def test_roundtrip_all_values(self):
        for value in range(17):
            code = binary_to_thermometer(value, 16)
            assert thermometer_to_binary(code) == value

    def test_binary_to_thermometer_validation(self):
        with pytest.raises(ValueError):
            binary_to_thermometer(5, 4)
        with pytest.raises(ValueError):
            binary_to_thermometer(-1, 4)
        with pytest.raises(ValueError):
            binary_to_thermometer(0, 0)

    def test_thermometer_to_binary_validation(self):
        with pytest.raises(ValueError):
            thermometer_to_binary([])
        with pytest.raises(ValueError):
            thermometer_to_binary([0, 2, 1])

    def test_has_bubbles(self):
        assert not has_bubbles([1, 1, 0, 0])
        assert has_bubbles([1, 0, 1, 0])
        assert not has_bubbles([0, 0, 0])
        assert not has_bubbles([1, 1, 1])


class TestMajorityFilter:
    def test_clean_code_untouched(self):
        code = binary_to_thermometer(5, 12)
        assert np.array_equal(majority_filter(code), code)

    def test_isolated_bubble_removed(self):
        code = np.array([1, 1, 1, 0, 1, 0, 0, 0], dtype=np.int8)
        filtered = majority_filter(code)
        assert not has_bubbles(filtered)
        assert filtered.sum() in (3, 4)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            majority_filter([1, 0], window=2)
        with pytest.raises(ValueError):
            majority_filter([], window=3)

    def test_window_one_is_identity(self):
        code = [1, 0, 1, 0]
        assert list(majority_filter(code, window=1)) == code


class TestThermometerEncoder:
    def test_encodes_clean_codes(self):
        encoder = ThermometerEncoder(length=8)
        assert encoder.encode(binary_to_thermometer(3, 8)) == 3

    def test_bubble_correction_recovers_value(self):
        encoder = ThermometerEncoder(length=8, bubble_correction=True)
        bubbly = np.array([1, 1, 1, 0, 1, 0, 0, 0], dtype=np.int8)  # bubble at index 4
        assert encoder.encode(bubbly) in (3, 4)

    def test_without_correction_counts_ones(self):
        encoder = ThermometerEncoder(length=8, bubble_correction=False)
        bubbly = [1, 0, 1, 0, 0, 0, 0, 0]
        assert encoder.encode(bubbly) == 2

    def test_wrong_length_rejected(self):
        encoder = ThermometerEncoder(length=8)
        with pytest.raises(ValueError):
            encoder.encode([1, 0])

    def test_output_bits(self):
        assert ThermometerEncoder(length=96).output_bits() == 7
        assert ThermometerEncoder(length=63).output_bits() == 6
