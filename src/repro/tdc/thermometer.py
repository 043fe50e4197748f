"""Thermometer-code handling.

The latched delay-line state is a thermometer code (a run of ones followed by
zeros).  Metastability of the sampling flip-flops can corrupt individual bits
("bubbles"); the paper's fine controller (Figure 2-B) converts the thermometer
code to binary "so as to avoid metastability".  We model that with a bubble-
tolerant encoder: the output is the number of ones (ones-counter encoding),
which is the standard bubble-suppressing choice, optionally preceded by a
majority filter.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def binary_to_thermometer(value: int, length: int) -> np.ndarray:
    """Ideal thermometer code of ``value`` ones in a field of ``length`` bits."""
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    if not 0 <= value <= length:
        raise ValueError(f"value must be within [0, {length}], got {value}")
    code = np.zeros(length, dtype=np.int8)
    code[:value] = 1
    return code


def thermometer_to_binary(code: Sequence[int]) -> int:
    """Ones-counter conversion of a (possibly bubbly) thermometer code."""
    array = np.asarray(code)
    if array.ndim != 1 or array.size == 0:
        raise ValueError("code must be a non-empty 1-D sequence")
    if np.any((array != 0) & (array != 1)):
        raise ValueError("thermometer code must contain only 0s and 1s")
    return int(array.sum())


def has_bubbles(code: Sequence[int]) -> bool:
    """True when the code is not a clean run of ones followed by zeros."""
    array = np.asarray(code)
    ones = int(array.sum())
    clean = binary_to_thermometer(ones, array.size)
    return bool(np.any(clean != array))


def majority_filter(code: Sequence[int], window: int = 3) -> np.ndarray:
    """Sliding-window majority vote used to suppress isolated bubbles.

    The window must be odd; boundary bits are padded by replicating the edge
    value so that a clean code is left untouched.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be a positive odd integer, got {window}")
    array = np.asarray(code, dtype=np.int8)
    if array.ndim != 1 or array.size == 0:
        raise ValueError("code must be a non-empty 1-D sequence")
    if window == 1:
        return array.copy()
    half = window // 2
    padded = np.concatenate([np.full(half, array[0]), array, np.full(half, array[-1])])
    filtered = np.empty_like(array)
    for i in range(array.size):
        segment = padded[i : i + window]
        filtered[i] = 1 if int(segment.sum()) * 2 > window else 0
    return filtered


class ThermometerEncoder:
    """Thermometer-to-binary encoder with optional bubble correction.

    Parameters
    ----------
    length:
        Expected code length (number of delay-line taps).
    bubble_correction:
        When true a 3-bit majority filter is applied before counting, matching
        the paper's "conversion ... so as to avoid metastability".
    """

    def __init__(self, length: int, bubble_correction: bool = True) -> None:
        if length <= 0:
            raise ValueError(f"length must be positive, got {length}")
        self.length = length
        self.bubble_correction = bubble_correction

    def encode(self, code: Sequence[int]) -> int:
        """Convert a latched thermometer code into a fine binary code."""
        array = np.asarray(code, dtype=np.int8)
        if array.size != self.length:
            raise ValueError(
                f"code length {array.size} does not match encoder length {self.length}"
            )
        if self.bubble_correction and has_bubbles(array):
            array = majority_filter(array, window=3)
        return thermometer_to_binary(array)

    def output_bits(self) -> int:
        """Number of binary bits needed to represent the fine code."""
        return int(np.ceil(np.log2(self.length + 1)))
