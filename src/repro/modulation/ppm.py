"""Pulse-position modulation coder/decoder.

PPM "encodes K bits into 2^K time slots in the total allotted range R"
(paper, Section 1).  The encoder maps a K-bit group to the emission time of a
single pulse; the decoder maps a measured time-of-arrival back to the slot
index and hence to the K bits.  Decoding is *maximum-likelihood for a
symmetric jitter distribution*: the slot whose centre is closest to the
measured arrival wins.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.modulation.symbols import SlotGrid, bit_matrix_to_ints


class PpmCodec:
    """Encoder/decoder for K-bit pulse-position modulation on a slot grid."""

    def __init__(self, grid: SlotGrid) -> None:
        self.grid = grid

    @property
    def bits_per_symbol(self) -> int:
        return self.grid.bits_per_symbol

    # -- encoding -------------------------------------------------------------
    def encode_bits_to_values(self, bits: Sequence[int]) -> np.ndarray:
        """Encode a bit stream as one array of PPM symbol values, in transmission order.

        The bit count must be a multiple of K (pad upstream if needed);
        pulse times follow from :meth:`pulse_times_for_values`.
        """
        if len(bits) == 0:
            raise ValueError("bits must be non-empty")
        if len(bits) % self.bits_per_symbol != 0:
            raise ValueError(
                f"bit count {len(bits)} is not a multiple of K={self.bits_per_symbol}"
            )
        matrix = np.asarray(bits, dtype=np.int64).reshape(-1, self.bits_per_symbol)
        return bit_matrix_to_ints(matrix)

    def pulse_times_for_values(self, values: np.ndarray) -> np.ndarray:
        """Pulse emission times (slot centres, within the symbol) for a value array."""
        values = np.asarray(values, dtype=np.int64)
        if values.size and (values.min() < 0 or values.max() >= self.grid.slot_count):
            raise ValueError(f"values must lie within [0, {self.grid.slot_count})")
        return (values + 0.5) * self.grid.slot_duration

    # -- decoding -------------------------------------------------------------
    def decode_times(self, arrival_times: np.ndarray) -> np.ndarray:
        """Symbol values of measured arrival times (each within one symbol).

        Arrival times inside the guard interval decode to the last slot,
        because a detection there is most likely a late pulse from the last
        slot.
        """
        return self.grid.slots_of_times(arrival_times)

    # -- analysis ---------------------------------------------------------------
    def hamming_distance_matrix(self) -> np.ndarray:
        """Bit errors caused by decoding slot ``i`` as slot ``j`` (natural mapping)."""
        count = self.grid.slot_count
        matrix = np.zeros((count, count), dtype=int)
        for i in range(count):
            for j in range(count):
                matrix[i, j] = bin(i ^ j).count("1")
        return matrix

    def expected_bit_errors_per_symbol_error(self) -> float:
        """Average bit errors when a symbol decodes to a uniformly-random wrong slot."""
        matrix = self.hamming_distance_matrix()
        count = self.grid.slot_count
        off_diagonal = matrix.sum() / (count * (count - 1))
        return float(off_diagonal)

    def adjacent_slot_bit_errors(self) -> float:
        """Average bit errors when a symbol decodes to an *adjacent* slot.

        Jitter-induced errors almost always land in a neighbouring slot, which
        with the natural binary mapping flips on average fewer bits than a
        random slot error.
        """
        matrix = self.hamming_distance_matrix()
        count = self.grid.slot_count
        distances = []
        for i in range(count):
            if i > 0:
                distances.append(matrix[i, i - 1])
            if i < count - 1:
                distances.append(matrix[i, i + 1])
        return float(np.mean(distances))
