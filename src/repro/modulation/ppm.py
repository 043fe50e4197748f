"""Pulse-position modulation coder/decoder.

PPM "encodes K bits into 2^K time slots in the total allotted range R"
(paper, Section 1).  The encoder maps a K-bit group to the emission time of a
single pulse; the decoder maps a measured time-of-arrival back to the slot
index and hence to the K bits.  Decoding is *maximum-likelihood for a
symmetric jitter distribution*: the slot whose centre is closest to the
measured arrival wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.modulation.symbols import SlotGrid, bit_matrix_to_ints, bits_to_int


@dataclass(frozen=True)
class PpmSymbol:
    """One encoded PPM symbol."""

    value: int
    slot: int
    pulse_time: float


class PpmCodec:
    """Encoder/decoder for K-bit pulse-position modulation on a slot grid."""

    def __init__(self, grid: SlotGrid) -> None:
        self.grid = grid

    @property
    def bits_per_symbol(self) -> int:
        return self.grid.bits_per_symbol

    # -- encoding -------------------------------------------------------------
    def encode_value(self, value: int) -> PpmSymbol:
        """Encode an integer in ``[0, 2^K)`` as a pulse position."""
        if not 0 <= value < self.grid.slot_count:
            raise ValueError(
                f"value must be within [0, {self.grid.slot_count}), got {value}"
            )
        slot = value
        return PpmSymbol(value=value, slot=slot, pulse_time=self.grid.slot_center(slot))

    def encode_bits(self, bits: Sequence[int]) -> List[PpmSymbol]:
        """Encode a bit stream into consecutive PPM symbols.

        The bit count must be a multiple of K (pad upstream if needed);
        symbols are returned in transmission order.
        """
        if len(bits) == 0:
            raise ValueError("bits must be non-empty")
        if len(bits) % self.bits_per_symbol != 0:
            raise ValueError(
                f"bit count {len(bits)} is not a multiple of K={self.bits_per_symbol}"
            )
        symbols = []
        for start in range(0, len(bits), self.bits_per_symbol):
            group = bits[start : start + self.bits_per_symbol]
            symbols.append(self.encode_value(bits_to_int(group)))
        return symbols

    def encode_bits_to_values(self, bits: Sequence[int]) -> np.ndarray:
        """Vectorised :meth:`encode_bits`: symbol values only, as one array.

        The batch transmission engine works on symbol-value arrays rather than
        :class:`PpmSymbol` objects; pulse times follow from
        :meth:`pulse_times_for_values`.
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
    def decode_time(self, arrival_time: float) -> int:
        """Decode a measured arrival time (within one symbol) to the symbol value.

        Arrival times inside the guard interval decode to the last slot —
        consistent with :meth:`SlotGrid.slot_of_time` — because a detection
        there is most likely a late pulse from the last slot.
        """
        slot = self.grid.slot_of_time(arrival_time)
        return slot

    def decode_times(self, arrival_times: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`decode_time` over an array of measured arrival times."""
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
