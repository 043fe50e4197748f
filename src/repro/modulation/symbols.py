"""Bit/symbol utilities and the PPM slot grid.

A PPM symbol of order ``K`` occupies ``2**K`` slots; the slot grid maps slot
indices to the pulse emission times inside the measurement window and back.
The paper requires the total allotted range R to exceed the SPAD detection
cycle, so the grid also tracks the guard (reset) interval appended after the
data slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.kernels import reference as _reference


def int_to_bits(value: int, width: int) -> List[int]:
    """Big-endian bit vector of ``value`` using exactly ``width`` bits.

    >>> int_to_bits(5, 4)
    [0, 1, 0, 1]
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    if value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return [(value >> shift) & 1 for shift in range(width - 1, -1, -1)]


def bits_to_int(bits: Sequence[int]) -> int:
    """Big-endian bit vector to integer.

    >>> bits_to_int([0, 1, 0, 1])
    5
    """
    if len(bits) == 0:
        raise ValueError("bits must be non-empty")
    value = 0
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {bit}")
        value = (value << 1) | bit
    return value


def ints_to_bit_matrix(values: np.ndarray, width: int) -> np.ndarray:
    """Vectorised :func:`int_to_bits`: one big-endian row of ``width`` bits per value.

    >>> ints_to_bit_matrix(np.array([5, 1]), 4).tolist()
    [[0, 1, 0, 1], [0, 0, 0, 1]]
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    values = np.asarray(values, dtype=np.int64)
    if values.size and (values.min() < 0 or values.max() >= (1 << width)):
        raise ValueError(f"values must lie within [0, 2^{width})")
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    return ((values[:, None] >> shifts) & 1).astype(np.int64)


def bit_matrix_to_ints(bits: np.ndarray) -> np.ndarray:
    """Vectorised :func:`bits_to_int` over the rows of a big-endian bit matrix.

    >>> bit_matrix_to_ints(np.array([[0, 1, 0, 1], [0, 0, 0, 1]])).tolist()
    [5, 1]
    """
    bits = np.asarray(bits, dtype=np.int64)
    if bits.ndim != 2 or bits.shape[1] == 0:
        raise ValueError("bits must be a 2-D matrix with at least one column")
    if bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ValueError("bits must be 0 or 1")
    width = bits.shape[1]
    weights = 1 << np.arange(width - 1, -1, -1, dtype=np.int64)
    return bits @ weights


def _popcount_table(bits: int) -> np.ndarray:
    """Set bits of every ``bits``-bit value: value ``v + 2^i`` has one more
    than ``v`` for ``v < 2^i``, so each doubling is one array pass."""
    table = np.zeros(1, dtype=np.uint8)
    for _ in range(bits):
        table = np.concatenate([table, table + 1])
    return table


#: Set bits of every 16-bit value.  Decoding symbol value ``v`` as ``d``
#: costs ``POPCOUNT16[v ^ d]`` bit errors; ``ppm_bits`` is capped at 16, so
#: this one ``uint8`` table serves every codec.
POPCOUNT16 = _popcount_table(16)


def symbol_bit_errors(
    values: np.ndarray, decoded: np.ndarray, ppm_bits: int, row_bits
) -> np.ndarray:
    """Bit errors of every received symbol, over payload positions only.

    ``values`` holds the sent symbol values of one or more rows back to
    back: row ``r`` is a payload of ``row_bits[r]`` bits (a scalar is one
    row) zero-padded to whole ``ppm_bits``-bit symbols.  ``decoded`` holds
    the received values along its last axis; leading axes (one row per
    broadcast receiver, say) broadcast against ``values``.  A symbol's count
    is the popcount of ``values ^ decoded`` with the padding — the low bits
    of each row's last symbol — masked out, so a row's counts sum to the bit
    errors of its payload.  The result is ``uint8``, shaped like ``decoded``.

    >>> symbol_bit_errors(np.array([5, 2]), np.array([6, 1]), 3, 5).tolist()
    [2, 1]
    """
    row_bits = np.asarray(row_bits)
    last = np.cumsum(-(-row_bits // ppm_bits)) - 1  # each row's last symbol
    difference = np.bitwise_xor(decoded, values)
    # -1 << p keeps every bit above the row's p = (-row_bits) % ppm_bits
    # padding bits.
    difference[..., last] &= -1 << (-row_bits) % ppm_bits
    return POPCOUNT16[difference]


@dataclass(frozen=True)
class SlotGrid:
    """Timing grid of one PPM symbol.

    Attributes
    ----------
    bits_per_symbol:
        K — number of bits carried per pulse.
    slot_duration:
        Width of one time slot [s] (sets the required TDC resolution).
    guard_time:
        Reset/guard interval appended after the last slot [s] (the paper's
        "TDC dead time"/reset window, and the slack that lets the SPAD recover).
    """

    bits_per_symbol: int
    slot_duration: float
    guard_time: float = 0.0

    def __post_init__(self) -> None:
        if self.bits_per_symbol <= 0:
            raise ValueError("bits_per_symbol must be positive")
        if self.slot_duration <= 0:
            raise ValueError("slot_duration must be positive")
        if self.guard_time < 0:
            raise ValueError("guard_time must be non-negative")

    @property
    def slot_count(self) -> int:
        """Number of data slots (2^K)."""
        return 1 << self.bits_per_symbol

    @property
    def data_window(self) -> float:
        """Duration of the data slots only [s]."""
        return self.slot_count * self.slot_duration

    @property
    def symbol_duration(self) -> float:
        """Total allotted range R: data slots plus guard [s]."""
        return self.data_window + self.guard_time

    @property
    def raw_bit_rate(self) -> float:
        """Bits per second when symbols are sent back to back."""
        return self.bits_per_symbol / self.symbol_duration

    def slot_start(self, slot: int) -> float:
        """Start time of ``slot`` within the symbol [s]."""
        if not 0 <= slot < self.slot_count:
            raise ValueError(f"slot must be within [0, {self.slot_count}), got {slot}")
        return slot * self.slot_duration

    def slot_center(self, slot: int) -> float:
        """Centre time of ``slot`` within the symbol [s]."""
        return self.slot_start(slot) + self.slot_duration / 2.0

    def slot_of_time(self, time: float) -> int:
        """Slot index containing ``time``; times in the guard interval map to the last slot.

        Raises :class:`ValueError` for times outside the symbol range.
        """
        if time < 0 or time >= self.symbol_duration:
            raise ValueError(
                f"time {time} outside the symbol range [0, {self.symbol_duration})"
            )
        if time >= self.data_window:
            return self.slot_count - 1
        return int(time / self.slot_duration)

    def slots_of_times(self, times: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`slot_of_time` over an array of arrival times."""
        return _reference.slots_of_times(
            np.asarray(times, dtype=float),
            self.slot_duration,
            self.slot_count,
            self.symbol_duration,
        )

    def with_guard(self, guard_time: float) -> "SlotGrid":
        """Copy of the grid with a different guard interval."""
        return SlotGrid(
            bits_per_symbol=self.bits_per_symbol,
            slot_duration=self.slot_duration,
            guard_time=guard_time,
        )
