"""Packets carried by the optical bus."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.modulation.symbols import bits_to_int, int_to_bits

_BITS = frozenset((0, 1))


def check_payload_bits(payload: Sequence[int]) -> None:
    """Raise :class:`ValueError` unless ``payload`` is a non-empty run of bits.

    An element counts as a bit when it equals 0 or 1 (``True``, ``1.0`` and
    NumPy scalars do); ``0.5``, ``NaN``, ``"1"`` and ``None`` do not.  The
    one payload check of :class:`Packet` and of the bus's bulk offer.
    """
    if len(payload) == 0:
        raise ValueError("payload must be non-empty")
    try:
        bits_only = _BITS.issuperset(payload)
    except TypeError:
        # An unhashable element: compare element by element instead, so
        # exactly the elements equal to 0 or 1 are still accepted.
        bits_only = all(bit in (0, 1) for bit in payload)
    if not bits_only:
        raise ValueError("payload bits must be 0 or 1")


@dataclass(frozen=True)
class Packet:
    """A fixed-header packet: destination, source, payload bits.

    The header uses 8 bits per address field and reserves the last address
    for broadcast, so a bus can address up to 255 dies — comfortably above
    the paper's "hundreds of dies".
    """

    source: int
    destination: int
    payload: Sequence[int]
    sequence: int = 0

    ADDRESS_BITS = 8
    SEQUENCE_BITS = 16
    #: The destination address every die receives.
    BROADCAST = (1 << ADDRESS_BITS) - 1

    def __post_init__(self) -> None:
        # Plain ints are the fast path.  A bool is an int but no node or
        # sequence number; NumPy integers are welcome.
        if not type(self.source) is type(self.destination) is type(self.sequence) is int:
            for name in ("source", "destination", "sequence"):
                value = getattr(self, name)
                if type(value) is not int and not isinstance(value, np.integer):
                    raise ValueError(f"{name} must be an integer, got {value!r}")
        limit = 1 << self.ADDRESS_BITS
        if not 0 <= self.source < limit:
            raise ValueError(f"source must be within [0, {limit})")
        if not 0 <= self.destination < limit:
            raise ValueError(f"destination must be within [0, {limit})")
        if not 0 <= self.sequence < (1 << self.SEQUENCE_BITS):
            raise ValueError("sequence number out of range")
        check_payload_bits(self.payload)

    @property
    def is_broadcast(self) -> bool:
        """Destination 255 is the broadcast address."""
        return self.destination == self.BROADCAST

    @classmethod
    def header_bit_count(cls) -> int:
        """Serialized header size (two address fields + sequence number)."""
        return 2 * cls.ADDRESS_BITS + cls.SEQUENCE_BITS

    @property
    def header_bits(self) -> int:
        return self.header_bit_count()

    @property
    def total_bits(self) -> int:
        return self.header_bits + len(self.payload)

    def serialize(self) -> List[int]:
        """Header followed by payload as a flat bit list.

        The header is destination, source and sequence number, each
        big-endian, unpacked from one integer in one pass.
        """
        word = (int(self.destination) << self.ADDRESS_BITS) | int(self.source)
        word = (word << self.SEQUENCE_BITS) | int(self.sequence)
        bits = int_to_bits(word, self.header_bits)
        bits += self.payload
        return bits

    def symbol_count(self, ppm_bits: int) -> int:
        """Number of ``ppm_bits``-wide PPM symbols the serialized packet occupies."""
        if ppm_bits <= 0:
            raise ValueError("ppm_bits must be positive")
        return -(-self.total_bits // ppm_bits)

    def padded_bits(self, ppm_bits: int) -> np.ndarray:
        """Serialized bits zero-padded to a whole number of PPM symbols, as ``uint8``.

        The symbol-aligned form the batched bus concatenates: padding each
        packet *before* concatenation keeps every packet's symbol boundaries
        where a packet-at-a-time transmission would put them, so per-packet
        error statistics stay comparable between the scalar slot loop and one
        segmented transmission of many packets.
        """
        bits = np.zeros(self.symbol_count(ppm_bits) * ppm_bits, dtype=np.uint8)
        bits[: self.total_bits] = self.serialize()
        return bits

    @classmethod
    def deserialize(cls, bits: Sequence[int]) -> "Packet":
        """Parse a serialized packet (the payload is everything after the header)."""
        header = 2 * cls.ADDRESS_BITS + cls.SEQUENCE_BITS
        if len(bits) <= header:
            raise ValueError("bit stream too short to contain a packet")
        destination = bits_to_int(list(bits[: cls.ADDRESS_BITS]))
        source = bits_to_int(list(bits[cls.ADDRESS_BITS : 2 * cls.ADDRESS_BITS]))
        sequence = bits_to_int(list(bits[2 * cls.ADDRESS_BITS : header]))
        payload = list(bits[header:])
        return cls(source=source, destination=destination, payload=payload, sequence=sequence)

    @classmethod
    def broadcast_packet(cls, source: int, payload: Sequence[int], sequence: int = 0) -> "Packet":
        """Construct a packet addressed to every die."""
        return cls(
            source=source,
            destination=cls.BROADCAST,
            payload=payload,
            sequence=sequence,
        )
