"""On-off keying, the ablation baseline for PPM.

The paper argues for PPM because the SPAD's long detection cycle makes
per-slot on-off keying (OOK) hopelessly slow: at most one detection per
detection cycle means one *bit* per cycle for OOK versus K bits per cycle for
2^K-PPM.  :class:`OnOffKeyingCodec` — one pulse (or none) per bit period —
makes that comparison concrete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class OnOffKeyingCodec:
    """On-off keying: a pulse in the bit period means 1, its absence means 0.

    Attributes
    ----------
    bit_period:
        Duration of one bit period [s]; must cover the SPAD detection cycle,
        because a pulse can be sent in every period.
    """

    bit_period: float

    def __post_init__(self) -> None:
        if self.bit_period <= 0:
            raise ValueError("bit_period must be positive")

    @property
    def bit_rate(self) -> float:
        """Throughput in bits per second."""
        return 1.0 / self.bit_period

    def pulse_schedule(self, bits: Sequence[int]) -> np.ndarray:
        """Emission times of the pulses for a bit stream (1s only)."""
        if len(bits) == 0:
            raise ValueError("bits must be non-empty")
        times = []
        for index, bit in enumerate(bits):
            if bit not in (0, 1):
                raise ValueError(f"bits must be 0 or 1, got {bit}")
            if bit == 1:
                times.append(index * self.bit_period + self.bit_period / 2.0)
        return np.asarray(times)

    def decode(self, detections: Sequence[Optional[float]], bit_count: int) -> List[int]:
        """Decode per-period detection times (``None`` = no detection) into bits."""
        if bit_count <= 0:
            raise ValueError("bit_count must be positive")
        if len(detections) != bit_count:
            raise ValueError("one detection entry per bit period is required")
        return [0 if detection is None else 1 for detection in detections]

    def pulses_per_bit(self, ones_density: float = 0.5) -> float:
        """Average optical pulses emitted per transmitted bit."""
        if not 0 <= ones_density <= 1:
            raise ValueError("ones_density must be within [0, 1]")
        return ones_density
