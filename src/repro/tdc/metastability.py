"""Metastability model for the delay-line sampling flip-flops.

When the hit signal arrives at a tap almost exactly on the sampling clock
edge, the corresponding flip-flop may resolve to either value, producing
"bubbles" in the thermometer code.  The paper's fine controller converts the
thermometer code to binary in a way that tolerates such bubbles; this module
provides the error-injection side so that the tolerance can be exercised in
simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.units import PS
from repro.simulation.randomness import RandomSource


@dataclass(frozen=True)
class MetastabilityModel:
    """Per-tap sampling uncertainty.

    Attributes
    ----------
    aperture:
        Width of the metastability window around the ideal sampling instant
        [s].  A tap whose transition falls within ``aperture`` of the clock
        edge resolves randomly.
    flip_probability:
        Probability that a tap inside the aperture resolves to the "wrong"
        value.
    """

    aperture: float = 10.0 * PS
    flip_probability: float = 0.5

    def __post_init__(self) -> None:
        if self.aperture < 0:
            raise ValueError(f"aperture must be non-negative, got {self.aperture}")
        if not 0.0 <= self.flip_probability <= 1.0:
            raise ValueError(
                f"flip_probability must be within [0, 1], got {self.flip_probability}"
            )

    def corrupt(
        self,
        code: np.ndarray,
        tap_times: np.ndarray,
        elapsed: float,
        random_source: Optional[RandomSource] = None,
    ) -> np.ndarray:
        """Inject bubbles into a latched thermometer code.

        ``tap_times`` are the cumulative tap delays; ``elapsed`` is the true
        interval being measured.  Taps whose cumulative delay is within the
        aperture of ``elapsed`` are candidates for a random flip.
        """
        array = np.asarray(code, dtype=np.int8).copy()
        taps = np.asarray(tap_times, dtype=float)
        if array.size != taps.size:
            raise ValueError("code and tap_times must have the same length")
        if self.aperture == 0 or random_source is None:
            return array
        near_edge = np.abs(taps - elapsed) <= self.aperture
        for index in np.nonzero(near_edge)[0]:
            if random_source.bernoulli(self.flip_probability):
                array[index] ^= 1
        return array

    def expected_bubble_rate(self, mean_element_delay: float) -> float:
        """Expected fraction of conversions containing at least one bubble.

        For a uniformly distributed hit phase, the transition tap lands within
        the aperture with probability ``min(1, aperture / delay)`` and then
        flips with ``flip_probability``.
        """
        if mean_element_delay <= 0:
            raise ValueError("mean_element_delay must be positive")
        within = min(1.0, self.aperture / mean_element_delay)
        return within * self.flip_probability
