"""Tapped delay line — the fine interpolator of the TDC.

Operation (paper, Section 2): *"When the photon-hit signal enters the delay
line, the state of the complete line is latched on the rising edge of the
clock.  This yields a thermometer representation of the time between hit and
the next rising clock edge."*

The model keeps one frozen vector of per-element delays (drawn from a
:class:`~repro.tdc.delay_element.DelayElementModel`) and converts an elapsed
time into the number of taps the hit signal has propagated through.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.tdc.delay_element import DelayElementModel
from repro.simulation.randomness import RandomSource


class TappedDelayLine:
    """A chain of delay elements with frozen (per-instance) element delays."""

    def __init__(
        self,
        element_model: DelayElementModel,
        length: int,
        random_source: Optional[RandomSource] = None,
        temperature: Optional[float] = None,
        voltage: Optional[float] = None,
    ) -> None:
        if length <= 0:
            raise ValueError(f"length must be positive, got {length}")
        self.element_model = element_model
        self.length = length
        self.temperature = (
            element_model.reference_temperature if temperature is None else temperature
        )
        self.voltage = element_model.reference_voltage if voltage is None else voltage
        # Freeze the process mismatch at the reference point, then scale to the
        # requested operating point so set_operating_point() can re-scale the
        # same silicon later.
        if random_source is None:
            self._reference_delays = element_model.sample_delays(length)
        else:
            self._reference_delays = element_model.sample_delays(length, random_source)
        self._scale = element_model.pvt_scale(self.temperature, self.voltage)
        self._element_delays_cache: Optional[np.ndarray] = None
        self._tap_times_cache: Optional[np.ndarray] = None
        self._mean_resolution_cache: Optional[float] = None

    # -- geometry ---------------------------------------------------------
    @property
    def element_delays(self) -> np.ndarray:
        """Per-element delays at the current operating point [s].

        Cached (and returned read-only) because every TDC conversion consults
        the chain geometry; the cache is invalidated by
        :meth:`set_operating_point`.
        """
        if self._element_delays_cache is None:
            delays = self._reference_delays * self._scale
            delays.flags.writeable = False
            self._element_delays_cache = delays
        return self._element_delays_cache

    @property
    def tap_times(self) -> np.ndarray:
        """Cumulative propagation time up to (and including) each tap [s].

        Cached (and returned read-only); invalidated by
        :meth:`set_operating_point`.
        """
        if self._tap_times_cache is None:
            taps = np.cumsum(self.element_delays)
            taps.flags.writeable = False
            self._tap_times_cache = taps
        return self._tap_times_cache

    @property
    def total_delay(self) -> float:
        """Propagation time through the whole chain [s]."""
        return float(self.tap_times[-1])

    def set_operating_point(self, temperature: Optional[float] = None, voltage: Optional[float] = None) -> None:
        """Move the same physical chain to a new temperature/voltage point."""
        if temperature is not None:
            self.temperature = temperature
        if voltage is not None:
            self.voltage = voltage
        self._scale = self.element_model.pvt_scale(self.temperature, self.voltage)
        self._element_delays_cache = None
        self._tap_times_cache = None
        self._mean_resolution_cache = None

    # -- measurement --------------------------------------------------------
    def taps_reached(self, elapsed: float) -> int:
        """Number of taps the hit signal has passed after ``elapsed`` seconds.

        This is the ideal (noise-free) thermometer count: the largest ``k``
        such that the cumulative delay of the first ``k`` elements does not
        exceed ``elapsed``.  Saturates at the chain length.
        """
        if elapsed < 0:
            raise ValueError(f"elapsed time must be non-negative, got {elapsed}")
        return int(np.searchsorted(self.tap_times, elapsed, side="right"))

    def thermometer_code(self, elapsed: float) -> np.ndarray:
        """Latched thermometer code (1 for taps already reached) for ``elapsed``."""
        reached = self.taps_reached(elapsed)
        code = np.zeros(self.length, dtype=np.int8)
        code[:reached] = 1
        return code

    def covers(self, window: float) -> bool:
        """True when the chain spans at least ``window`` seconds.

        A relative tolerance of 1e-9 absorbs floating-point rounding in the
        cumulative sum (a chain of k nominally identical elements should be
        judged to cover exactly k element delays).
        """
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        return self.total_delay >= window * (1.0 - 1e-9)

    def elements_used_for(self, window: float) -> int:
        """Number of elements actually exercised by hits within ``window``.

        This reproduces the paper's "a maximum of 93 elements used at 20 degC"
        measurement: the tap index reached by a hit arriving immediately after
        a clock edge (elapsed time equal to the full window).
        """
        return self.taps_reached(window)

    def bin_widths(self) -> np.ndarray:
        """Quantisation bin widths of the fine interpolator (the element delays)."""
        return self.element_delays.copy()

    def mean_resolution(self) -> float:
        """Average LSB width of the fine interpolator [s].

        Cached; invalidated by :meth:`set_operating_point`.
        """
        if self._mean_resolution_cache is None:
            self._mean_resolution_cache = float(np.mean(self.element_delays))
        return self._mean_resolution_cache

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TappedDelayLine(length={self.length}, "
            f"mean_delay={self.mean_resolution():.3e}s, T={self.temperature}degC)"
        )
