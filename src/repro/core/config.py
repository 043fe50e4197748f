"""Link configuration.

:class:`LinkConfig` gathers every knob of the end-to-end optical link into one
validated value object: the PPM order, the slot timing (derived from the TDC
design unless overridden), the SPAD operating point, the optical pulse energy
at the detector and the channel/stack description.  The defaults describe a
conservative single channel of the paper's system: 16-PPM (4 bits per pulse),
500 ps slots, a 32 ns active-quenched SPAD and a red micro-LED bright enough
that the photon budget closes with margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral
from typing import Optional

from repro.analysis.units import NM, NS, PS
from repro.core.throughput import TdcDesign
from repro.modulation.symbols import SlotGrid
from repro.spad.quenching import QuenchingCircuit
from repro.spad.device import SpadConfig


@dataclass(frozen=True)
class LinkConfig:
    """Configuration of one optical PPM link.

    Attributes
    ----------
    ppm_bits:
        K — bits per PPM symbol (the symbol uses 2^K slots).
    slot_duration:
        Width of one PPM slot [s].  Must be comfortably larger than the SPAD
        jitter for a low error rate; the TDC element delay only needs to be
        smaller than the slot.
    spad_dead_time:
        SPAD dead time / detection cycle [s].  The guard interval of each
        symbol is stretched so that the whole symbol is at least this long,
        which is the paper's "range adapted to the SPAD's dead time".
    mean_detected_photons:
        Mean number of photons per pulse arriving on the SPAD active area
        (i.e. *after* all channel losses).
    wavelength:
        Operating wavelength [m].
    temperature:
        Operating temperature [degC].
    excess_bias:
        SPAD excess bias [V].
    tdc_design:
        TDC design used by the receiver; its resolution must not exceed the
        slot duration.  When ``None`` a design is derived automatically
        (element delay = slot/4, range covering the symbol).
    extra_guard:
        Additional guard time beyond the dead-time matching [s].
    """

    ppm_bits: int = 4
    slot_duration: float = 500.0 * PS
    spad_dead_time: float = 32.0 * NS
    mean_detected_photons: float = 50.0
    wavelength: float = 650.0 * NM
    temperature: float = 20.0
    excess_bias: float = 3.3
    tdc_design: Optional[TdcDesign] = None
    extra_guard: float = 0.0

    def __post_init__(self) -> None:
        # Every check is written so that NaN fails it.
        if isinstance(self.ppm_bits, bool) or not isinstance(self.ppm_bits, Integral):
            raise ValueError(f"ppm_bits must be an int, got {self.ppm_bits!r}")
        if not self.ppm_bits > 0:
            raise ValueError("ppm_bits must be positive")
        if self.ppm_bits > 16:
            raise ValueError("ppm_bits above 16 is not supported (2^K slots explode)")
        for name in ("slot_duration", "spad_dead_time", "wavelength"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        # An unbounded photon budget (+inf) is valid: a pulse that always
        # fires, which the multichannel engine supports on purpose.
        if not self.mean_detected_photons >= 0:
            raise ValueError(
                f"mean_detected_photons must be non-negative, got {self.mean_detected_photons!r}"
            )
        for name in ("temperature", "excess_bias"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not (self.extra_guard >= 0 and math.isfinite(self.extra_guard)):
            raise ValueError(f"extra_guard must be non-negative and finite, got {self.extra_guard!r}")
        if self.tdc_design is not None and self.tdc_design.resolution > self.slot_duration:
            raise ValueError(
                "the TDC resolution (element delay) must not exceed the slot duration"
            )

    # -- derived timing --------------------------------------------------------
    @property
    def slot_count(self) -> int:
        """Number of PPM slots per symbol (2^K)."""
        return 1 << self.ppm_bits

    @property
    def data_window(self) -> float:
        """Duration of the data slots [s]."""
        return self.slot_count * self.slot_duration

    @property
    def guard_time(self) -> float:
        """Guard/reset interval appended to each symbol [s].

        Stretches the symbol to cover the SPAD dead time (so that the device
        is re-armed for the next symbol's pulse), plus any extra guard.
        """
        deficit = max(0.0, self.spad_dead_time - self.data_window)
        return deficit + self.extra_guard

    @property
    def symbol_duration(self) -> float:
        """Total allotted range R of one symbol [s]."""
        return self.data_window + self.guard_time

    @property
    def raw_bit_rate(self) -> float:
        """Link throughput with back-to-back symbols [bit/s]."""
        return self.ppm_bits / self.symbol_duration

    def slot_grid(self) -> SlotGrid:
        """The PPM slot grid implied by this configuration."""
        return SlotGrid(
            bits_per_symbol=self.ppm_bits,
            slot_duration=self.slot_duration,
            guard_time=self.guard_time,
        )

    # -- derived receiver pieces ---------------------------------------------------
    def effective_tdc_design(self) -> TdcDesign:
        """The TDC design used by the receiver.

        When none is supplied, the element delay is set to a quarter of the
        slot (4x oversampling of the slot grid) and the range sized to cover
        the whole symbol with the smallest power-of-two coarse extension.
        """
        if self.tdc_design is not None:
            return self.tdc_design
        element_delay = self.slot_duration / 4.0
        fine_elements = 64
        fine_range = fine_elements * element_delay
        coarse_bits = 0
        while (1 << coarse_bits) * fine_range < self.symbol_duration and coarse_bits < 16:
            coarse_bits += 1
        return TdcDesign(
            fine_elements=fine_elements,
            coarse_bits=coarse_bits,
            element_delay=element_delay,
        )

    def spad_config(self) -> SpadConfig:
        """SPAD pixel configuration at this operating point."""
        return SpadConfig(
            wavelength=self.wavelength,
            excess_bias=self.excess_bias,
            temperature=self.temperature,
        )

    def quenching_circuit(self) -> QuenchingCircuit:
        """Active-quenching circuit with the configured dead time."""
        return QuenchingCircuit(dead_time=self.spad_dead_time, excess_bias=self.excess_bias)

    # -- convenience -----------------------------------------------------------------
    def with_ppm_bits(self, ppm_bits: int) -> "LinkConfig":
        """Copy of the configuration with a different PPM order."""
        return replace(self, ppm_bits=ppm_bits)

    def with_detected_photons(self, mean_detected_photons: float) -> "LinkConfig":
        """Copy of the configuration with a different received pulse energy."""
        return replace(self, mean_detected_photons=mean_detected_photons)

    def with_dead_time(self, spad_dead_time: float) -> "LinkConfig":
        """Copy of the configuration with a different SPAD dead time."""
        return replace(self, spad_dead_time=spad_dead_time)
