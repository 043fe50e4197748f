"""Delay element model with process/voltage/temperature (PVT) dependence.

The paper explicitly notes that *"the delay line is not dynamically adjusted
for temperature, voltage, or process variations"* and that correctness relies
on periodic calibration.  The element model therefore exposes the three PVT
knobs so that the calibration and coverage experiments can vary them.

The delay of element ``i`` at operating point ``(T, V)`` is

    d_i(T, V) = d_nom * (1 + mismatch_i)
                      * (1 + tc * (T - T_ref))
                      * (1 - vc * (V - V_ref))
                      * (1 + periodic_i)

where ``mismatch_i`` is a per-element Gaussian random mismatch (process
variation), ``tc`` is the temperature coefficient (delay increases with
temperature for CMOS buffers), ``vc`` is the supply-voltage coefficient
(delay decreases with higher supply), and ``periodic_i`` is a deterministic
structural component used to model FPGA carry chains whose routing makes every
k-th element systematically slower (this is what gives the characteristic
saw-tooth DNL of Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.units import PS
from repro.simulation.randomness import RandomSource


@dataclass(frozen=True)
class DelayElementModel:
    """Statistical description of one class of delay elements.

    Attributes
    ----------
    nominal_delay:
        Mean element delay ``d_nom`` at the reference operating point [s].
    mismatch_sigma:
        Relative standard deviation of the per-element random mismatch
        (e.g. ``0.08`` for 8 % sigma).
    temperature_coefficient:
        Relative delay change per kelvin (positive: slower when hot).
    voltage_coefficient:
        Relative delay change per volt of supply increase (positive value
        means the delay *decreases* when the supply rises).
    reference_temperature:
        Temperature at which ``nominal_delay`` holds [degC].
    reference_voltage:
        Supply voltage at which ``nominal_delay`` holds [V].
    structural_period:
        If positive, every ``structural_period``-th element receives an extra
        deterministic delay of ``structural_extra`` (relative), modelling FPGA
        carry-chain/CLB boundaries.
    structural_extra:
        Relative extra delay applied at structural boundaries.
    """

    nominal_delay: float = 54.0 * PS
    mismatch_sigma: float = 0.08
    temperature_coefficient: float = 1.0e-3
    voltage_coefficient: float = 0.15
    reference_temperature: float = 20.0
    reference_voltage: float = 1.5
    structural_period: int = 0
    structural_extra: float = 0.0

    def __post_init__(self) -> None:
        if self.nominal_delay <= 0:
            raise ValueError(f"nominal_delay must be positive, got {self.nominal_delay}")
        if self.mismatch_sigma < 0:
            raise ValueError(f"mismatch_sigma must be non-negative, got {self.mismatch_sigma}")
        if self.structural_period < 0:
            raise ValueError("structural_period must be non-negative")

    # -- scaling -----------------------------------------------------------
    def pvt_scale(self, temperature: float, voltage: Optional[float] = None) -> float:
        """Multiplicative delay scale factor at the given operating point."""
        if voltage is None:
            voltage = self.reference_voltage
        scale = 1.0 + self.temperature_coefficient * (temperature - self.reference_temperature)
        scale *= 1.0 - self.voltage_coefficient * (voltage - self.reference_voltage)
        if scale <= 0:
            raise ValueError(
                "operating point drives the element delay non-positive "
                f"(T={temperature} degC, V={voltage} V)"
            )
        return scale

    def mean_delay(self, temperature: Optional[float] = None, voltage: Optional[float] = None) -> float:
        """Mean element delay at an operating point (mismatch averaged out)."""
        if temperature is None:
            temperature = self.reference_temperature
        return self.nominal_delay * self.pvt_scale(temperature, voltage)

    def structural_profile(self, count: int) -> np.ndarray:
        """Deterministic relative extra delay per element (1 + periodic_i)."""
        profile = np.ones(count)
        if self.structural_period > 0 and self.structural_extra != 0.0:
            boundary = np.arange(count) % self.structural_period == self.structural_period - 1
            profile[boundary] += self.structural_extra
        return profile

    def sample_delays(
        self,
        count: int,
        random_source: Optional[RandomSource] = None,
        temperature: Optional[float] = None,
        voltage: Optional[float] = None,
    ) -> np.ndarray:
        """Draw per-element delays for a chain of ``count`` elements [s].

        The random mismatch is frozen per chain (process variation); the PVT
        scale is applied on top of it.  Delays are clipped to 10 % of nominal
        to keep them physical even in the far tail of the mismatch draw.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        if temperature is None:
            temperature = self.reference_temperature
        if random_source is None:
            mismatch = np.zeros(count)
        else:
            mismatch = random_source.normal_array(0.0, self.mismatch_sigma, count)
        base = self.nominal_delay * (1.0 + mismatch) * self.structural_profile(count)
        base = np.clip(base, 0.1 * self.nominal_delay, None)
        return base * self.pvt_scale(temperature, voltage)

    def elements_to_cover(
        self,
        window: float,
        temperature: Optional[float] = None,
        voltage: Optional[float] = None,
        margin: float = 0.0,
    ) -> int:
        """Number of elements needed so the chain spans ``window`` seconds.

        ``margin`` adds a relative safety margin (e.g. ``0.03`` for 3 %).
        This is the sizing rule behind the paper's "96 elements to cover 5 ns"
        statement.
        """
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if margin < 0:
            raise ValueError(f"margin must be non-negative, got {margin}")
        mean = self.mean_delay(temperature, voltage)
        return int(np.ceil(window * (1.0 + margin) / mean))
