"""CMOS micro-LED driver.

The paper's transmitter driver "occupies a fraction of the area of a pad" and
produces sub-nanosecond current pulses.  For the power/area comparison with
conventional pads we model it as a tapered CMOS buffer chain driving the LED
plus its parasitics: the energy per pulse is the CV^2 switching energy of the
chain plus the conduction energy delivered to the LED.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.units import UM


@dataclass(frozen=True)
class LedDriverConfig:
    """Electrical parameters of the LED driver.

    Attributes
    ----------
    supply_voltage:
        Driver supply [V] (GaN LEDs need ~3.3-5 V headroom).
    load_capacitance:
        Total switched capacitance (LED junction + wiring + output stage) [F].
    stage_count:
        Number of buffer stages in the tapered chain.
    stage_capacitance:
        Input capacitance of the first stage [F]; each following stage is
        ``taper`` times larger.
    taper:
        Fan-out per stage of the tapered buffer.
    leakage_power:
        Static leakage of the driver [W].
    area:
        Silicon footprint of the driver [m^2].
    """

    supply_voltage: float = 3.3
    load_capacitance: float = 250e-15
    stage_count: int = 4
    stage_capacitance: float = 2e-15
    taper: float = 4.0
    leakage_power: float = 50e-9
    area: float = 20.0 * UM * 20.0 * UM

    def __post_init__(self) -> None:
        if self.supply_voltage <= 0:
            raise ValueError("supply_voltage must be positive")
        if self.load_capacitance <= 0:
            raise ValueError("load_capacitance must be positive")
        if self.stage_count <= 0:
            raise ValueError("stage_count must be positive")
        if self.taper < 1:
            raise ValueError("taper must be at least 1")
        if self.area <= 0:
            raise ValueError("area must be positive")


class LedDriver:
    """Energy/area model of the CMOS driver for one LED channel."""

    def __init__(self, config: LedDriverConfig = LedDriverConfig()) -> None:
        self.config = config

    def switched_capacitance(self) -> float:
        """Total capacitance switched per pulse (buffer chain + load) [F]."""
        chain = sum(
            self.config.stage_capacitance * self.config.taper ** stage
            for stage in range(self.config.stage_count)
        )
        return chain + self.config.load_capacitance

    def switching_energy_per_pulse(self) -> float:
        """CV^2 energy dissipated per emitted pulse [J] (charge + discharge)."""
        return self.switched_capacitance() * self.config.supply_voltage ** 2

    def conduction_energy_per_pulse(self, drive_current: float, pulse_width: float) -> float:
        """Energy delivered through the LED during one pulse [J]."""
        if drive_current < 0:
            raise ValueError("drive_current must be non-negative")
        if pulse_width <= 0:
            raise ValueError("pulse_width must be positive")
        return self.config.supply_voltage * drive_current * pulse_width

    def energy_per_pulse(self, drive_current: float, pulse_width: float) -> float:
        """Total electrical energy per optical pulse [J]."""
        return self.switching_energy_per_pulse() + self.conduction_energy_per_pulse(
            drive_current, pulse_width
        )

    def average_power(self, drive_current: float, pulse_width: float, pulse_rate: float) -> float:
        """Average driver power at a given pulse repetition rate [W]."""
        if pulse_rate < 0:
            raise ValueError("pulse_rate must be non-negative")
        return self.energy_per_pulse(drive_current, pulse_width) * pulse_rate + self.config.leakage_power

    def energy_per_bit(self, drive_current: float, pulse_width: float, bits_per_pulse: float) -> float:
        """Electrical energy per transmitted bit [J/bit] (PPM sends several bits per pulse)."""
        if bits_per_pulse <= 0:
            raise ValueError("bits_per_pulse must be positive")
        return self.energy_per_pulse(drive_current, pulse_width) / bits_per_pulse

    @property
    def area(self) -> float:
        """Driver silicon area [m^2]."""
        return self.config.area
