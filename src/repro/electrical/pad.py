"""Conventional I/O pad model.

The unit against which the paper's optical transceiver is compared: a
wire-bonded digital I/O pad with its ESD structures, pad metal, and output
driver.  The figures of merit are silicon area, energy per bit, achievable bit
rate (limited by the bond wire) and bandwidth density (bit rate per unit of
die-edge length).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.units import UM
from repro.electrical.bonding_wire import BondWire


@dataclass(frozen=True)
class PadConfig:
    """Geometry and electrical parameters of a conventional I/O pad.

    Attributes
    ----------
    pad_width, pad_height:
        Pad opening dimensions [m]; 60-80 um pads are typical for wire bonding.
    pitch:
        Centre-to-centre pad pitch along the die edge [m].
    driver_area:
        Area of the output driver + ESD structures [m^2].
    pad_capacitance:
        Pad + ESD + package capacitance seen by the driver [F].
    supply_voltage:
        I/O supply [V].
    voltage_swing:
        Signal swing on the wire [V] (full swing by default).
    leakage_power:
        Static power of the pad cell [W].
    """

    pad_width: float = 70.0 * UM
    pad_height: float = 70.0 * UM
    pitch: float = 90.0 * UM
    driver_area: float = 60.0 * UM * 100.0 * UM
    pad_capacitance: float = 2.0e-12
    supply_voltage: float = 2.5
    voltage_swing: float = 2.5
    leakage_power: float = 1.0e-6

    def __post_init__(self) -> None:
        if self.pad_width <= 0 or self.pad_height <= 0:
            raise ValueError("pad dimensions must be positive")
        if self.pitch < max(self.pad_width, self.pad_height):
            raise ValueError("pitch must be at least the pad size")
        if self.pad_capacitance <= 0:
            raise ValueError("pad_capacitance must be positive")
        if self.supply_voltage <= 0 or self.voltage_swing <= 0:
            raise ValueError("voltages must be positive")


class IoPad:
    """A conventional wire-bonded I/O pad channel."""

    def __init__(self, config: PadConfig = PadConfig(), wire: Optional[BondWire] = None) -> None:
        self.config = config
        self.wire = wire if wire is not None else BondWire()

    @property
    def area(self) -> float:
        """Total silicon area of pad + driver [m^2]."""
        return self.config.pad_width * self.config.pad_height + self.config.driver_area

    @property
    def edge_length(self) -> float:
        """Die-edge length consumed per pad [m]."""
        return self.config.pitch

    def max_bit_rate(self) -> float:
        """Bit rate limit imposed by the bond-wire parasitics [bit/s]."""
        return self.wire.max_bit_rate(self.config.pad_capacitance)

    def energy_per_bit(self) -> float:
        """Switching energy per transmitted bit [J/bit].

        0.5 transitions per bit on random data, charging the pad + wire
        capacitance through the full swing: E = 0.5 · C · V_swing · V_dd.
        """
        total_c = self.config.pad_capacitance + self.wire.capacitance
        return 0.5 * total_c * self.config.voltage_swing * self.config.supply_voltage

    def power_at(self, bit_rate: float) -> float:
        """Average power when running at ``bit_rate`` [W]."""
        if bit_rate < 0:
            raise ValueError("bit_rate must be non-negative")
        if bit_rate > self.max_bit_rate():
            raise ValueError(
                f"bit_rate {bit_rate:.3e} exceeds the bond-wire limit "
                f"{self.max_bit_rate():.3e}"
            )
        return self.energy_per_bit() * bit_rate + self.config.leakage_power

    def bandwidth_density(self) -> float:
        """Achievable bit rate per metre of die edge [bit/s/m]."""
        return self.max_bit_rate() / self.edge_length

    def drive_current(self, bit_rate: float) -> float:
        """Average drive current at ``bit_rate`` [A]."""
        return self.wire.current_for_bit_rate(
            bit_rate, self.config.pad_capacitance, self.config.voltage_swing
        )

    def switching_noise(self, bit_rate: float, simultaneous_pads: int = 1) -> float:
        """Aggregate L·dI/dt noise when ``simultaneous_pads`` switch together [V]."""
        if simultaneous_pads <= 0:
            raise ValueError("simultaneous_pads must be positive")
        rise_time = 0.35 / self.max_bit_rate()
        per_pad = self.wire.simultaneous_switching_noise(
            self.drive_current(bit_rate) * 2.0, rise_time
        )
        return per_pad * simultaneous_pads
