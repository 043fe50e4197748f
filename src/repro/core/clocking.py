"""Optical clock distribution (the paper's future-work extension).

The conclusions announce ongoing work on "high-speed local clock
synchronization, expected to drastically reduce clock distribution power costs
with minimal or no area impact".  The model here makes that comparison
concrete: a conventional buffered H-tree clock network (whose power is
dominated by charging the distributed wire and sink capacitance every cycle)
versus a single modulated optical emitter broadcast to per-region SPAD
receivers that regenerate the clock locally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.units import MHZ, MM
from repro.photonics.driver import LedDriver
from repro.spad.quenching import QuenchingCircuit


@dataclass(frozen=True)
class ElectricalClockTree:
    """First-order H-tree clock distribution model.

    Attributes
    ----------
    die_size:
        Die edge length [m].
    levels:
        Number of H-tree levels (the tree has ``4**levels`` leaf regions).
    wire_capacitance_per_meter:
        Clock-wire capacitance per metre [F/m].
    sink_capacitance:
        Total clocked-sink (flip-flop clock pin) capacitance [F].
    supply_voltage:
        Clock swing [V].
    buffer_overhead:
        Extra switched capacitance contributed by repeaters, as a fraction of
        the wire capacitance.
    """

    die_size: float = 10.0 * MM
    levels: int = 5
    wire_capacitance_per_meter: float = 200e-12
    sink_capacitance: float = 500e-12
    supply_voltage: float = 1.0
    buffer_overhead: float = 0.5

    def __post_init__(self) -> None:
        if self.die_size <= 0:
            raise ValueError("die_size must be positive")
        if self.levels <= 0:
            raise ValueError("levels must be positive")
        if self.sink_capacitance < 0 or self.wire_capacitance_per_meter < 0:
            raise ValueError("capacitances must be non-negative")

    def total_wire_length(self) -> float:
        """Total H-tree wire length [m]."""
        length = 0.0
        segment = self.die_size / 2.0
        branches = 1
        for _ in range(self.levels):
            length += branches * segment
            branches *= 4
            segment /= 2.0
        return length

    def switched_capacitance(self) -> float:
        """Capacitance charged every clock cycle [F]."""
        wire = self.total_wire_length() * self.wire_capacitance_per_meter
        return wire * (1.0 + self.buffer_overhead) + self.sink_capacitance

    def power(self, frequency: float) -> float:
        """Dynamic clock distribution power at ``frequency`` [W]."""
        if frequency <= 0:
            raise ValueError("frequency must be positive")
        return self.switched_capacitance() * self.supply_voltage ** 2 * frequency


@dataclass(frozen=True)
class OpticalClockDistribution:
    """Optical broadcast clock: one emitter, many SPAD-based local receivers.

    Attributes
    ----------
    regions:
        Number of independently clocked regions, each with its own SPAD
        receiver and local regeneration (a small local buffer tree is still
        charged electrically, captured by ``local_capacitance``).
    local_capacitance:
        Clocked capacitance regenerated locally within one region [F].
    supply_voltage:
        Local regeneration swing [V].
    photons_per_edge:
        Mean photons that must reach each receiver per clock edge for reliable
        detection.
    """

    regions: int = 64
    local_capacitance: float = 2e-12
    supply_voltage: float = 1.0
    photons_per_edge: float = 30.0
    emitter_driver: LedDriver = LedDriver()
    receiver_quenching: QuenchingCircuit = QuenchingCircuit(dead_time=2e-9)

    def __post_init__(self) -> None:
        if self.regions <= 0:
            raise ValueError("regions must be positive")
        if self.local_capacitance < 0:
            raise ValueError("local_capacitance must be non-negative")
        if self.photons_per_edge <= 0:
            raise ValueError("photons_per_edge must be positive")

    def receiver_power(self, frequency: float) -> float:
        """Power of all SPAD receivers + local regeneration at ``frequency`` [W]."""
        if frequency <= 0:
            raise ValueError("frequency must be positive")
        quench = self.receiver_quenching.energy_per_detection() * frequency
        local = self.local_capacitance * self.supply_voltage ** 2 * frequency
        return self.regions * (quench + local)

    def emitter_power(self, frequency: float, drive_current: float = 5e-3,
                      pulse_width: float = 200e-12) -> float:
        """Power of the single broadcast emitter at ``frequency`` [W]."""
        if frequency <= 0:
            raise ValueError("frequency must be positive")
        return self.emitter_driver.average_power(drive_current, pulse_width, frequency)

    def power(self, frequency: float) -> float:
        """Total optical clock distribution power [W]."""
        return self.emitter_power(frequency) + self.receiver_power(frequency)

    def skew_bound(self, jitter_sigma: float = 80e-12) -> float:
        """Worst-case region-to-region skew, 3 sigma of the receiver jitter [s].

        Optical broadcast has no systematic wire-length skew; what remains is
        the uncorrelated detection jitter of each region's SPAD.
        """
        if jitter_sigma < 0:
            raise ValueError("jitter_sigma must be non-negative")
        return 6.0 * jitter_sigma  # +/- 3 sigma between two regions


@dataclass(frozen=True)
class ClockDistributionComparison:
    """Electrical-vs-optical clock distribution figures at one frequency."""

    frequency: float
    electrical_power: float
    optical_power: float

    @property
    def power_saving(self) -> float:
        """Fraction of the electrical clock power saved by going optical."""
        if self.electrical_power <= 0:
            raise ValueError("electrical_power must be positive")
        return 1.0 - self.optical_power / self.electrical_power

    def as_dict(self) -> Dict[str, float]:
        return {
            "frequency_hz": self.frequency,
            "electrical_power_w": self.electrical_power,
            "optical_power_w": self.optical_power,
            "power_saving_fraction": self.power_saving,
        }


def compare_clock_distribution(
    frequency: float = 200 * MHZ,
    tree: ElectricalClockTree = ElectricalClockTree(),
    optical: OpticalClockDistribution = OpticalClockDistribution(),
) -> ClockDistributionComparison:
    """Evaluate both clock distribution styles at ``frequency``."""
    return ClockDistributionComparison(
        frequency=frequency,
        electrical_power=tree.power(frequency),
        optical_power=optical.power(frequency),
    )
