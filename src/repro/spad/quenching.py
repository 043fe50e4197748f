"""Quenching circuit model.

After an avalanche the diode must be quenched (the bias brought below
breakdown) and then recharged above breakdown before it can detect again.
The time during which the SPAD is blind is the **dead time**; the paper calls
the dead time plus the subsequent ready period the *detection cycle* and
matches it to the TDC range (``DC(N, C) = 2^C · N · δ``).

Passive quenching uses a large ballast resistor (slow recharge, dead time set
by an RC constant); active quenching uses a feedback circuit that forcibly
quenches and recharges the diode, giving a well-controlled, programmable dead
time — which is what the link model assumes when it matches DC to the TDC
range.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.analysis.units import NS


class QuenchingMode(enum.Enum):
    """Quenching styles supported by the model."""

    PASSIVE = "passive"
    ACTIVE = "active"


@dataclass(frozen=True)
class QuenchingCircuit:
    """Dead-time generator for a SPAD front end.

    Attributes
    ----------
    mode:
        Passive or active quenching.
    dead_time:
        Programmed dead time for active quenching, or the 5·RC recovery time
        for passive quenching [s].
    recharge_constant:
        RC recharge constant used by the passive model to compute the
        probability of detecting during partial recharge [s].
    avalanche_charge:
        Charge flowing per avalanche [C]; used for the power model.
    excess_bias:
        Excess bias restored after recharge [V].
    """

    mode: QuenchingMode = QuenchingMode.ACTIVE
    dead_time: float = 32.0 * NS
    recharge_constant: float = 10.0 * NS
    avalanche_charge: float = 0.3e-12
    excess_bias: float = 3.3
    #: Minimum physical quench + recharge time [s].  An actively gated front
    #: end can re-arm the SPAD this soon after an avalanche (at the start of
    #: the next measurement window), at the cost of a higher observable
    #: afterpulsing probability; the programmed ``dead_time`` is the hold used
    #: in free-running operation.
    gate_recovery: float = 5.0 * NS

    def __post_init__(self) -> None:
        if self.dead_time <= 0:
            raise ValueError("dead_time must be positive")
        if self.recharge_constant <= 0:
            raise ValueError("recharge_constant must be positive")
        if self.avalanche_charge < 0:
            raise ValueError("avalanche_charge must be non-negative")
        if self.gate_recovery <= 0:
            raise ValueError("gate_recovery must be positive")

    @property
    def effective_gate_recovery(self) -> float:
        """Physical minimum re-arm time, never longer than the programmed dead time [s]."""
        return min(self.gate_recovery, self.dead_time)

    def detection_efficiency_factor(self, elapsed_since_fire: float) -> float:
        """Relative detection efficiency during/after recharge (0..1).

        Active quenching is modelled as a hard gate (0 during dead time, 1
        after).  Passive quenching recovers exponentially after the dead time
        as the excess bias is restored.
        """
        if elapsed_since_fire < 0:
            raise ValueError("elapsed_since_fire must be non-negative")
        if elapsed_since_fire < self.dead_time:
            return 0.0
        if self.mode is QuenchingMode.ACTIVE:
            return 1.0
        recovery = elapsed_since_fire - self.dead_time
        return float(1.0 - np.exp(-recovery / self.recharge_constant))

    def max_count_rate(self) -> float:
        """Saturated count rate imposed by the dead time [counts/s]."""
        return 1.0 / self.dead_time

    def energy_per_detection(self) -> float:
        """Electrical energy dissipated per avalanche [J].

        Approximated as the avalanche charge times the excess bias plus the
        recharge of the same charge — i.e. ``2 · Q · V_e``.
        """
        return 2.0 * self.avalanche_charge * self.excess_bias

    def average_power(self, count_rate: float) -> float:
        """Average quenching power at a given detection rate [W]."""
        if count_rate < 0:
            raise ValueError("count_rate must be non-negative")
        effective_rate = min(count_rate, self.max_count_rate())
        return self.energy_per_detection() * effective_rate

    def with_dead_time(self, dead_time: float) -> "QuenchingCircuit":
        """Copy of this circuit with a different programmed dead time."""
        return QuenchingCircuit(
            mode=self.mode,
            dead_time=dead_time,
            recharge_constant=self.recharge_constant,
            avalanche_charge=self.avalanche_charge,
            excess_bias=self.excess_bias,
            gate_recovery=min(self.gate_recovery, dead_time),
        )
