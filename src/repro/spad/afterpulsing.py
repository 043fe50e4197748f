"""Afterpulsing model.

During an avalanche some carriers are captured by deep-level traps and
released later; if the release happens after the dead time has elapsed it can
re-trigger the SPAD, producing a spurious detection correlated with the
previous one.  The paper explicitly calls out afterpulse probability (together
with jitter) as the error source that forces the PPM range to be adapted to
the SPAD dead time.

The model is the standard single-trap exponential-release model: after each
avalanche the total afterpulse probability is ``probability`` and, conditioned
on an afterpulse occurring, the release delay measured from the avalanche is
exponential with time constant ``time_constant``.  Releases falling inside the
dead time are harmless (the SPAD is off); only releases after the dead time
produce a detection — which is why longer dead times (longer detection cycles)
suppress afterpulsing errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.units import NS


@dataclass(frozen=True)
class AfterpulsingModel:
    """Trap-release afterpulsing description.

    Attributes
    ----------
    probability:
        Total probability that a given avalanche is followed by an afterpulse
        (before accounting for the dead-time filtering).
    time_constant:
        Exponential time constant of the trap release [s].
    """

    probability: float = 0.02
    time_constant: float = 30.0 * NS

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be within [0, 1], got {self.probability}")
        if self.time_constant <= 0:
            raise ValueError("time_constant must be positive")

    def survival_after(self, delay: float) -> float:
        """Probability that a trap is still filled ``delay`` seconds after the avalanche."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return float(np.exp(-delay / self.time_constant))

    def effective_probability(self, dead_time: float) -> float:
        """Afterpulse probability *observable* after a dead time.

        Releases during the dead time are absorbed; only the fraction released
        later can re-trigger the device.
        """
        if dead_time < 0:
            raise ValueError("dead_time must be non-negative")
        return self.probability * self.survival_after(dead_time)

    def probability_in_window(self, dead_time: float, window: float) -> float:
        """Probability of an afterpulse landing inside ``[dead_time, dead_time + window)``."""
        if window < 0:
            raise ValueError("window must be non-negative")
        start = self.survival_after(dead_time)
        end = self.survival_after(dead_time + window)
        return self.probability * (start - end)
