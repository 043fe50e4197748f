"""Dark count rate (DCR) model.

Dark counts are avalanches triggered by thermally or tunnelling-generated
carriers instead of photons.  For the PPM link they are a source of spurious
time-of-arrival measurements: a dark count landing inside the measurement
window before the signal photon corrupts the decoded symbol.  The DCR roughly
doubles every 8-10 degC (thermal generation) and grows with excess bias.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class DarkCountModel:
    """Dark count rate versus temperature and excess bias.

    Attributes
    ----------
    rate_at_reference:
        DCR at the reference temperature and excess bias [counts/s].
    reference_temperature:
        Temperature at which ``rate_at_reference`` holds [degC].
    doubling_temperature:
        Temperature increase that doubles the DCR [degC].
    reference_excess_bias:
        Excess bias at which ``rate_at_reference`` holds [V].
    bias_slope:
        Relative DCR increase per volt of extra excess bias.
    """

    rate_at_reference: float = 200.0
    reference_temperature: float = 20.0
    doubling_temperature: float = 9.0
    reference_excess_bias: float = 3.3
    bias_slope: float = 0.3

    def __post_init__(self) -> None:
        if self.rate_at_reference < 0:
            raise ValueError("rate_at_reference must be non-negative")
        if self.doubling_temperature <= 0:
            raise ValueError("doubling_temperature must be positive")

    def rate(self, temperature: Optional[float] = None, excess_bias: Optional[float] = None) -> float:
        """DCR at the given operating point [counts/s]."""
        if temperature is None:
            temperature = self.reference_temperature
        if excess_bias is None:
            excess_bias = self.reference_excess_bias
        if excess_bias < 0:
            raise ValueError("excess_bias must be non-negative")
        thermal = 2.0 ** ((temperature - self.reference_temperature) / self.doubling_temperature)
        bias = max(0.0, 1.0 + self.bias_slope * (excess_bias - self.reference_excess_bias))
        return self.rate_at_reference * thermal * bias

    def expected_counts(self, window: float, temperature: Optional[float] = None,
                        excess_bias: Optional[float] = None) -> float:
        """Mean number of dark counts inside a window of ``window`` seconds."""
        if window < 0:
            raise ValueError("window must be non-negative")
        return self.rate(temperature, excess_bias) * window

    def probability_in_window(self, window: float, temperature: Optional[float] = None,
                              excess_bias: Optional[float] = None) -> float:
        """Probability of at least one dark count in ``window`` (Poisson)."""
        mean = self.expected_counts(window, temperature, excess_bias)
        return float(1.0 - np.exp(-mean))
