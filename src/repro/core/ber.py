"""Bit error rate estimation — analytic and Monte-Carlo.

Two independent estimators of the same quantity:

* :func:`analytic_bit_error_rate` evaluates the closed-form error budget of
  :mod:`repro.core.error_model`;
* :func:`monte_carlo_bit_error_rate` pushes random payloads through a full
  stochastic link — built via the backend registry of
  :mod:`repro.core.backend` — and counts disagreements.

The benchmarks use the Monte-Carlo estimate and report the analytic value next
to it as a sanity check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.statistics import binomial_confidence_95
from repro.core.backend import make_link
from repro.core.config import LinkConfig
from repro.core.error_model import symbol_error_budget
from repro.simulation.randomness import RandomSource


def analytic_bit_error_rate(config: LinkConfig, **model_overrides) -> float:
    """Closed-form BER estimate for a link configuration.

    ``model_overrides`` are forwarded to
    :func:`repro.core.error_model.symbol_error_budget` (e.g. a custom jitter
    model).
    """
    budget = symbol_error_budget(config, **model_overrides)
    return budget.bit_error_rate(config.ppm_bits)


@dataclass(frozen=True)
class BerEstimate:
    """Monte-Carlo BER estimate with its statistical quality."""

    bit_errors: int
    bits_simulated: int

    def __post_init__(self) -> None:
        if self.bits_simulated <= 0:
            raise ValueError("bits_simulated must be positive")
        if not 0 <= self.bit_errors <= self.bits_simulated:
            raise ValueError("bit_errors must be within [0, bits_simulated]")

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits_simulated

    @property
    def confidence_95(self) -> float:
        """Half width of the 95 % binomial confidence interval (normal approx.).

        When zero errors were observed, returns the 95 % upper bound
        ``3 / bits_simulated`` ("rule of three").
        """
        return binomial_confidence_95(self.bit_errors, self.bits_simulated)


def monte_carlo_bit_error_rate(
    config: LinkConfig,
    bits: int = 10_000,
    seed: int = 0,
    backend: Optional[str] = None,
) -> BerEstimate:
    """Estimate the BER by simulating ``bits`` random payload bits end to end.

    ``backend`` selects a registered link backend by name (see
    :mod:`repro.core.backend`; :func:`~repro.core.backend.make_link` is the
    only way links are constructed): ``"batch"`` — the default — runs the
    vectorised engine, ``"scalar"`` the symbol-by-symbol link.  Backends are
    statistically equivalent but not draw-for-draw identical.
    """
    if bits <= 0:
        raise ValueError("bits must be positive")
    # Round up to a whole number of symbols.
    symbols = -(-bits // config.ppm_bits)
    total_bits = symbols * config.ppm_bits
    source = RandomSource(seed)
    payload = source.generator.integers(0, 2, size=total_bits)
    link = make_link(config, backend=backend, seed=seed + 1)
    result = link.transmit_bits(payload)
    return BerEstimate(bit_errors=result.bit_errors, bits_simulated=total_bits)
