"""Monte-Carlo utilities and reproducible randomness.

The stochastic parts of the link model (photon arrivals, SPAD avalanches,
afterpulsing, TDC sampling) are drawn in bulk by the link backends; this
package supplies the seeded random streams they draw from and the chunked
Monte-Carlo runner and trials the experiment layer compiles scenarios onto.
"""

from repro.simulation.randomness import RandomSource, split_seed
from repro.simulation.montecarlo import (
    TRAFFIC_PATTERNS,
    MonteCarloResult,
    MonteCarloRunner,
    NocTrafficTrial,
    link_batch_trial,
    link_symbol_error_trial,
)

__all__ = [
    "RandomSource",
    "split_seed",
    "MonteCarloRunner",
    "MonteCarloResult",
    "NocTrafficTrial",
    "TRAFFIC_PATTERNS",
    "link_batch_trial",
    "link_symbol_error_trial",
]
