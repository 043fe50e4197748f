"""Monte-Carlo utilities and reproducible randomness.

The stochastic parts of the link model (photon arrivals, SPAD avalanches,
afterpulsing, TDC sampling) are drawn in bulk by the link backends; this
package supplies the seeded random streams they draw from, the chunk seeds
of a Monte-Carlo point (:func:`chunk_generators`) and its two trials,
:class:`LinkBatchTrial` (one PPM symbol through a link) and
:class:`NocTrafficTrial` (one packet over the bus), that the experiment
layer compiles scenarios onto.
"""

from repro import _lazy

__getattr__, __dir__ = _lazy.exports(__name__, {
    ".randomness": ("RandomSource", "split_seed"),
    ".montecarlo": (
        "TRAFFIC_PATTERNS", "LinkBatchTrial", "NocTrafficTrial", "chunk_generators",
    ),
})

__all__ = [
    "RandomSource",
    "split_seed",
    "chunk_generators",
    "LinkBatchTrial",
    "NocTrafficTrial",
    "TRAFFIC_PATTERNS",
]
