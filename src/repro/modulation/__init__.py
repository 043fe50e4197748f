"""Modulation substrate.

Pulse-position modulation (PPM) is the paper's chosen line code: K bits are
encoded as the position of a single optical pulse within 2^K time slots of a
range R, which lets the link amortise the SPAD's long detection cycle over
several bits per detected photon.  The subpackage also provides the
symbol/bit primitives the codec is built on and on-off keying, the ablation
baseline PPM is compared against.
"""

from repro import _lazy

__getattr__, __dir__ = _lazy.exports(__name__, {
    ".symbols": ("SlotGrid", "bits_to_int", "int_to_bits"),
    ".ppm": ("PpmCodec", "PpmSymbol"),
    ".line_coding": ("OnOffKeyingCodec",),
})

__all__ = [
    "SlotGrid",
    "bits_to_int",
    "int_to_bits",
    "PpmCodec",
    "PpmSymbol",
    "OnOffKeyingCodec",
]
