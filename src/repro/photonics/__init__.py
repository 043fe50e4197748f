"""Optical source and channel substrate.

Models the transmitter half of the paper's link (GaN micro-LED with an
integrated CMOS driver) and the optical path between dies: through-silicon
propagation across thinned stacked dies, micro-optics coupling, Fresnel
interface losses and crosstalk between neighbouring channels.
"""

from repro import _lazy

__getattr__, __dir__ = _lazy.exports(__name__, {
    ".silicon": ("SiliconAbsorption", "silicon_absorption_coefficient"),
    ".led": ("MicroLed", "MicroLedConfig"),
    ".driver": ("LedDriver", "LedDriverConfig"),
    ".microoptics": ("MicroLens", "coupling_efficiency"),
    ".stack": ("DieLayer", "DieStack"),
    ".channel": ("OpticalChannel", "ChannelBudget"),
    ".crosstalk": ("CrosstalkModel",),
})

__all__ = [
    "SiliconAbsorption",
    "silicon_absorption_coefficient",
    "MicroLed",
    "MicroLedConfig",
    "LedDriver",
    "LedDriverConfig",
    "MicroLens",
    "coupling_efficiency",
    "DieLayer",
    "DieStack",
    "OpticalChannel",
    "ChannelBudget",
    "CrosstalkModel",
]
