"""Optical source and channel substrate.

Models the transmitter half of the paper's link (GaN micro-LED with an
integrated CMOS driver) and the optical path between dies: through-silicon
propagation across thinned stacked dies, micro-optics coupling, Fresnel
interface losses and crosstalk between neighbouring channels.
"""

from repro.photonics.silicon import SiliconAbsorption, silicon_absorption_coefficient
from repro.photonics.led import MicroLed, MicroLedConfig
from repro.photonics.driver import LedDriver, LedDriverConfig
from repro.photonics.microoptics import MicroLens, coupling_efficiency
from repro.photonics.stack import DieLayer, DieStack
from repro.photonics.channel import OpticalChannel, ChannelBudget
from repro.photonics.crosstalk import CrosstalkModel

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
