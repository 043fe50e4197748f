"""Area model of the optical transceiver versus a conventional pad.

The paper's pitch is that the whole optical channel — micro-LED, driver, SPAD
and PPM/TDC logic — occupies "a fraction of the area of a pad", which is what
frees the die edge and enables the high communication density of Figure 1.
The numbers here are first-order layout estimates consistent with the cited
devices (ref [5] SPAD pixels, ref [7] micro-stripe LEDs) and a 70 um wire-bond
pad.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.units import UM
from repro.core.throughput import TdcDesign
from repro.electrical.pad import IoPad
from repro.photonics.driver import LedDriver
from repro.spad.device import SpadConfig

#: Layout area of one delay element plus its sampling flip-flop [m^2].
DELAY_ELEMENT_AREA = 3.0 * UM * 3.0 * UM
#: Area of the coarse counter, controller and PPM encode/decode logic [m^2].
CONTROL_LOGIC_AREA = 15.0 * UM * 15.0 * UM
#: Pixel pitch overhead around the SPAD active area (guard ring, quenching).
SPAD_PIXEL_PITCH = 25.0 * UM
#: Footprint of one micro-LED stripe including its contacts [m^2].
MICRO_LED_AREA = 20.0 * UM * 20.0 * UM


@dataclass(frozen=True)
class AreaBreakdown:
    """Silicon area of one optical transceiver channel."""

    emitter_area: float
    driver_area: float
    spad_area: float
    tdc_area: float

    def __post_init__(self) -> None:
        for name in ("emitter_area", "driver_area", "spad_area", "tdc_area"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def transmitter_area(self) -> float:
        return self.emitter_area + self.driver_area

    @property
    def receiver_area(self) -> float:
        return self.spad_area + self.tdc_area

    @property
    def total_area(self) -> float:
        return self.transmitter_area + self.receiver_area

    def as_dict(self) -> Dict[str, float]:
        return {
            "emitter_area_m2": self.emitter_area,
            "driver_area_m2": self.driver_area,
            "spad_area_m2": self.spad_area,
            "tdc_area_m2": self.tdc_area,
            "total_area_m2": self.total_area,
        }


def link_area(
    tdc_design: Optional[TdcDesign] = None,
    spad_config: Optional[SpadConfig] = None,
    driver: Optional[LedDriver] = None,
) -> AreaBreakdown:
    """Estimate the silicon area of one complete optical channel."""
    design = tdc_design if tdc_design is not None else TdcDesign()
    led_driver = driver if driver is not None else LedDriver()
    spad = spad_config if spad_config is not None else SpadConfig()

    tdc_area = design.fine_elements * DELAY_ELEMENT_AREA + CONTROL_LOGIC_AREA
    spad_area = max(SPAD_PIXEL_PITCH ** 2, spad.active_area / spad.fill_factor)
    return AreaBreakdown(
        emitter_area=MICRO_LED_AREA,
        driver_area=led_driver.area,
        spad_area=spad_area,
        tdc_area=tdc_area,
    )


def pad_area_comparison(
    tdc_design: Optional[TdcDesign] = None,
    pad: Optional[IoPad] = None,
) -> Dict[str, float]:
    """Compare the optical channel's area against a conventional wire-bond pad.

    ``optical_over_pad`` below 1 supports the paper's "fraction of the area of
    a pad" claim; the per-side figures let the examples report transmitter and
    receiver separately (they sit on different dies).
    """
    electrical = pad if pad is not None else IoPad()
    optical = link_area(tdc_design=tdc_design)
    return {
        "optical_total_area_m2": optical.total_area,
        "optical_transmitter_area_m2": optical.transmitter_area,
        "optical_receiver_area_m2": optical.receiver_area,
        "pad_area_m2": electrical.area,
        "optical_over_pad": optical.total_area / electrical.area,
        "transmitter_over_pad": optical.transmitter_area / electrical.area,
        "receiver_over_pad": optical.receiver_area / electrical.area,
    }


def channel_density_per_mm2(tdc_design: Optional[TdcDesign] = None) -> float:
    """How many complete optical channels fit in one square millimetre."""
    breakdown = link_area(tdc_design=tdc_design)
    return 1e-6 / breakdown.total_area
