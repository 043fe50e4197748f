"""Optical link budget over the die stack.

Closes the photon budget of a vertical channel: starting from a target
detection probability at the SPAD, work backwards through the channel losses
(stack absorption, interfaces, coupling) to the photons — and hence the drive
current and pulse energy — the micro-LED must emit.  The TXT-STACK benchmark
uses this to find how many thinned dies a single emitter can shine through
before the budget no longer closes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.photonics.channel import OpticalChannel
from repro.photonics.led import MicroLed, MicroLedConfig
from repro.spad.pdp import PdpCurve, default_cmos_pdp


def photons_for_detection_probability(target_probability: float, pdp: float) -> float:
    """Mean photons per pulse needed to reach a target detection probability.

    Inverts ``1 - exp(-pdp · photons)``, the probability that a Poisson pulse
    triggers a detector with efficiency ``pdp``.
    """
    if not 0 < target_probability < 1:
        raise ValueError("target_probability must be within (0, 1)")
    if not 0 < pdp <= 1:
        raise ValueError("pdp must be within (0, 1]")
    return float(-np.log(1.0 - target_probability) / pdp)


@dataclass(frozen=True)
class LinkBudget:
    """Result of closing (or failing to close) the optical budget of one channel."""

    target_detection_probability: float
    photons_at_detector: float
    channel_transmission: float
    photons_at_source: float
    required_drive_current: Optional[float]
    closes: bool

    def margin_db(self, available_photons_at_source: float) -> float:
        """Optical margin in dB given an available emitted photon count."""
        if available_photons_at_source <= 0:
            raise ValueError("available_photons_at_source must be positive")
        if self.photons_at_source <= 0:
            raise ValueError("budget requires a positive source photon count")
        return float(10.0 * np.log10(available_photons_at_source / self.photons_at_source))

    def as_dict(self) -> Dict[str, float]:
        return {
            "target_detection_probability": self.target_detection_probability,
            "photons_at_detector": self.photons_at_detector,
            "channel_transmission": self.channel_transmission,
            "photons_at_source": self.photons_at_source,
            "required_drive_current_a": (
                float("nan") if self.required_drive_current is None else self.required_drive_current
            ),
            "closes": float(self.closes),
        }


def close_link_budget(
    channel: OpticalChannel,
    target_detection_probability: float = 0.999,
    pdp_curve: Optional[PdpCurve] = None,
    led: Optional[MicroLed] = None,
    pulse_width: float = 300e-12,
    excess_bias: float = 3.3,
    temperature: Optional[float] = None,
) -> LinkBudget:
    """Work the photon budget of ``channel`` backwards from the detector.

    The budget *closes* when the required LED drive current stays within the
    emitter's maximum rating.
    """
    if not 0 < target_detection_probability < 1:
        raise ValueError("target_detection_probability must be within (0, 1)")
    pdp_model = pdp_curve if pdp_curve is not None else default_cmos_pdp()
    # The default emitter is built at the channel's wavelength so that the
    # photon-energy bookkeeping is consistent end to end.
    emitter = led if led is not None else MicroLed(MicroLedConfig(wavelength=channel.wavelength))

    pdp = pdp_model.pdp(channel.wavelength, excess_bias)
    photons_at_detector = photons_for_detection_probability(target_detection_probability, pdp)
    transmission = channel.transmission(temperature)
    if transmission <= 0:
        return LinkBudget(
            target_detection_probability=target_detection_probability,
            photons_at_detector=photons_at_detector,
            channel_transmission=0.0,
            photons_at_source=float("inf"),
            required_drive_current=None,
            closes=False,
        )
    photons_at_source = photons_at_detector / transmission
    try:
        drive_current: Optional[float] = emitter.current_for_photons(photons_at_source, pulse_width)
        closes = True
    except ValueError:
        drive_current = None
        closes = False
    return LinkBudget(
        target_detection_probability=target_detection_probability,
        photons_at_detector=photons_at_detector,
        channel_transmission=transmission,
        photons_at_source=photons_at_source,
        required_drive_current=drive_current,
        closes=closes,
    )


def max_stack_depth(
    stack_builder,
    max_dies: int = 512,
    target_detection_probability: float = 0.999,
    **budget_kwargs,
) -> int:
    """Largest stack depth for which the worst-case channel budget still closes.

    ``stack_builder(die_count)`` must return a :class:`DieStack`; the worst
    case channel is bottom-to-top.  Uses a linear scan with early exit (the
    budget is monotone in depth).
    """
    if max_dies < 2:
        raise ValueError("max_dies must be at least 2")
    deepest = 1
    for count in range(2, max_dies + 1):
        stack = stack_builder(count)
        channel = OpticalChannel(
            stack=stack, source_layer=0, destination_layer=count - 1
        )
        budget = close_link_budget(
            channel, target_detection_probability=target_detection_probability, **budget_kwargs
        )
        if not budget.closes:
            break
        deepest = count
    return deepest
