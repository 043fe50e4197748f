"""End-to-end optical channel composition.

An :class:`OpticalChannel` chains the loss mechanisms between one micro-LED
and one SPAD: micro-optics coupling at the emitter, propagation through the
die stack (for vertical channels) or a free-space/guided horizontal path, and
the geometric capture at the detector.  The result is a single power
transmission figure plus a propagation delay, summarised in a
:class:`ChannelBudget` that the link-level analysis consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.analysis.units import NM, UM, linear_to_db
from repro.photonics.microoptics import MicroLens, coupling_efficiency
from repro.photonics.stack import DieStack

#: Effective refractive index used for the propagation delay through silicon.
SILICON_GROUP_INDEX = 3.6
SPEED_OF_LIGHT = 299792458.0


@dataclass(frozen=True)
class ChannelBudget:
    """Summary of an optical channel's loss contributions (power fractions)."""

    coupling: float
    propagation: float
    detector_capture: float

    def __post_init__(self) -> None:
        for name, value in (
            ("coupling", self.coupling),
            ("propagation", self.propagation),
            ("detector_capture", self.detector_capture),
        ):
            if not 0 <= value <= 1:
                raise ValueError(f"{name} must be within [0, 1], got {value}")

    @property
    def total_transmission(self) -> float:
        """Overall power transmission of the channel (0..1)."""
        return self.coupling * self.propagation * self.detector_capture

    @property
    def total_loss_db(self) -> float:
        """Overall channel loss in dB (positive number)."""
        if self.total_transmission == 0:
            return math.inf
        return -linear_to_db(self.total_transmission)

    def breakdown(self) -> dict:
        """Loss contributions in dB, keyed by mechanism."""
        def loss(value: float) -> float:
            return math.inf if value == 0 else -linear_to_db(value)

        return {
            "coupling_db": loss(self.coupling),
            "propagation_db": loss(self.propagation),
            "detector_capture_db": loss(self.detector_capture),
            "total_db": self.total_loss_db,
        }


class OpticalChannel:
    """One emitter-to-detector optical path.

    Parameters
    ----------
    stack:
        Die stack for vertical channels; ``None`` for an intra-chip
        (horizontal) channel.
    source_layer, destination_layer:
        Indices of the transmitting and receiving dies within the stack.
    source_diameter, detector_diameter:
        Emitting and receiving aperture diameters [m].
    lens:
        Optional micro-lens at the emitter.
    horizontal_distance:
        Lateral distance for intra-chip channels [m].
    excess_loss:
        Additional fixed loss (scattering, misalignment), as a power fraction
        (1.0 = no excess loss).
    """

    def __init__(
        self,
        stack: Optional[DieStack] = None,
        source_layer: int = 0,
        destination_layer: int = 0,
        source_diameter: float = 10.0 * UM,
        detector_diameter: float = 8.0 * UM,
        lens: Optional[MicroLens] = MicroLens(),
        horizontal_distance: float = 0.0,
        excess_loss: float = 0.9,
        wavelength: float = 650.0 * NM,
    ) -> None:
        if source_diameter <= 0 or detector_diameter <= 0:
            raise ValueError("apertures must be positive")
        if horizontal_distance < 0:
            raise ValueError("horizontal_distance must be non-negative")
        if not 0 < excess_loss <= 1:
            raise ValueError("excess_loss must be within (0, 1]")
        self.stack = stack
        self.source_layer = source_layer
        self.destination_layer = destination_layer
        self.source_diameter = source_diameter
        self.detector_diameter = detector_diameter
        self.lens = lens
        self.horizontal_distance = horizontal_distance
        self.excess_loss = excess_loss
        self.wavelength = stack.wavelength if stack is not None else wavelength

    # -- path geometry -------------------------------------------------------------
    def path_length(self) -> float:
        """Physical path length of the channel [m]."""
        if self.stack is None:
            return self.horizontal_distance
        low, high = sorted((self.source_layer, self.destination_layer))
        vertical = sum(layer.thickness for layer in self.stack.layers[low:high])
        return float(vertical) + self.horizontal_distance

    def propagation_delay(self) -> float:
        """Time of flight through the channel [s]."""
        if self.stack is None:
            return self.path_length() / SPEED_OF_LIGHT
        return self.path_length() * SILICON_GROUP_INDEX / SPEED_OF_LIGHT

    # -- budget -----------------------------------------------------------------------
    def budget(self, temperature: Optional[float] = None) -> ChannelBudget:
        """Compute the channel's loss budget at an operating temperature."""
        if self.stack is not None:
            propagation = self.stack.transmission(
                self.source_layer, self.destination_layer, temperature
            )
        else:
            propagation = 1.0
        capture = coupling_efficiency(
            source_diameter=self.source_diameter,
            detector_diameter=self.detector_diameter,
            distance=self.path_length(),
            lens=self.lens,
        )
        return ChannelBudget(
            coupling=self.excess_loss,
            propagation=propagation,
            detector_capture=capture,
        )

    def transmission(self, temperature: Optional[float] = None) -> float:
        """Overall power transmission of the channel (0..1)."""
        return self.budget(temperature).total_transmission

    def required_photons_at_source(self, photons_at_detector: float,
                                    temperature: Optional[float] = None) -> float:
        """Mean photons the LED must emit for a target mean at the SPAD."""
        if photons_at_detector < 0:
            raise ValueError("photons_at_detector must be non-negative")
        transmission = self.transmission(temperature)
        if transmission == 0:
            raise ValueError("channel transmission is zero; no photon budget closes")
        return photons_at_detector / transmission
