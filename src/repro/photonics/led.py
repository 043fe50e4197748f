"""Micro-LED optical source.

The paper's transmitter is a GaN micro-LED similar to the individually
addressable microstripe array of Zhang et al. (ref [7]), for which
sub-nanosecond optical pulses driven by CMOS drivers occupying a fraction of a
pad's area were demonstrated.  The model captures what the link analysis
needs: the L-I (light-current) characteristic, the emitted pulse energy and
shape for a given drive current and pulse width, and the conversion to a mean
photon count at the link wavelength.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.units import NM, PS, UM, photon_energy


@dataclass(frozen=True)
class MicroLedConfig:
    """Static parameters of a micro-LED stripe.

    Attributes
    ----------
    wavelength:
        Peak emission wavelength [m] (GaN micro-LEDs: 450-520 nm; the link can
        also assume red AlInGaP emitters for better silicon transparency).
    stripe_area:
        Emitting area of one stripe [m^2].
    threshold_current:
        Current below which emission is negligible [A].
    slope_efficiency:
        Optical power per ampere of drive current above threshold [W/A].
    max_current:
        Maximum drive current before saturation/damage [A].
    rise_time:
        10-90 % optical rise time [s]; sub-nanosecond per ref [7].
    extraction_efficiency:
        Fraction of generated photons that leave the chip surface.
    """

    wavelength: float = 650.0 * NM
    stripe_area: float = 10.0 * UM * 100.0 * UM
    threshold_current: float = 0.2e-3
    slope_efficiency: float = 0.05
    max_current: float = 20e-3
    rise_time: float = 300.0 * PS
    extraction_efficiency: float = 0.1

    def __post_init__(self) -> None:
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")
        if self.stripe_area <= 0:
            raise ValueError("stripe_area must be positive")
        if self.threshold_current < 0:
            raise ValueError("threshold_current must be non-negative")
        if self.slope_efficiency <= 0:
            raise ValueError("slope_efficiency must be positive")
        if self.max_current <= self.threshold_current:
            raise ValueError("max_current must exceed threshold_current")
        if not 0 < self.extraction_efficiency <= 1:
            raise ValueError("extraction_efficiency must be within (0, 1]")


class MicroLed:
    """Behavioural micro-LED emitter."""

    def __init__(self, config: MicroLedConfig = MicroLedConfig()) -> None:
        self.config = config

    # -- static characteristics ---------------------------------------------------
    def optical_power(self, drive_current: float) -> float:
        """Instantaneous optical output power at ``drive_current`` [W].

        Linear L-I characteristic above threshold, clamped at ``max_current``;
        zero below threshold.
        """
        if drive_current < 0:
            raise ValueError("drive_current must be non-negative")
        clamped = min(drive_current, self.config.max_current)
        if clamped <= self.config.threshold_current:
            return 0.0
        return (
            self.config.slope_efficiency
            * (clamped - self.config.threshold_current)
            * self.config.extraction_efficiency
        )

    def pulse_energy(self, drive_current: float, pulse_width: float) -> float:
        """Optical energy of a rectangular drive pulse [J].

        The finite rise time reduces the effective width by half a rise time
        on each edge (trapezoidal approximation); pulses much shorter than the
        rise time emit proportionally less energy.
        """
        if pulse_width <= 0:
            raise ValueError("pulse_width must be positive")
        effective_width = max(pulse_width - self.config.rise_time, 0.5 * pulse_width)
        return self.optical_power(drive_current) * effective_width

    def photons_per_pulse(self, drive_current: float, pulse_width: float) -> float:
        """Mean number of photons emitted per pulse."""
        return self.pulse_energy(drive_current, pulse_width) / photon_energy(self.config.wavelength)

    def minimum_pulse_width(self) -> float:
        """Shortest useful optical pulse (~ one rise time) [s]."""
        return self.config.rise_time

    def current_for_photons(
        self,
        photons: float,
        pulse_width: float,
    ) -> float:
        """Drive current needed to emit ``photons`` photons in ``pulse_width`` seconds.

        Raises :class:`ValueError` if the requirement exceeds ``max_current``.
        """
        if photons <= 0:
            raise ValueError("photons must be positive")
        if pulse_width <= 0:
            raise ValueError("pulse_width must be positive")
        energy_needed = photons * photon_energy(self.config.wavelength)
        effective_width = max(pulse_width - self.config.rise_time, 0.5 * pulse_width)
        power_needed = energy_needed / effective_width
        current = (
            power_needed / (self.config.slope_efficiency * self.config.extraction_efficiency)
            + self.config.threshold_current
        )
        if current > self.config.max_current:
            raise ValueError(
                f"required current {current:.3e} A exceeds max_current "
                f"{self.config.max_current:.3e} A"
            )
        return current

    def pulse_shape(self, drive_current: float, pulse_width: float, points: int = 64) -> np.ndarray:
        """Optical pulse power [W] sampled at ``points`` instants.

        A trapezoid over ``[0, pulse_width + rise_time]`` with the configured
        rise/fall time, peaking at :meth:`optical_power` of ``drive_current``.
        """
        if points < 2:
            raise ValueError("points must be at least 2")
        time = np.linspace(0.0, pulse_width + self.config.rise_time, points)
        rise = np.clip(time / self.config.rise_time, 0.0, 1.0)
        fall = np.clip((pulse_width + self.config.rise_time - time) / self.config.rise_time, 0.0, 1.0)
        shape = np.minimum(rise, fall)
        peak = self.optical_power(drive_current)
        return shape * peak
