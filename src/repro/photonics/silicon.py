"""Optical absorption of silicon.

The paper's vertical optical bus transmits light *through* thinned silicon
dies and relies on the "low absorption coefficients of silicon in the visible
spectrum" (more precisely: absorption drops steeply towards the red/near
infrared, so thinned dies of a few tens of micrometres transmit a useful
fraction of red/NIR light).  This module provides the absorption coefficient
versus wavelength (piecewise log-linear fit to standard room-temperature bulk
silicon data) and Beer–Lambert transmission helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.units import NM

# Wavelength [m] and absorption coefficient [1/m] sample points for crystalline
# silicon at 300 K (order-of-magnitude fit to standard tabulations; the link
# model only needs the steep visible→NIR slope to be right).
_WAVELENGTHS = np.array([400, 450, 500, 550, 600, 650, 700, 750, 800, 850, 900, 950, 1000, 1050, 1100]) * NM
_ALPHA = np.array(
    [9.5e6, 2.6e6, 1.1e6, 7.0e5, 4.2e5, 2.8e5, 1.9e5, 1.3e5, 8.5e4, 5.4e4, 3.1e4, 1.6e4, 6.4e3, 1.7e3, 3.5e2]
)


def silicon_absorption_coefficient(wavelength: float) -> float:
    """Absorption coefficient of bulk silicon at ``wavelength`` [1/m].

    Interpolates log-linearly between tabulated points; wavelengths outside
    the table clamp to the end values.
    """
    if wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    log_alpha = np.interp(wavelength, _WAVELENGTHS, np.log(_ALPHA))
    return float(np.exp(log_alpha))


@dataclass(frozen=True)
class SiliconAbsorption:
    """Beer–Lambert propagation through a slab of silicon.

    Attributes
    ----------
    wavelength:
        Operating wavelength [m].
    temperature_coefficient:
        Relative increase of the absorption coefficient per kelvin above the
        reference (absorption grows slightly with temperature).
    reference_temperature:
        Temperature at which the tabulated coefficients hold [degC].
    """

    wavelength: float
    temperature_coefficient: float = 2.0e-3
    reference_temperature: float = 27.0

    def __post_init__(self) -> None:
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")

    def absorption_coefficient(self, temperature: float | None = None) -> float:
        """Absorption coefficient at the operating point [1/m]."""
        alpha = silicon_absorption_coefficient(self.wavelength)
        if temperature is None:
            return alpha
        scale = 1.0 + self.temperature_coefficient * (temperature - self.reference_temperature)
        return alpha * max(scale, 0.0)

    def transmission(self, thickness: float, temperature: float | None = None) -> float:
        """Fraction of optical power transmitted through ``thickness`` metres of silicon."""
        if thickness < 0:
            raise ValueError("thickness must be non-negative")
        return float(np.exp(-self.absorption_coefficient(temperature) * thickness))

    def penetration_depth(self, temperature: float | None = None) -> float:
        """1/e penetration depth [m]."""
        return 1.0 / self.absorption_coefficient(temperature)

    def max_thickness_for_transmission(self, minimum_transmission: float,
                                        temperature: float | None = None) -> float:
        """Largest silicon thickness keeping transmission above a threshold [m]."""
        if not 0 < minimum_transmission < 1:
            raise ValueError("minimum_transmission must be within (0, 1)")
        return float(-np.log(minimum_transmission) / self.absorption_coefficient(temperature))


def fresnel_interface_transmission(n1: float = 1.0, n2: float = 3.5) -> float:
    """Normal-incidence Fresnel power transmission between two refractive indices.

    Silicon/air interfaces lose ~30 % per uncoated crossing; the die stack
    model applies this at every boundary (or a smaller loss when an AR coating
    or index-matching underfill is assumed).
    """
    if n1 <= 0 or n2 <= 0:
        raise ValueError("refractive indices must be positive")
    reflectance = ((n1 - n2) / (n1 + n2)) ** 2
    return 1.0 - reflectance
