"""Photon detection probability (PDP) of a CMOS SPAD.

The PDP is the probability that a photon impinging on the active area triggers
an avalanche.  It depends on the wavelength (through the absorption depth in
silicon relative to the multiplication region) and on the excess bias above
breakdown.  The default curve approximates the 0.8 um CMOS SPAD of
Niclass & Charbon (ISSCC 2005, ref [5] of the paper): peak PDP of ~35 % in the
blue/green, falling towards the red and near infrared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.units import NM


@dataclass(frozen=True)
class PdpCurve:
    """Piecewise-linear PDP versus wavelength, scaled by excess bias.

    Attributes
    ----------
    wavelengths:
        Sample wavelengths [m], strictly increasing.
    pdp_values:
        PDP at each sample wavelength (0..1) at the reference excess bias.
    reference_excess_bias:
        Excess bias at which ``pdp_values`` hold [V].
    bias_saturation:
        Excess bias at which the PDP saturates [V]; the bias dependence is
        modelled as ``1 - exp(-V_e / bias_saturation)`` normalised to the
        reference point.
    """

    wavelengths: Sequence[float]
    pdp_values: Sequence[float]
    reference_excess_bias: float = 3.3
    bias_saturation: float = 2.0

    def __post_init__(self) -> None:
        wl = np.asarray(self.wavelengths, dtype=float)
        pdp = np.asarray(self.pdp_values, dtype=float)
        if wl.ndim != 1 or wl.size < 2:
            raise ValueError("need at least two wavelength samples")
        if wl.size != pdp.size:
            raise ValueError("wavelengths and pdp_values must have the same length")
        if np.any(np.diff(wl) <= 0):
            raise ValueError("wavelengths must be strictly increasing")
        if np.any((pdp < 0) | (pdp > 1)):
            raise ValueError("PDP values must lie within [0, 1]")
        if self.reference_excess_bias <= 0:
            raise ValueError("reference_excess_bias must be positive")
        if self.bias_saturation <= 0:
            raise ValueError("bias_saturation must be positive")

    def _bias_scale(self, excess_bias: float) -> float:
        if excess_bias < 0:
            raise ValueError(f"excess_bias must be non-negative, got {excess_bias}")
        reference = 1.0 - np.exp(-self.reference_excess_bias / self.bias_saturation)
        actual = 1.0 - np.exp(-excess_bias / self.bias_saturation)
        return float(actual / reference)

    def pdp(self, wavelength: float, excess_bias: float | None = None) -> float:
        """PDP at ``wavelength`` [m] and optional excess bias [V].

        Wavelengths outside the sampled span clamp to the end values (the PDP
        is effectively zero well outside the visible range, which the default
        curve encodes explicitly).
        """
        if wavelength <= 0:
            raise ValueError(f"wavelength must be positive, got {wavelength}")
        wl = np.asarray(self.wavelengths, dtype=float)
        values = np.asarray(self.pdp_values, dtype=float)
        base = float(np.interp(wavelength, wl, values))
        if excess_bias is None:
            return base
        return float(np.clip(base * self._bias_scale(excess_bias), 0.0, 1.0))

    def peak(self) -> tuple[float, float]:
        """Return ``(wavelength, pdp)`` of the maximum of the curve."""
        values = np.asarray(self.pdp_values, dtype=float)
        index = int(np.argmax(values))
        return float(np.asarray(self.wavelengths)[index]), float(values[index])


def default_cmos_pdp() -> PdpCurve:
    """PDP curve approximating the ref [5] CMOS SPAD (0.8 um technology)."""
    wavelengths = np.array([350, 400, 450, 500, 550, 600, 650, 700, 750, 800, 850, 900]) * NM
    pdp = np.array([0.05, 0.18, 0.30, 0.35, 0.33, 0.28, 0.22, 0.16, 0.11, 0.07, 0.04, 0.02])
    return PdpCurve(wavelengths=tuple(wavelengths), pdp_values=tuple(pdp))
