"""Thinned die stacks for the vertical optical bus.

The paper's headline system claim is an "entirely optical through-chip bus
that could service hundreds of thinned stacked dies".  A vertical optical
channel from die ``i`` to die ``j`` crosses every intermediate die: each
crossing attenuates the light by the Beer–Lambert absorption of the thinned
silicon plus interface (Fresnel) losses at each boundary.

:class:`DieStack` keeps the geometry (per-die thickness, bond/underfill gaps)
and answers transmission queries between any two layers; the link budget and
the TXT-STACK benchmark are built on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.units import NM, UM
from repro.photonics.silicon import SiliconAbsorption, fresnel_interface_transmission


@dataclass(frozen=True)
class DieLayer:
    """One die in the stack.

    Attributes
    ----------
    name:
        Identifier of the die (e.g. ``"cpu"``, ``"mem3"``).
    thickness:
        Silicon thickness after thinning [m] (paper-era thinning: 10-50 um).
    interface_transmission:
        Power transmission of the bonding interface *above* this die (1.0 for
        an index-matched adhesive, ~0.7 for an uncoated silicon/air gap).
    """

    name: str
    thickness: float = 25.0 * UM
    interface_transmission: float = 0.95

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("die name must be non-empty")
        if self.thickness <= 0:
            raise ValueError("thickness must be positive")
        if not 0 < self.interface_transmission <= 1:
            raise ValueError("interface_transmission must be within (0, 1]")


class DieStack:
    """A vertical stack of thinned dies traversed by optical channels."""

    def __init__(self, layers: Sequence[DieLayer], wavelength: float = 850.0 * NM) -> None:
        if len(layers) == 0:
            raise ValueError("a die stack needs at least one layer")
        names = [layer.name for layer in layers]
        if len(set(names)) != len(names):
            raise ValueError("die names must be unique")
        self.layers: List[DieLayer] = list(layers)
        self.wavelength = wavelength
        self._absorption = SiliconAbsorption(wavelength=wavelength)

    # -- constructors ------------------------------------------------------------
    @classmethod
    def uniform(
        cls,
        count: int,
        thickness: float = 25.0 * UM,
        interface_transmission: float = 0.95,
        wavelength: float = 850.0 * NM,
    ) -> "DieStack":
        """Stack of ``count`` identical thinned dies."""
        if count <= 0:
            raise ValueError("count must be positive")
        layers = [
            DieLayer(name=f"die{i}", thickness=thickness, interface_transmission=interface_transmission)
            for i in range(count)
        ]
        return cls(layers, wavelength=wavelength)

    # -- geometry -----------------------------------------------------------------
    @property
    def die_count(self) -> int:
        return len(self.layers)

    def layer_index(self, name: str) -> int:
        for index, layer in enumerate(self.layers):
            if layer.name == name:
                return index
        raise KeyError(f"no die named {name!r} in the stack")

    def total_thickness(self) -> float:
        """Total silicon thickness of the stack [m]."""
        return float(sum(layer.thickness for layer in self.layers))

    # -- transmission ---------------------------------------------------------------
    def layer_transmission(self, index: int, temperature: Optional[float] = None) -> float:
        """Power transmission of one die crossing (bulk silicon + its interface)."""
        if not 0 <= index < self.die_count:
            raise IndexError(f"layer index {index} outside the stack")
        layer = self.layers[index]
        bulk = self._absorption.transmission(layer.thickness, temperature)
        return bulk * layer.interface_transmission

    def transmission(self, source: int, destination: int, temperature: Optional[float] = None) -> float:
        """End-to-end power transmission from die ``source`` to die ``destination``.

        The light crosses every die strictly between source and destination,
        plus the destination's own substrate is assumed already thinned for
        backside illumination, so only intermediate layers attenuate.  A
        source talking to itself (intra-chip channel) sees unity transmission
        from the stack (the horizontal channel loss is modelled elsewhere).
        """
        if not 0 <= source < self.die_count:
            raise IndexError(f"source index {source} outside the stack")
        if not 0 <= destination < self.die_count:
            raise IndexError(f"destination index {destination} outside the stack")
        if source == destination:
            return 1.0
        low, high = sorted((source, destination))
        product = 1.0
        for index in range(low + 1, high):
            product *= self.layer_transmission(index, temperature)
        # Interfaces at the two end dies (one exit and one entry surface).
        product *= fresnel_interface_transmission(3.5, 1.5) ** 2
        return product

    def transmission_profile(self, source: int = 0, temperature: Optional[float] = None) -> np.ndarray:
        """Transmission from ``source`` to every die in the stack."""
        return np.asarray(
            [self.transmission(source, dest, temperature) for dest in range(self.die_count)]
        )

    def worst_case_transmission(self, temperature: Optional[float] = None) -> float:
        """Transmission of the longest channel (bottom to top die)."""
        return self.transmission(0, self.die_count - 1, temperature)

    def max_reachable_dies(self, minimum_transmission: float, temperature: Optional[float] = None) -> int:
        """Largest number of stacked dies such that the worst channel stays above a floor.

        This is the quantitative version of the paper's "hundreds of thinned
        stacked dies" claim: it depends on the per-die transmission, i.e. on
        thinning and wavelength.
        """
        if not 0 < minimum_transmission < 1:
            raise ValueError("minimum_transmission must be within (0, 1)")
        per_die = self.layer_transmission(0, temperature)
        end_losses = fresnel_interface_transmission(3.5, 1.5) ** 2
        if per_die >= 1.0:
            raise ValueError("per-die transmission must be below 1")
        # (count - 2) intermediate dies are crossed in a stack of `count` dies.
        intermediate = np.log(minimum_transmission / end_losses) / np.log(per_die)
        return max(1, int(np.floor(intermediate)) + 2)
