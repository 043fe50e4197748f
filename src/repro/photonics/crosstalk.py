"""Optical crosstalk between neighbouring channels.

When many vertical channels run in parallel (the "communication density"
argument of the paper), light from one emitter can spill onto the SPAD of an
adjacent channel.  The model is geometric: the beam of a channel spreads with
distance, and the fraction of its power landing on a neighbour at pitch ``p``
falls off with the square of the ratio of detector size to beam offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=128)
def _cached_coupling_profile(model: "CrosstalkModel", channels: int) -> np.ndarray:
    fraction = model._capture_fractions(np.arange(channels) * model.channel_pitch)
    profile = fraction / fraction[0]
    profile[0] = 1.0
    profile.setflags(write=False)
    return profile


@lru_cache(maxsize=128)
def _cached_crosstalk_matrix(model: "CrosstalkModel", channels: int) -> np.ndarray:
    profile = _cached_coupling_profile(model, channels)
    indices = np.arange(channels)
    matrix = profile[np.abs(indices[:, None] - indices[None, :])]
    matrix.setflags(write=False)
    return matrix


@dataclass(frozen=True)
class CrosstalkModel:
    """First-order optical crosstalk between parallel channels.

    Two unit conventions coexist, deliberately:

    * the scalar helpers (:meth:`coupling`,
      :meth:`nearest_neighbour_crosstalk`, :meth:`minimum_pitch_for_isolation`)
      work in *absolute* capture fractions — the share of a channel's total
      emitted power a detector collects;
    * the array-facing quantities (:meth:`crosstalk_matrix`,
      :meth:`coupling_profile`, :meth:`aggregate_interference`) are
      *normalised to the own-channel capture* (unit diagonal) — the relative
      interference budget the multichannel link engine injects, independent
      of how much of the beam the detector geometrically collects.

    ``matrix[i, j] == coupling(|i-j| * pitch) / coupling(0)`` ties the two
    together (locked by ``tests/test_photonics_crosstalk.py``).

    Attributes
    ----------
    channel_pitch:
        Centre-to-centre spacing of adjacent channels [m].
    beam_diameter:
        Beam spot diameter at the detector plane [m].
    detector_diameter:
        Diameter of the SPAD active area [m].
    floor:
        Residual scattered-light crosstalk floor (absolute fraction of
        channel power) that does not decrease with pitch.
    """

    channel_pitch: float = 50e-6
    beam_diameter: float = 20e-6
    detector_diameter: float = 8e-6
    floor: float = 1e-5

    def __post_init__(self) -> None:
        # Written so that NaN fails them too.
        if not self.channel_pitch > 0:
            raise ValueError("channel_pitch must be positive")
        if not self.beam_diameter > 0:
            raise ValueError("beam_diameter must be positive")
        if not self.detector_diameter > 0:
            raise ValueError("detector_diameter must be positive")
        if not 0 <= self.floor < 1:
            raise ValueError("floor must be within [0, 1)")

    def _capture_fractions(self, distances: np.ndarray) -> np.ndarray:
        """Absolute capture fraction versus centre distance (vectorised).

        The single home of the beam-capture math: Gaussian irradiance at the
        detector centre integrated over the detector area, clamped to 1, with
        the scattered-light floor applied at non-zero distances.  Every
        coupling quantity — scalar or matrix — derives from this.
        """
        sigma = self.beam_diameter / 2.355  # FWHM -> sigma
        detector_area = math.pi * (self.detector_diameter / 2.0) ** 2
        # Gaussian irradiance at the neighbour centre, normalised to total power 1.
        peak = 1.0 / (2.0 * math.pi * sigma ** 2)
        fraction = np.minimum(
            1.0, peak * np.exp(-(distances ** 2) / (2.0 * sigma ** 2)) * detector_area
        )
        return np.where(distances > 0, np.maximum(fraction, self.floor), fraction)

    def coupling(self, neighbour_distance: float) -> float:
        """Fraction of a channel's optical power captured by a detector at ``neighbour_distance``.

        Distance zero means the channel's own detector: the Gaussian-beam
        capture fraction is returned.  For non-zero distances the Gaussian
        tail at the neighbour's position is integrated over the detector area.
        """
        if neighbour_distance < 0:
            raise ValueError("neighbour_distance must be non-negative")
        return float(self._capture_fractions(np.asarray(neighbour_distance, dtype=float)))

    def nearest_neighbour_crosstalk(self) -> float:
        """Crosstalk fraction onto the nearest neighbouring channel."""
        return self.coupling(self.channel_pitch)

    def coupling_profile(self, channels: int) -> np.ndarray:
        """Relative coupling versus channel distance for a linear array.

        Entry ``d`` is the power a detector captures from a channel ``d``
        pitches away, *relative to the power it captures from its own channel*
        (``coupling(d * pitch) / coupling(0)``), so the profile starts at
        exactly 1.0 and decays monotonically to the scattered-light floor.
        This is the quantity the multichannel link engine injects as
        per-neighbour photon budgets — and, by construction, row ``i`` of
        :meth:`crosstalk_matrix` is ``profile[|i - j|]``.

        Profiles are memoised per ``(model, channels)`` (the dataclass is
        frozen, hence hashable) and returned read-only: multichannel chunks
        rebuild the same geometry for every call otherwise.
        """
        if channels <= 0:
            raise ValueError("channels must be positive")
        return _cached_coupling_profile(self, channels)

    def crosstalk_matrix(self, channels: int) -> np.ndarray:
        """``channels x channels`` relative power-coupling matrix of a linear array.

        Entry ``(i, j)`` is the fraction of channel ``j``'s power that lands on
        detector ``i``, normalised to the power a detector captures from its
        own channel — so the matrix is symmetric, has a unit diagonal, and its
        off-diagonal entries decay monotonically with pitch down to the
        scattered-light floor.  The multichannel link engine consumes this
        coupling (via :meth:`coupling_profile`, which holds one row's distance
        dependence) to size per-neighbour interference photon budgets.

        Memoised per ``(model, channels)`` like :meth:`coupling_profile`; the
        returned array is read-only — copy before mutating.
        """
        if channels <= 0:
            raise ValueError("channels must be positive")
        return _cached_crosstalk_matrix(self, channels)

    def aggregate_interference(self, channels: int, victim: int) -> float:
        """Total crosstalk power landing on ``victim``, relative to its own channel."""
        matrix = self.crosstalk_matrix(channels)
        row = matrix[victim].copy()
        row[victim] = 0.0
        return float(row.sum())

    def minimum_pitch_for_isolation(self, isolation_db: float) -> float:
        """Smallest channel pitch achieving the requested isolation [m]."""
        if isolation_db <= 0:
            raise ValueError("isolation_db must be positive")
        target = 10.0 ** (-isolation_db / 10.0)
        if target <= self.floor:
            raise ValueError(
                f"requested isolation {isolation_db} dB is below the scattered-light floor"
            )
        sigma = self.beam_diameter / 2.355
        detector_area = math.pi * (self.detector_diameter / 2.0) ** 2
        peak = detector_area / (2.0 * math.pi * sigma ** 2)
        if target >= peak:
            return 0.0
        return float(sigma * math.sqrt(2.0 * math.log(peak / target)))
