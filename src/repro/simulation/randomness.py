"""Random-number management.

All stochastic models draw from a :class:`RandomSource`, a thin wrapper over
``numpy.random.Generator`` (which the engines' bulk array draws use directly)
that adds the few checked draws of the TDC models (Bernoulli, Gaussian and
uniform arrays) and supports deterministic splitting so that independent
subsystems get independent but reproducible streams.
"""

from __future__ import annotations

import hashlib

import numpy as np


def split_seed(seed: int, label: str) -> int:
    """Derive a child seed deterministically from ``(seed, label)``.

    Two different labels always map to different (with overwhelming
    probability) child seeds, so subsystems seeded through ``split_seed`` are
    statistically independent yet reproducible.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RandomSource:
    """Seeded random source with the distributions needed by the link models."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._rng = np.random.default_rng(self._seed)

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator (for bulk vectorised draws)."""
        return self._rng

    def spawn(self, label: str) -> "RandomSource":
        """Create an independent child source identified by ``label``."""
        return RandomSource(split_seed(self._seed, label))

    # -- scalar draws ---------------------------------------------------------
    def bernoulli(self, probability: float) -> bool:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be within [0, 1], got {probability}")
        return bool(self._rng.random() < probability)

    # -- vectorised draws ------------------------------------------------------
    def normal_array(self, mean: float, std: float, size: int) -> np.ndarray:
        if std < 0:
            raise ValueError(f"std must be non-negative, got {std}")
        return self._rng.normal(mean, std, size=size)

    def uniform_array(self, low: float, high: float, size: int) -> np.ndarray:
        return self._rng.uniform(low, high, size=size)
