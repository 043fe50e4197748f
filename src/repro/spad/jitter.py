"""SPAD timing jitter model.

The instant at which the avalanche crosses the comparator threshold fluctuates
from detection to detection.  The distribution is well described by a Gaussian
core (avalanche build-up statistics) plus an exponential tail (carriers
generated deep in the neutral region that diffuse into the multiplication
region).  Jitter directly limits how small a PPM slot can be: a detection
whose jitter exceeds half a slot is decoded as the wrong symbol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.units import PS
from repro.simulation.randomness import RandomSource


@dataclass(frozen=True)
class JitterModel:
    """Gaussian + exponential-tail timing jitter.

    Attributes
    ----------
    sigma:
        Standard deviation of the Gaussian core [s].
    tail_fraction:
        Fraction of detections that fall in the diffusion tail (0..1).
    tail_constant:
        Exponential time constant of the tail [s].
    """

    sigma: float = 80.0 * PS
    tail_fraction: float = 0.1
    tail_constant: float = 200.0 * PS

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if not 0.0 <= self.tail_fraction <= 1.0:
            raise ValueError("tail_fraction must be within [0, 1]")
        if self.tail_constant <= 0:
            raise ValueError("tail_constant must be positive")

    @property
    def fwhm(self) -> float:
        """Full width at half maximum of the Gaussian core [s]."""
        return 2.0 * np.sqrt(2.0 * np.log(2.0)) * self.sigma

    def rms(self) -> float:
        """Total RMS jitter including the tail contribution [s]."""
        core_var = self.sigma ** 2
        # Exponential tail: variance tau^2, mean tau (one-sided delay).
        tail_var = self.tail_constant ** 2 + self.tail_constant ** 2
        mixed = (1 - self.tail_fraction) * core_var + self.tail_fraction * tail_var
        return float(np.sqrt(mixed))

    def sample_array(self, random_source, size) -> np.ndarray:
        """Vectorised draw of jitter values [s].

        ``random_source`` may be a :class:`RandomSource` or a bare
        ``numpy.random.Generator`` (the multichannel batch pass hands the
        bulk generator straight through); ``size`` is an int or a shape tuple.
        """
        if any(dim < 0 for dim in ((size,) if np.isscalar(size) else size)):
            raise ValueError("size must be non-negative")
        rng = random_source.generator if isinstance(random_source, RandomSource) else random_source
        core, uniforms, delays = self.draw_arrays(rng, size)
        if uniforms is None:
            return core
        return tail_mix(core, uniforms, delays, self.tail_fraction)

    def draw_arrays(self, rng: np.random.Generator, size):
        """The draws of :meth:`sample_array`, in its order, before the tail mix.

        Returns the Gaussian cores, then the uniforms that pick the tail and
        the tail delays, both ``None`` when there is no tail (nothing drawn).
        """
        core = rng.normal(0.0, self.sigma, size)
        if self.tail_fraction > 0:
            return core, rng.random(size), rng.exponential(self.tail_constant, size)
        return core, None, None

    def probability_outside(self, half_window: float) -> float:
        """Probability that |jitter| exceeds ``half_window`` (slot-error bound).

        The Gaussian core contributes symmetrically; the exponential tail only
        delays detections, so only its right side matters.
        """
        if half_window < 0:
            raise ValueError("half_window must be non-negative")
        from math import erf, exp, sqrt

        if self.sigma == 0:
            gaussian_outside = 0.0 if half_window > 0 else 1.0
        else:
            gaussian_outside = 1.0 - erf(half_window / (self.sigma * sqrt(2.0)))
        tail_outside = exp(-half_window / self.tail_constant)
        return float(
            (1.0 - self.tail_fraction) * gaussian_outside
            + self.tail_fraction * max(gaussian_outside, tail_outside)
        )


def tail_mix(core: np.ndarray, uniforms: np.ndarray, delays: np.ndarray, fraction) -> np.ndarray:
    """The jitter of :meth:`JitterModel.draw_arrays`' draws.

    Each core is delayed where its uniform is below ``fraction``, which may
    be one tail fraction per draw.  A draw whose fraction is 0 keeps its
    core exactly: the cores never hold ``-0.0``, as they are
    ``0.0 + sigma * z``.
    """
    return core + np.where(uniforms < fraction, delays, 0.0)
