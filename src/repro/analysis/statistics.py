"""Confidence intervals for the Monte-Carlo error-rate estimates.

:func:`binomial_confidence_95` is the error bar of a plain Monte-Carlo
estimate; :func:`weighted_mean_confidence_95` is its importance-sampling
counterpart.
"""

from __future__ import annotations

import math

import numpy as np


def binomial_confidence_95(successes: int, total: int) -> float:
    """Half width of the 95 % binomial confidence interval (normal approx.).

    The standard error-bar attached to every Monte-Carlo error-rate estimate
    (BER, SER, missed-detection fraction).  At the degenerate edges — zero or
    ``total`` successes, where the normal approximation collapses to zero —
    the "rule of three" upper bound ``3 / total`` is returned instead,
    clamped to 1.0 so the implied interval never leaves ``[0, 1]`` (for
    ``total < 3`` the raw rule of three exceeds the probability range).
    The result is always a finite float, never ``NaN``.
    """
    if total <= 0:
        raise ValueError(f"total must be positive, got {total}")
    if not 0 <= successes <= total:
        raise ValueError(f"successes must be within [0, {total}], got {successes}")
    if successes == 0 or successes == total:
        return min(1.0, 3.0 / total)
    p = successes / total
    return 1.96 * float(np.sqrt(p * (1.0 - p) / total))


def weighted_mean_confidence_95(
    total_weight: float, total_square_weight: float, count: int
) -> float:
    """Half width of the 95 % CI of a weighted-sample mean (normal approx.).

    The importance-sampling counterpart of :func:`binomial_confidence_95`:
    given ``count`` i.i.d. samples ``x_i`` accumulated as ``sum(x_i)`` and
    ``sum(x_i**2)``, returns ``1.96 * sqrt(var / count)`` from the unbiased
    sample variance.  Degenerate accumulations (one sample, or negative
    variance from float cancellation) return 0.0, never ``NaN``.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if count == 1:
        return 0.0
    mean = total_weight / count
    variance = (total_square_weight - count * mean * mean) / (count - 1)
    if variance <= 0.0:
        return 0.0
    return 1.96 * math.sqrt(variance / count)
