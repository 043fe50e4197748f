"""Shared statistical assertions for equivalence tests.

Several suites compare two Monte-Carlo estimates that share physics but not
draws — batch vs multichannel NoC paths, multichannel vs independent links,
the importance-sampling estimator vs naive Monte-Carlo — or one estimate
with the exact rate of ``tests/_oracles.py::link_error_oracle``.  Each used
to roll its own "within ~5 sigma of binomial noise" arithmetic; this module
is the one place that owns it, so every comparison states its false-positive
budget the same way:

* :func:`two_proportion_z` / :func:`assert_proportions_equal` — the pooled
  two-proportion z-test, the right tool for "same error rate, independent
  draws" claims;
* :func:`assert_rate_matches` — one Monte-Carlo rate against an exact one;
* :func:`assert_intervals_overlap` — for estimators that publish their own
  confidence intervals (e.g. weighted importance-sampling means vs binomial
  naive means), where a proportion test does not apply;
* :func:`bonferroni_sigma` — widens a z-threshold so a parametrised sweep of
  ``comparisons`` tests keeps the *family-wise* false-positive rate of a
  single test, instead of silently multiplying it;
* :func:`resample_seeds` — mean and standard error of an estimator across
  independent seeds, for claims about an estimator's distribution rather
  than one realisation.

Everything is stdlib-only (``statistics.NormalDist``) so the helpers import
anywhere the tests do.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Callable, Sequence, Tuple

_NORMAL = NormalDist()


def two_proportion_z(
    successes_a: float,
    total_a: int,
    successes_b: float,
    total_b: int,
) -> float:
    """The pooled two-proportion z statistic for ``H0: p_a == p_b``.

    The pooled variance is floored at ``1 / (total_a + total_b)`` so
    zero-success (or all-success) samples yield a finite statistic instead
    of dividing by zero — the same guard the old ad-hoc tolerances used.
    """
    if total_a <= 0 or total_b <= 0:
        raise ValueError("two_proportion_z needs positive sample sizes")
    pooled = (successes_a + successes_b) / (total_a + total_b)
    variance = max(pooled * (1.0 - pooled), 1.0 / (total_a + total_b))
    standard_error = math.sqrt(variance * (1.0 / total_a + 1.0 / total_b))
    return (successes_a / total_a - successes_b / total_b) / standard_error


def bonferroni_sigma(sigma: float, comparisons: int) -> float:
    """Widen a per-test z-threshold for a family of ``comparisons`` tests.

    Converts ``sigma`` to its two-sided tail probability, Bonferroni-divides
    it across the family, and converts back — so asserting each of N sweep
    points at ``bonferroni_sigma(s, N)`` keeps the *family* false-positive
    rate at the single-test rate of ``s``.
    """
    if comparisons < 1:
        raise ValueError(f"comparisons must be >= 1, got {comparisons}")
    if comparisons == 1:
        return sigma
    alpha = 2.0 * (1.0 - _NORMAL.cdf(sigma))
    return _NORMAL.inv_cdf(1.0 - (alpha / comparisons) / 2.0)


def assert_proportions_equal(
    successes_a: float,
    total_a: int,
    successes_b: float,
    total_b: int,
    *,
    sigma: float = 5.0,
    comparisons: int = 1,
    label: str = "proportions",
) -> None:
    """Assert two proportions are statistically indistinguishable.

    ``sigma`` is the single-test z-threshold (default 5: false-positive rate
    ~6e-7); ``comparisons`` widens it Bonferroni-style when the assert runs
    once per point of a parametrised sweep.
    """
    threshold = bonferroni_sigma(sigma, comparisons)
    z = two_proportion_z(successes_a, total_a, successes_b, total_b)
    assert abs(z) <= threshold, (
        f"{label}: {successes_a}/{total_a} vs {successes_b}/{total_b} "
        f"differ by {abs(z):.2f} sigma (threshold {threshold:.2f}, "
        f"{comparisons} comparison(s))"
    )


def assert_rate_matches(
    observed: float,
    expected: float,
    trials: int,
    *,
    sigma: float = 5.0,
    comparisons: int = 1,
    label: str = "rate",
) -> None:
    """Assert a Monte-Carlo rate over ``trials`` draws matches an exact rate.

    The standard error is the binomial one at the exact rate, its variance
    floored at ``1 / trials`` as in :func:`two_proportion_z`.  A per-trial
    share in ``[0, 1]`` (a symbol's share of wrong bits) has at most that
    variance, so a BER checked over its symbols as ``trials`` is checked
    conservatively.
    """
    threshold = bonferroni_sigma(sigma, comparisons)
    variance = max(expected * (1.0 - expected), 1.0 / trials)
    z = (observed - expected) / math.sqrt(variance / trials)
    assert abs(z) <= threshold, (
        f"{label}: {observed:.5g} over {trials} trials is {z:+.2f} sigma from the "
        f"exact {expected:.5g} (threshold {threshold:.2f})"
    )


def assert_intervals_overlap(
    center_a: float,
    half_width_a: float,
    center_b: float,
    half_width_b: float,
    *,
    slack: float = 1.0,
    label: str = "confidence intervals",
) -> None:
    """Assert two confidence intervals ``center +/- half_width`` overlap.

    The estimators publish their own uncertainty (a weighted importance-
    sampling CI, a binomial CI), so the assert is on the intervals, not on
    a pooled variance.  ``slack`` scales both half-widths — two honest 95%
    intervals of the same quantity overlap with probability > 99% at
    ``slack=1``; raise it when an assert runs across many sweep points.
    """
    gap = abs(center_a - center_b) - slack * (half_width_a + half_width_b)
    assert gap <= 0.0, (
        f"{label}: {center_a:.4g} +/- {half_width_a:.2g} and "
        f"{center_b:.4g} +/- {half_width_b:.2g} do not overlap "
        f"(gap {gap:.2g} at slack {slack})"
    )


def resample_seeds(
    estimate: Callable[[int], float],
    seeds: Sequence[int],
) -> Tuple[float, float]:
    """Mean and standard error of ``estimate(seed)`` across independent seeds.

    For claims about an estimator's *distribution* (unbiasedness, variance
    reduction) rather than a single realisation: run it once per seed and
    return ``(mean, standard_error_of_the_mean)``.
    """
    values = [float(estimate(seed)) for seed in seeds]
    count = len(values)
    if count < 2:
        raise ValueError("resample_seeds needs at least two seeds")
    mean = sum(values) / count
    variance = sum((value - mean) ** 2 for value in values) / (count - 1)
    return mean, math.sqrt(variance / count)
