"""Tests for repro.analysis.statistics."""

import numpy as np
import pytest

from repro.analysis.statistics import binomial_confidence_95, weighted_mean_confidence_95


class TestBinomialConfidence:
    """Boundary behaviour of the 95% binomial half-width.

    The degenerate edges (0 or n-of-n successes) used to collapse the
    normal approximation to a zero-width interval; they now fall back to
    the rule-of-three bound, clamped so the interval never leaves [0, 1]
    and the result is never NaN.
    """

    def test_interior_matches_normal_approximation(self):
        assert binomial_confidence_95(50, 100) == pytest.approx(
            1.96 * np.sqrt(0.25 / 100)
        )

    @pytest.mark.parametrize("total", [1, 2, 3, 10, 1_000, 10**9])
    def test_zero_successes_rule_of_three(self, total):
        half = binomial_confidence_95(0, total)
        assert half == pytest.approx(min(1.0, 3.0 / total))
        assert 0.0 < half <= 1.0
        assert np.isfinite(half)

    @pytest.mark.parametrize("total", [1, 2, 3, 10, 1_000, 10**9])
    def test_all_successes_mirrors_zero(self, total):
        assert binomial_confidence_95(total, total) == binomial_confidence_95(0, total)

    @pytest.mark.parametrize("total", [1, 2])
    def test_tiny_samples_clamp_to_unit_interval(self, total):
        # 3/total > 1 for total < 3: the raw rule of three would imply an
        # interval outside the probability range.
        assert binomial_confidence_95(0, total) == 1.0
        assert binomial_confidence_95(total, total) == 1.0

    @pytest.mark.parametrize(
        "successes,total",
        [(0, 1), (1, 1), (0, 2), (2, 2), (1, 2), (1, 3), (2, 3), (999, 1000)],
    )
    def test_never_nan_and_within_unit_interval(self, successes, total):
        half = binomial_confidence_95(successes, total)
        assert np.isfinite(half)
        assert 0.0 <= half <= 1.0

    def test_single_error_is_wider_than_none(self):
        # Monotonic sanity at the edge: observing one error must not shrink
        # the interval below the zero-error bound's order of magnitude.
        assert binomial_confidence_95(1, 10_000) > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            binomial_confidence_95(0, 0)
        with pytest.raises(ValueError):
            binomial_confidence_95(-1, 10)
        with pytest.raises(ValueError):
            binomial_confidence_95(11, 10)


class TestWeightedMeanConfidence:
    def test_unit_weights_match_binomial_shape(self):
        # With 0/1 samples the weighted CI reduces to the binomial normal
        # approximation up to the n-1 vs n variance denominator.
        errors, total = 50, 100
        half = weighted_mean_confidence_95(float(errors), float(errors), total)
        p = errors / total
        assert half == pytest.approx(
            1.96 * np.sqrt(p * (1 - p) * total / (total - 1) / total)
        )

    def test_single_sample_is_zero_not_nan(self):
        assert weighted_mean_confidence_95(3.0, 9.0, 1) == 0.0

    def test_identical_samples_have_zero_width(self):
        # sum = n*w, sumsq = n*w**2 -> zero variance exactly.
        assert weighted_mean_confidence_95(10.0, 10.0, 10) == 0.0

    def test_float_cancellation_never_goes_negative(self):
        # Large offset + tiny spread: the two-pass formula can cancel to a
        # slightly negative variance; the helper must clamp, not sqrt(NaN).
        half = weighted_mean_confidence_95(2.0e8, 2.0e13, 2_000_000)
        assert np.isfinite(half)
        assert half >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            weighted_mean_confidence_95(1.0, 1.0, 0)
        with pytest.raises(ValueError):
            weighted_mean_confidence_95(1.0, 1.0, -5)
