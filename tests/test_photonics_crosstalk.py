"""Tests for repro.photonics.crosstalk — the channel-coupling model.

The multichannel link engine injects interference photon budgets straight
from this model, so the invariants of :meth:`CrosstalkModel.crosstalk_matrix`
(symmetry, unit diagonal, monotone decay with pitch down to the floor) are
load-bearing, not cosmetic.
"""

import numpy as np
import pytest

from repro.photonics.crosstalk import CrosstalkModel


class TestCouplingScalar:
    def test_own_channel_capture_is_largest(self):
        model = CrosstalkModel()
        assert model.coupling(0.0) > model.coupling(model.channel_pitch)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            CrosstalkModel().coupling(-1e-6)

    def test_floor_applies_to_neighbours_only(self):
        model = CrosstalkModel(floor=1e-4)
        # Far away, the Gaussian tail is deep below the scattered-light floor.
        assert model.coupling(1e-3) == pytest.approx(1e-4)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CrosstalkModel(channel_pitch=0.0)
        with pytest.raises(ValueError):
            CrosstalkModel(beam_diameter=-1.0)
        with pytest.raises(ValueError):
            CrosstalkModel(floor=1.0)

    @pytest.mark.parametrize("name", ["channel_pitch", "beam_diameter", "detector_diameter"])
    def test_nan_lengths_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            CrosstalkModel(**{name: float("nan")})


class TestCrosstalkMatrixInvariants:
    CHANNELS = 12

    def test_shape_and_unit_diagonal(self):
        matrix = CrosstalkModel().crosstalk_matrix(self.CHANNELS)
        assert matrix.shape == (self.CHANNELS, self.CHANNELS)
        assert np.allclose(np.diag(matrix), 1.0)

    def test_symmetry(self):
        matrix = CrosstalkModel().crosstalk_matrix(self.CHANNELS)
        assert np.allclose(matrix, matrix.T)

    def test_off_diagonal_strictly_below_diagonal(self):
        matrix = CrosstalkModel().crosstalk_matrix(self.CHANNELS)
        off = matrix[~np.eye(self.CHANNELS, dtype=bool)]
        assert np.all(off < 1.0)
        assert np.all(off > 0.0)

    def test_monotone_decay_with_distance_down_to_the_floor(self):
        model = CrosstalkModel(channel_pitch=10e-6, floor=1e-9)
        profile = model.coupling_profile(self.CHANNELS)
        assert np.all(np.diff(profile) <= 0)
        # Strict decay while the Gaussian dominates; flat once the floor wins.
        floor_level = profile[-1]
        gaussian_part = profile[profile > 1.01 * floor_level]
        assert gaussian_part.size >= 3
        assert np.all(np.diff(gaussian_part) < 0)

    def test_monotone_decay_with_pitch(self):
        pitches = (10e-6, 20e-6, 40e-6, 80e-6)
        nearest = [
            CrosstalkModel(channel_pitch=pitch, floor=1e-12).crosstalk_matrix(4)[0, 1]
            for pitch in pitches
        ]
        assert nearest == sorted(nearest, reverse=True)
        assert nearest[1] > 10 * nearest[2]

    def test_matrix_is_the_normalised_scalar_coupling(self):
        # Scalar helpers are absolute capture fractions; the matrix/profile
        # are normalised to the own-channel capture (unit diagonal).
        model = CrosstalkModel(channel_pitch=20e-6)
        matrix = model.crosstalk_matrix(4)
        assert matrix[0, 1] == pytest.approx(
            model.nearest_neighbour_crosstalk() / model.coupling(0.0)
        )

    def test_matrix_rows_are_the_coupling_profile(self):
        model = CrosstalkModel()
        matrix = model.crosstalk_matrix(self.CHANNELS)
        profile = model.coupling_profile(self.CHANNELS)
        for i in range(self.CHANNELS):
            for j in range(self.CHANNELS):
                assert matrix[i, j] == profile[abs(i - j)]

    def test_invalid_channel_count_rejected(self):
        with pytest.raises(ValueError):
            CrosstalkModel().crosstalk_matrix(0)
        with pytest.raises(ValueError):
            CrosstalkModel().coupling_profile(-1)


class TestAggregateInterference:
    def test_centre_channel_collects_more_than_edges(self):
        model = CrosstalkModel(channel_pitch=20e-6)
        centre = model.aggregate_interference(9, victim=4)
        edge = model.aggregate_interference(9, victim=0)
        assert centre > edge

    def test_matches_matrix_row_sum(self):
        model = CrosstalkModel()
        matrix = model.crosstalk_matrix(6)
        expected = matrix[2].sum() - matrix[2, 2]
        assert model.aggregate_interference(6, victim=2) == pytest.approx(expected)


class TestIsolationPitch:
    def test_minimum_pitch_achieves_isolation(self):
        model = CrosstalkModel(floor=1e-9)
        pitch = model.minimum_pitch_for_isolation(30.0)
        assert pitch > 0
        assert model.coupling(pitch) <= 10 ** (-30.0 / 10.0) * 1.0000001

    def test_floor_bounds_reachable_isolation(self):
        with pytest.raises(ValueError, match="floor"):
            CrosstalkModel(floor=1e-3).minimum_pitch_for_isolation(60.0)
