"""Tests for repro.photonics.channel."""

import pytest

from repro.analysis.units import NM, UM
from repro.photonics.channel import ChannelBudget, OpticalChannel
from repro.photonics.stack import DieStack


class TestChannelBudget:
    def test_total_transmission_is_product(self):
        budget = ChannelBudget(coupling=0.9, propagation=0.5, detector_capture=0.2)
        assert budget.total_transmission == pytest.approx(0.09)
        assert budget.total_loss_db == pytest.approx(10.46, rel=1e-2)

    def test_breakdown_keys(self):
        budget = ChannelBudget(coupling=1.0, propagation=1.0, detector_capture=1.0)
        breakdown = budget.breakdown()
        assert breakdown["total_db"] == pytest.approx(0.0)
        assert set(breakdown) == {"coupling_db", "propagation_db", "detector_capture_db", "total_db"}

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelBudget(coupling=1.5, propagation=1.0, detector_capture=1.0)


class TestOpticalChannel:
    def test_vertical_channel_through_stack(self):
        stack = DieStack.uniform(count=5, wavelength=850 * NM)
        channel = OpticalChannel(stack=stack, source_layer=0, destination_layer=4)
        assert 0 < channel.transmission() < 1
        assert channel.path_length() == pytest.approx(sum(l.thickness for l in stack.layers[:4]))
        assert channel.propagation_delay() > 0

    def test_deeper_span_is_lossier(self):
        stack = DieStack.uniform(count=8, wavelength=850 * NM)
        near = OpticalChannel(stack=stack, source_layer=0, destination_layer=1)
        far = OpticalChannel(stack=stack, source_layer=0, destination_layer=7)
        assert far.transmission() < near.transmission()

    def test_horizontal_channel(self):
        channel = OpticalChannel(stack=None, horizontal_distance=1e-3)
        assert 0 < channel.transmission() <= 1
        assert channel.propagation_delay() == pytest.approx(1e-3 / 299792458.0)

    def test_required_photons_at_source(self):
        stack = DieStack.uniform(count=4, wavelength=850 * NM)
        channel = OpticalChannel(stack=stack, source_layer=0, destination_layer=3)
        source_photons = channel.required_photons_at_source(50.0)
        assert source_photons > 50.0
        assert source_photons * channel.transmission() == pytest.approx(50.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            OpticalChannel(source_diameter=0.0)
        with pytest.raises(ValueError):
            OpticalChannel(horizontal_distance=-1.0)
        with pytest.raises(ValueError):
            OpticalChannel(excess_loss=0.0)


# CrosstalkModel has its own dedicated suite in tests/test_photonics_crosstalk.py
# (matrix invariants, coupling profile, isolation pitch, validation).
