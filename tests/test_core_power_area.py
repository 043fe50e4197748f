"""Tests for repro.core.power, area, link_budget, calibration and clocking."""

import math

import pytest

from repro.analysis.units import MHZ, NM, NS, UM
from repro.core.area import AreaBreakdown, channel_density_per_mm2, link_area, pad_area_comparison
from repro.core.calibration import CalibrationPolicy
from repro.core.clocking import (
    ElectricalClockTree,
    OpticalClockDistribution,
    compare_clock_distribution,
)
from repro.core.config import LinkConfig
from repro.core.link_budget import (
    close_link_budget,
    max_stack_depth,
    photons_for_detection_probability,
)
from repro.core.power import PowerBreakdown, link_power, pad_power_comparison
from repro.core.throughput import TdcDesign
from repro.electrical.pad import IoPad
from repro.photonics.channel import OpticalChannel
from repro.photonics.stack import DieStack


class TestPowerModel:
    def test_breakdown_fields(self):
        breakdown = link_power(LinkConfig(ppm_bits=4))
        assert breakdown.total_power == pytest.approx(
            breakdown.transmitter_power + breakdown.receiver_power
        )
        assert breakdown.bit_rate == pytest.approx(LinkConfig(ppm_bits=4).raw_bit_rate)
        assert breakdown.energy_per_bit > 0
        assert set(breakdown.as_dict()) >= {"total_power_w", "energy_per_bit_j"}

    def test_channel_losses_raise_transmitter_power(self):
        config = LinkConfig(ppm_bits=4, mean_detected_photons=50.0, wavelength=850 * NM)
        stack = DieStack.uniform(count=4, wavelength=850 * NM)
        channel = OpticalChannel(stack=stack, source_layer=0, destination_layer=3)
        lossless = link_power(config)
        lossy = link_power(config, channel=channel)
        assert lossy.transmitter_power > lossless.transmitter_power

    def test_optical_beats_pad_on_power_at_same_rate(self):
        """Abstract claim: a fraction of the power of a pad."""
        comparison = pad_power_comparison(LinkConfig(ppm_bits=4))
        assert comparison["optical_over_pad_power"] < 1.0
        assert comparison["optical_over_pad_energy"] < 1.0

    def test_power_breakdown_validation(self):
        with pytest.raises(ValueError):
            PowerBreakdown(transmitter_power=-1.0, receiver_power=0.0, symbol_rate=1.0, bits_per_symbol=1)
        with pytest.raises(ValueError):
            PowerBreakdown(transmitter_power=0.0, receiver_power=0.0, symbol_rate=0.0, bits_per_symbol=1)


class TestAreaModel:
    def test_breakdown_sums(self):
        breakdown = link_area()
        assert breakdown.total_area == pytest.approx(
            breakdown.transmitter_area + breakdown.receiver_area
        )
        assert set(breakdown.as_dict()) >= {"total_area_m2"}

    def test_optical_transceiver_is_fraction_of_pad(self):
        """Abstract claim: a fraction of the area of a pad."""
        comparison = pad_area_comparison()
        assert comparison["optical_over_pad"] < 1.0
        assert comparison["transmitter_over_pad"] < 0.5
        assert comparison["receiver_over_pad"] < 1.0

    def test_bigger_tdc_costs_area(self):
        small = link_area(TdcDesign(fine_elements=32, coarse_bits=2))
        large = link_area(TdcDesign(fine_elements=512, coarse_bits=2))
        assert large.tdc_area > small.tdc_area

    def test_channel_density(self):
        assert channel_density_per_mm2() > 50  # many channels per mm^2

    def test_validation(self):
        with pytest.raises(ValueError):
            AreaBreakdown(emitter_area=-1.0, driver_area=0.0, spad_area=0.0, tdc_area=0.0)


class TestLinkBudget:
    def test_budget_closes_for_shallow_stack(self):
        stack = DieStack.uniform(count=4, thickness=25 * UM, wavelength=850 * NM)
        channel = OpticalChannel(stack=stack, source_layer=0, destination_layer=3)
        budget = close_link_budget(channel)
        assert budget.closes
        assert budget.photons_at_source > budget.photons_at_detector
        assert budget.required_drive_current is not None

    def test_budget_fails_for_absurdly_deep_stack(self):
        stack = DieStack.uniform(count=200, thickness=50 * UM, wavelength=650 * NM)
        channel = OpticalChannel(stack=stack, source_layer=0, destination_layer=199)
        budget = close_link_budget(channel)
        assert not budget.closes

    def test_margin_db(self):
        stack = DieStack.uniform(count=3, wavelength=850 * NM)
        channel = OpticalChannel(stack=stack, source_layer=0, destination_layer=2)
        budget = close_link_budget(channel)
        assert budget.margin_db(budget.photons_at_source * 10) == pytest.approx(10.0)

    def test_max_stack_depth_monotone_in_thinning(self):
        def thin(count):
            return DieStack.uniform(count=count, thickness=10 * UM, wavelength=850 * NM)

        def thick(count):
            return DieStack.uniform(count=count, thickness=50 * UM, wavelength=850 * NM)

        assert max_stack_depth(thin, max_dies=64) >= max_stack_depth(thick, max_dies=64)

    def test_photons_for_detection_probability_inverse(self):
        photons = photons_for_detection_probability(0.999, 0.25)
        assert 1 - math.exp(-0.25 * photons) == pytest.approx(0.999)
        with pytest.raises(ValueError):
            photons_for_detection_probability(1.0, 0.25)

    def test_validation(self):
        stack = DieStack.uniform(count=2)
        channel = OpticalChannel(stack=stack, source_layer=0, destination_layer=1)
        with pytest.raises(ValueError):
            close_link_budget(channel, target_detection_probability=1.5)
        with pytest.raises(ValueError):
            max_stack_depth(lambda count: DieStack.uniform(count), max_dies=1)


class TestCalibrationPolicy:
    def test_interval_shrinks_with_faster_drift(self):
        slow = CalibrationPolicy(temperature_drift_rate=0.01)
        fast = CalibrationPolicy(temperature_drift_rate=1.0)
        assert fast.recalibration_interval() < slow.recalibration_interval()

    def test_static_environment_needs_no_recalibration(self):
        policy = CalibrationPolicy(temperature_drift_rate=0.0)
        assert policy.recalibration_interval() == float("inf")
        assert policy.throughput_overhead() == 0.0

    def test_overhead_small_for_typical_drift(self):
        policy = CalibrationPolicy()
        assert policy.throughput_overhead() < 0.01
        assert policy.effective_throughput(1e9) > 0.99e9

    def test_tolerated_excursion(self):
        policy = CalibrationPolicy(resolution_bound=0.12, temperature_coefficient=1.2e-3)
        assert policy.tolerated_temperature_excursion() == pytest.approx(100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CalibrationPolicy(resolution_bound=0.0)
        with pytest.raises(ValueError):
            CalibrationPolicy(symbol_rate=0.0)
        with pytest.raises(ValueError):
            CalibrationPolicy().effective_throughput(-1.0)


class TestClockDistribution:
    def test_electrical_tree_power_scales_with_frequency(self):
        tree = ElectricalClockTree()
        assert tree.power(400 * MHZ) == pytest.approx(2 * tree.power(200 * MHZ))

    def test_optical_clock_saves_power(self):
        """The conclusion's 'drastically reduce clock distribution power costs'."""
        comparison = compare_clock_distribution(frequency=200 * MHZ)
        assert comparison.power_saving > 0.5

    def test_skew_bound_independent_of_die_size(self):
        optical = OpticalClockDistribution()
        assert optical.skew_bound(80e-12) == pytest.approx(480e-12)

    def test_receiver_power_scales_with_regions(self):
        few = OpticalClockDistribution(regions=16)
        many = OpticalClockDistribution(regions=128)
        assert many.receiver_power(200 * MHZ) > few.receiver_power(200 * MHZ)

    def test_validation(self):
        with pytest.raises(ValueError):
            ElectricalClockTree(die_size=0.0)
        with pytest.raises(ValueError):
            OpticalClockDistribution(regions=0)
        with pytest.raises(ValueError):
            ElectricalClockTree().power(0.0)
        with pytest.raises(ValueError):
            OpticalClockDistribution().receiver_power(0.0)
