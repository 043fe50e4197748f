"""Tests for repro.core.config."""

import pytest

from repro.analysis.units import NS, PS
from repro.core.config import LinkConfig
from repro.core.throughput import TdcDesign


class TestTiming:
    def test_default_configuration_timing(self):
        config = LinkConfig(ppm_bits=4, slot_duration=500 * PS, spad_dead_time=32 * NS)
        assert config.slot_count == 16
        assert config.data_window == pytest.approx(8 * NS)
        assert config.guard_time == pytest.approx(24 * NS)
        assert config.symbol_duration == pytest.approx(32 * NS)
        assert config.raw_bit_rate == pytest.approx(125e6)

    def test_data_window_longer_than_dead_time_needs_no_guard(self):
        config = LinkConfig(ppm_bits=8, slot_duration=1 * NS, spad_dead_time=32 * NS)
        assert config.data_window == pytest.approx(256 * NS)
        assert config.guard_time == 0.0

    def test_extra_guard_added(self):
        config = LinkConfig(extra_guard=10 * NS)
        base = LinkConfig()
        assert config.symbol_duration == pytest.approx(base.symbol_duration + 10 * NS)

    def test_higher_ppm_order_improves_bits_per_detection(self):
        slow = LinkConfig(ppm_bits=2, slot_duration=500 * PS, spad_dead_time=32 * NS)
        fast = LinkConfig(ppm_bits=6, slot_duration=500 * PS, spad_dead_time=32 * NS)
        assert fast.raw_bit_rate > slow.raw_bit_rate

    def test_slot_grid_consistency(self):
        config = LinkConfig(ppm_bits=3, slot_duration=1 * NS)
        grid = config.slot_grid()
        assert grid.slot_count == 8
        assert grid.symbol_duration == pytest.approx(config.symbol_duration)


class TestDerivedComponents:
    def test_effective_tdc_design_resolution_oversamples_slot(self):
        config = LinkConfig(slot_duration=500 * PS)
        design = config.effective_tdc_design()
        assert design.resolution <= config.slot_duration / 2
        # The TDC range must cover the whole symbol.
        assert design.detection_cycle >= config.symbol_duration * 0.99

    def test_explicit_tdc_design_used_verbatim(self):
        design = TdcDesign(fine_elements=64, coarse_bits=3, element_delay=100 * PS)
        config = LinkConfig(slot_duration=500 * PS, tdc_design=design)
        assert config.effective_tdc_design() is design

    def test_tdc_resolution_coarser_than_slot_rejected(self):
        design = TdcDesign(fine_elements=64, coarse_bits=3, element_delay=2 * NS)
        with pytest.raises(ValueError):
            LinkConfig(slot_duration=500 * PS, tdc_design=design)

    def test_spad_config_and_quenching(self):
        config = LinkConfig(wavelength=850e-9, temperature=60.0, excess_bias=4.0,
                            spad_dead_time=16 * NS)
        spad = config.spad_config()
        assert spad.wavelength == pytest.approx(850e-9)
        assert spad.temperature == pytest.approx(60.0)
        quench = config.quenching_circuit()
        assert quench.dead_time == pytest.approx(16 * NS)
        assert quench.excess_bias == pytest.approx(4.0)


class TestCopies:
    def test_with_helpers_do_not_mutate(self):
        config = LinkConfig()
        other = config.with_ppm_bits(6)
        assert config.ppm_bits == 4
        assert other.ppm_bits == 6
        assert config.with_detected_photons(5.0).mean_detected_photons == 5.0
        assert config.with_dead_time(10 * NS).spad_dead_time == pytest.approx(10 * NS)


class TestValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            LinkConfig(ppm_bits=0)
        with pytest.raises(ValueError):
            LinkConfig(ppm_bits=20)
        with pytest.raises(ValueError):
            LinkConfig(slot_duration=0.0)
        with pytest.raises(ValueError):
            LinkConfig(spad_dead_time=0.0)
        with pytest.raises(ValueError):
            LinkConfig(mean_detected_photons=-1.0)
        with pytest.raises(ValueError):
            LinkConfig(extra_guard=-1.0)

    @pytest.mark.parametrize(
        "field",
        [
            "ppm_bits",
            "slot_duration",
            "spad_dead_time",
            "mean_detected_photons",
            "wavelength",
            "temperature",
            "excess_bias",
            "extra_guard",
        ],
    )
    def test_nan_rejected_in_every_numeric_field(self, field):
        with pytest.raises(ValueError, match=field):
            LinkConfig(**{field: float("nan")})

    @pytest.mark.parametrize("field", ["slot_duration", "spad_dead_time", "wavelength", "extra_guard"])
    def test_infinite_timing_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            LinkConfig(**{field: float("inf")})

    def test_unbounded_photon_budget_is_valid(self):
        # The multichannel engine handles a pulse that always fires on purpose.
        assert LinkConfig(mean_detected_photons=float("inf")).mean_detected_photons == float("inf")

    @pytest.mark.parametrize("ppm_bits", [True, 4.0, "4"])
    def test_ppm_bits_must_be_an_int(self, ppm_bits):
        with pytest.raises(ValueError, match="ppm_bits"):
            LinkConfig(ppm_bits=ppm_bits)
