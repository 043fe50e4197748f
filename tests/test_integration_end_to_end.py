"""Integration tests spanning multiple subsystems."""

import pytest

from repro.analysis.units import NS, PS
from repro.core.backend import make_link
from repro.core.ber import analytic_bit_error_rate
from repro.core.config import LinkConfig
from repro.core.design_space import DesignSpace
from repro.core.throughput import TdcDesign
from repro.noc.broadcast import broadcast
from repro.noc.packet import Packet
from repro.noc.topology import StackTopology
from repro.photonics.channel import OpticalChannel
from repro.photonics.stack import DieStack
from repro.simulation.randomness import RandomSource
from repro.tdc.calibration import calibrate_from_code_density, calibration_residual_inl
from repro.tdc.fpga import build_fpga_tdc


class TestDesignFlow:
    """From a SPAD dead time to a running link — the paper's design procedure."""

    def test_design_matched_link_runs_error_free(self):
        dead_time = 32 * NS
        space = DesignSpace(element_delay=54 * PS)
        design = space.best_for_dead_time(dead_time).design
        # Build a link whose symbol rate follows the selected design.
        config = LinkConfig(
            ppm_bits=min(design.whole_bits_per_symbol, 8),
            slot_duration=2 * NS,
            spad_dead_time=dead_time,
            mean_detected_photons=150.0,
        )
        link = make_link(config, seed=11)
        result = link.transmit_random(2000)
        assert result.bit_error_rate < 0.02

    def test_analytic_model_tracks_simulation_across_photon_levels(self):
        for photons in (1.0, 10.0, 100.0):
            config = LinkConfig(ppm_bits=4, mean_detected_photons=photons, slot_duration=1 * NS)
            analytic = analytic_bit_error_rate(config)
            simulated = make_link(config, seed=5).transmit_random(4000).bit_error_rate
            assert simulated == pytest.approx(analytic, abs=0.05)


class TestReceiverCalibrationFlow:
    def test_fpga_tdc_calibration_keeps_resolution_bounded_over_temperature(self):
        tdc = build_fpga_tdc(random_source=RandomSource(2))
        # Calibrate at 20 degC.
        table = calibrate_from_code_density(tdc, samples=80_000, random_source=RandomSource(3))
        assert calibration_residual_inl(tdc, table, probe_points=400) < 1.0
        # Move the same silicon to 60 degC without recalibrating: the error grows,
        # which is exactly why the paper relies on *regular* calibration.
        tdc.delay_line.set_operating_point(temperature=60.0)
        drifted = calibration_residual_inl(tdc, table, probe_points=400)
        tdc.delay_line.set_operating_point(temperature=20.0)
        recalibrated = calibration_residual_inl(
            tdc, calibrate_from_code_density(tdc, samples=80_000, random_source=RandomSource(4)),
            probe_points=400,
        )
        assert drifted > recalibrated

    def test_stack_broadcast_to_every_die_with_sized_emitter(self):
        topology = StackTopology(DieStack.uniform(count=5, thickness=15e-6, wavelength=850e-9))
        packet = Packet.broadcast_packet(source=0, payload=[1, 0, 1, 1] * 8)
        result = broadcast(
            topology, 0, packet,
            config=LinkConfig(ppm_bits=4, slot_duration=2 * NS, extra_guard=8 * NS, wavelength=850e-9),
            emitted_photons=30_000.0,
            seed=6,
        )
        assert result.coverage == 1.0
