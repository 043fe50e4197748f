"""Tests for repro.noc.bus and broadcast."""

import pytest

from repro.analysis.units import NS, PS
from repro.core.config import LinkConfig
from repro.noc.broadcast import broadcast, minimum_photons_for_full_coverage
from repro.noc.bus import OpticalBus
from repro.noc.packet import Packet
from repro.noc.topology import StackTopology
from repro.photonics.stack import DieStack


@pytest.fixture
def small_topology():
    return StackTopology(DieStack.uniform(count=4, thickness=15e-6, wavelength=850e-9), nodes_per_die=1)


@pytest.fixture
def link_config():
    # 2 ns slots plus a generous guard keep the per-symbol error rate negligible so
    # that packet-level assertions exercise the bus logic, not the raw link error floor.
    return LinkConfig(ppm_bits=4, slot_duration=2 * NS, spad_dead_time=32 * NS,
                      extra_guard=8 * NS, wavelength=850e-9)


class TestOpticalBus:
    def test_delivers_queued_packets(self, small_topology, link_config):
        bus = OpticalBus(small_topology, config=link_config, emitted_photons=5000.0, seed=1)
        for index in range(4):
            bus.offer(Packet(source=index, destination=(index + 1) % 4, payload=[1, 0, 1, 1] * 8))
        stats = bus.run()
        assert stats.packets_offered == 4
        assert stats.packets_delivered >= 3
        assert stats.utilisation > 0
        assert stats.mean_latency > 0

    def test_starved_bus_reports_nan_stats(self, small_topology, link_config):
        # A run with no traffic is a valid zero-offered-load measurement:
        # ratio statistics are undefined (NaN), never an exception.
        import math

        bus = OpticalBus(small_topology, config=link_config)
        stats = bus.run()
        assert math.isnan(stats.delivery_ratio)
        assert math.isnan(stats.mean_latency)
        assert math.isnan(stats.bit_error_rate)
        assert stats.utilisation == 0.0

    def test_bandwidth_figures(self, small_topology, link_config):
        bus = OpticalBus(small_topology, config=link_config)
        assert bus.aggregate_bandwidth() == pytest.approx(link_config.raw_bit_rate)
        assert bus.per_node_bandwidth() == pytest.approx(link_config.raw_bit_rate / 4)
        assert bus.raw_slot_rate() == pytest.approx(1 / link_config.symbol_duration)

    def test_span_transmission_weaker_for_far_nodes(self, small_topology, link_config):
        bus = OpticalBus(small_topology, config=link_config)
        assert bus.span_transmission(0, 3) < bus.span_transmission(0, 1)

    def test_validation(self, small_topology, link_config):
        with pytest.raises(ValueError):
            OpticalBus(small_topology, config=link_config, emitted_photons=0.0)
        bus = OpticalBus(small_topology, config=link_config)
        with pytest.raises(ValueError):
            bus.offer(Packet(source=200, destination=0, payload=[1]))
        with pytest.raises(ValueError):
            bus.run(max_slots=0)

    @pytest.mark.parametrize("arrival", [2.5, True], ids=repr)
    def test_offer_rejects_a_non_integer_arrival_slot(self, small_topology, link_config, arrival):
        # 2.5 used to be granted slot 2, half a slot before it arrived.
        bus = OpticalBus(small_topology, config=link_config)
        with pytest.raises(ValueError, match="arrival slot must be an integer"):
            bus.offer(Packet(source=0, destination=1, payload=[1, 0]), arrival_slot=arrival)
        assert bus.statistics.packets_offered == 0


class TestBroadcast:
    def test_bright_broadcast_reaches_every_die(self, small_topology, link_config):
        packet = Packet.broadcast_packet(source=0, payload=[1, 0, 1, 1] * 4)
        result = broadcast(small_topology, 0, packet, config=link_config,
                           emitted_photons=20_000.0, seed=2)
        assert result.coverage == 1.0
        assert result.delivered_count == small_topology.node_count - 1
        assert result.failed_receivers() == []

    def test_dim_broadcast_misses_far_dies(self, link_config):
        deep = StackTopology(DieStack.uniform(count=10, thickness=40e-6, wavelength=650e-9),
                             nodes_per_die=1)
        packet = Packet.broadcast_packet(source=0, payload=[1, 0] * 16)
        result = broadcast(deep, 0, packet,
                           config=LinkConfig(ppm_bits=4, slot_duration=2 * NS, wavelength=650e-9),
                           emitted_photons=300.0, seed=3)
        assert result.coverage < 1.0
        assert len(result.failed_receivers()) >= 1

    def test_minimum_photons_for_full_coverage(self, small_topology, link_config):
        level = minimum_photons_for_full_coverage(
            small_topology, 0, config=link_config,
            candidate_levels=(100.0, 3000.0, 30000.0), probe_payload_bits=32, seed=4,
        )
        assert level in (100.0, 3000.0, 30000.0)

    def test_validation(self, small_topology, link_config):
        packet = Packet.broadcast_packet(source=0, payload=[1])
        with pytest.raises(ValueError):
            broadcast(small_topology, 0, packet, emitted_photons=0.0)
        with pytest.raises(ValueError):
            broadcast(small_topology, 99, packet)
