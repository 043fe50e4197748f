"""Tests for repro.noc.packet and topology, and the round-robin arbiter oracle."""

import numpy as np
import pytest

from _oracles import RoundRobinArbiter
from repro.analysis.units import MM, UM
from repro.noc.packet import Packet
from repro.noc.topology import NodeAddress, StackTopology
from repro.photonics.stack import DieStack


class TestPacket:
    def test_serialize_roundtrip(self):
        packet = Packet(source=3, destination=7, payload=[1, 0, 1, 1], sequence=42)
        recovered = Packet.deserialize(packet.serialize())
        assert recovered.source == 3
        assert recovered.destination == 7
        assert recovered.sequence == 42
        assert recovered.payload == [1, 0, 1, 1]

    def test_total_bits(self):
        packet = Packet(source=0, destination=1, payload=[1] * 10)
        assert packet.total_bits == 32 + 10

    def test_broadcast_address(self):
        packet = Packet.broadcast_packet(source=2, payload=[1, 0])
        assert packet.is_broadcast
        assert not Packet(source=0, destination=3, payload=[1]).is_broadcast

    def test_validation(self):
        with pytest.raises(ValueError):
            Packet(source=-1, destination=0, payload=[1])
        with pytest.raises(ValueError):
            Packet(source=0, destination=256, payload=[1])
        with pytest.raises(ValueError):
            Packet(source=0, destination=0, payload=[])
        with pytest.raises(ValueError):
            Packet(source=0, destination=0, payload=[2])
        with pytest.raises(ValueError):
            Packet.deserialize([0, 1, 0])

    @pytest.mark.parametrize("field", ["source", "destination", "sequence"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, np.True_, "2"], ids=repr)
    def test_addresses_and_sequence_must_be_integers(self, field, value):
        # A fractional source used to construct and fail late inside the bus
        # flush; a bool was taken as node 1.
        fields = {"source": 1, "destination": 2, "payload": [1, 0, 1, 1], field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            Packet(**fields)

    def test_numpy_integers_are_accepted(self):
        packet = Packet(
            source=np.int64(1), destination=np.uint8(2), payload=[1, 0], sequence=np.int32(3)
        )
        assert Packet.deserialize(packet.serialize()) == Packet(1, 2, [1, 0], 3)

    def test_padded_bits_is_a_uint8_array_of_whole_symbols(self):
        packet = Packet(source=3, destination=7, payload=[1, 0, 1], sequence=42)
        padded = packet.padded_bits(4)
        assert padded.dtype == np.uint8 and padded.size == 36
        assert padded[:35].tolist() == packet.serialize() and padded[35] == 0

    @pytest.mark.parametrize(
        "bit", [0.5, -1, float("nan"), "1", None, [0]], ids=repr
    )
    def test_payload_rejects_non_bits(self, bit):
        with pytest.raises(ValueError, match="0 or 1"):
            Packet(source=0, destination=1, payload=[1, bit])

    @pytest.mark.parametrize(
        "bit", [True, 1.0, np.int64(1), np.array(1)], ids=repr
    )
    def test_payload_accepts_values_equal_to_a_bit(self, bit):
        assert Packet(source=0, destination=1, payload=[0, bit]).total_bits == 34


class TestTopology:
    def test_node_layout(self):
        topology = StackTopology(DieStack.uniform(count=4), nodes_per_die=4)
        assert topology.node_count == 16
        assert len(topology.nodes_on_die(2)) == 4
        assert topology.node(0).die == 0
        assert topology.node(15).die == 3

    def test_dies_spanned_and_transmission(self):
        topology = StackTopology(DieStack.uniform(count=6, wavelength=850e-9), nodes_per_die=1)
        assert topology.dies_spanned(0, 5) == 5
        assert topology.channel_transmission(0, 1) > topology.channel_transmission(0, 5)

    def test_horizontal_distance(self):
        topology = StackTopology(DieStack.uniform(count=1), nodes_per_die=4, die_size=10 * MM)
        assert topology.horizontal_distance(0, 1) > 0
        assert topology.horizontal_distance(0, 0) == 0.0

    def test_worst_case_pair(self):
        topology = StackTopology(DieStack.uniform(count=5), nodes_per_die=2)
        bottom, top = topology.worst_case_pair()
        assert topology.node(bottom).die == 0
        assert topology.node(top).die == 4

    def test_attenuation_is_symmetric(self):
        # Light crosses the same intermediate layers in either direction, so
        # a span's transmission cannot depend on which end transmits — the
        # property the bus's per-pair link cache relies on.
        topology = StackTopology(DieStack.uniform(count=5, wavelength=850e-9), nodes_per_die=1)
        for source in range(topology.node_count):
            for destination in range(topology.node_count):
                assert topology.channel_transmission(source, destination) == pytest.approx(
                    topology.channel_transmission(destination, source)
                )

    def test_attenuation_monotone_in_span_length(self):
        topology = StackTopology(DieStack.uniform(count=6, wavelength=850e-9), nodes_per_die=1)
        transmissions = [topology.channel_transmission(0, d) for d in range(1, 6)]
        assert all(a >= b for a, b in zip(transmissions, transmissions[1:]))

    def test_validation(self):
        stack = DieStack.uniform(count=2)
        with pytest.raises(ValueError):
            StackTopology(stack, nodes_per_die=0)
        topology = StackTopology(stack)
        with pytest.raises(KeyError):
            topology.node(99)
        with pytest.raises(IndexError):
            topology.nodes_on_die(9)
        with pytest.raises(ValueError):
            NodeAddress(die=-1)

    # Bad sizes raise ValueError at construction instead of failing (or
    # quietly building a topology) in the layout.
    def test_rejects_a_fractional_node_count(self):
        with pytest.raises(ValueError, match="nodes_per_die must be an integer"):
            StackTopology(DieStack.uniform(count=2), nodes_per_die=2.5)

    def test_rejects_a_whole_float_node_count(self):
        with pytest.raises(ValueError, match="nodes_per_die must be an integer"):
            StackTopology(DieStack.uniform(count=2), nodes_per_die=2.0)

    def test_rejects_a_bool_node_count(self):
        with pytest.raises(ValueError, match="nodes_per_die must be an integer"):
            StackTopology(DieStack.uniform(count=2), nodes_per_die=True)

    def test_rejects_a_nan_node_count(self):
        with pytest.raises(ValueError, match="nodes_per_die must be an integer"):
            StackTopology(DieStack.uniform(count=2), nodes_per_die=float("nan"))

    def test_rejects_a_nan_die_size(self):
        with pytest.raises(ValueError, match="die_size"):
            StackTopology(DieStack.uniform(count=2), die_size=float("nan"))

    def test_rejects_an_infinite_die_size(self):
        with pytest.raises(ValueError, match="die_size"):
            StackTopology(DieStack.uniform(count=2), die_size=float("inf"))

    def test_rejects_a_bool_die_size(self):
        with pytest.raises(ValueError, match="die_size"):
            StackTopology(DieStack.uniform(count=2), die_size=True)

    def test_accepts_numpy_integers_and_sizes(self):
        topology = StackTopology(
            DieStack.uniform(count=2), nodes_per_die=np.int64(3), die_size=np.float64(5 * MM)
        )
        assert topology.node_count == 6


class TestRoundRobinArbiter:
    def test_fair_rotation(self):
        arbiter = RoundRobinArbiter(node_count=3)
        for node in (0, 1, 2):
            arbiter.request(node, f"pkt{node}")
        grants = [arbiter.grant()[0] for _ in range(3)]
        assert grants == [0, 1, 2]

    def test_skips_idle_nodes(self):
        arbiter = RoundRobinArbiter(node_count=4)
        arbiter.request(2, "only")
        node, item = arbiter.grant()
        assert node == 2 and item == "only"
        assert arbiter.grant() is None

    def test_work_conserving_under_asymmetric_load(self):
        arbiter = RoundRobinArbiter(node_count=2)
        for index in range(4):
            arbiter.request(0, index)
        arbiter.request(1, "x")
        order = [arbiter.grant()[0] for _ in range(5)]
        assert order == [0, 1, 0, 0, 0]
        assert arbiter.grants_issued == 5

    def test_pending_count(self):
        arbiter = RoundRobinArbiter(node_count=2)
        arbiter.request(0, "a")
        arbiter.request(0, "b")
        assert arbiter.pending_count(0) == 2
        assert arbiter.pending_count() == 2

    def test_grant_share_bounds_under_asymmetric_offered_load(self):
        # A light-load node must get its fair 1/2 share while it has traffic
        # (round robin never starves it), and a heavy node must absorb every
        # slot the light node leaves idle (work conservation).
        arbiter = RoundRobinArbiter(node_count=4)
        heavy, light = 0, 2
        for index in range(60):
            arbiter.request(heavy, f"h{index}")
        for index in range(10):
            arbiter.request(light, f"l{index}")
        order = []
        while True:
            grant = arbiter.grant()
            if grant is None:
                break
            order.append(grant[0])
        assert len(order) == 70
        # While both compete (first 20 grants) the shares are exactly equal.
        head = order[:20]
        assert head.count(light) == 10 and head.count(heavy) == 10
        # Afterwards the heavy node owns the bus.
        assert set(order[20:]) == {heavy}

    def test_arrival_slots_gate_eligibility(self):
        arbiter = RoundRobinArbiter(node_count=2)
        arbiter.request(0, "late", arrival=5)
        arbiter.request(1, "early", arrival=1)
        assert arbiter.grant(0) is None
        assert arbiter.next_arrival() == 1
        assert arbiter.grant(1) == (1, "early")
        assert arbiter.grant(4) is None
        assert arbiter.grant(5) == (0, "late")
        # Legacy slot-free grants remain drain-everything.
        arbiter.request(0, "x", arrival=9)
        assert arbiter.grant() == (0, "x")

    def test_requests_must_arrive_in_order_per_node(self):
        arbiter = RoundRobinArbiter(node_count=2)
        arbiter.request(0, "a", arrival=4)
        with pytest.raises(ValueError, match="arrival order"):
            arbiter.request(0, "b", arrival=2)
        with pytest.raises(ValueError):
            arbiter.request(0, "c", arrival=-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(node_count=0)
        with pytest.raises(ValueError):
            RoundRobinArbiter(node_count=1).request(5, "x")

    @pytest.mark.parametrize("arrival", [2.5, 2.0, True, None], ids=repr)
    def test_arrival_slot_must_be_an_integer(self, arrival):
        # A fractional slot was granted before it arrived; True was slot 1.
        with pytest.raises(ValueError, match="arrival slot must be an integer"):
            RoundRobinArbiter(node_count=2).request(0, "x", arrival=arrival)

    @pytest.mark.parametrize("node", [1.0, True], ids=repr)
    def test_node_must_be_an_integer(self, node):
        with pytest.raises(ValueError, match="node must be an integer"):
            RoundRobinArbiter(node_count=2).request(node, "x")

    def test_numpy_integer_node_and_arrival_are_accepted(self):
        arbiter = RoundRobinArbiter(node_count=2)
        arbiter.request(np.int64(1), "x", arrival=np.int32(4))
        assert arbiter.next_arrival() == 4 and arbiter.grant(slot=4) == (1, "x")
