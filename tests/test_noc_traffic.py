"""The bus's traffic table: bulk offers and pinned per-packet outcomes.

:meth:`OpticalBus.offer_many` ingests a whole traffic draw as arrays, and
:meth:`OpticalBus.offer` is its one-row case.  These tests lock:

* the outcome of one mixed run — broadcasts, an undeliverable address,
  payloads of 1–90 bits, several epochs, a ``run`` cut short by
  ``max_slots`` and then continued — on every backend the bus flushes
  through, as a digest of every outcome field and of the statistics;
* that a bulk offer rejects exactly what :class:`Packet` and ``offer``
  reject, and offers nothing when it does;
* that per-packet offers and one bulk offer of the same traffic give the
  same outcomes;
* the typed errors of bus and trial settings that used to fail late.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.analysis.units import NS
from repro.core.config import LinkConfig
from repro.noc import OpticalBus, Packet, StackTopology
from repro.photonics.stack import DieStack
from repro.simulation.montecarlo import NocTrafficTrial

CONFIG = LinkConfig(
    ppm_bits=4, slot_duration=2 * NS, extra_guard=32 * NS, wavelength=1050e-9
)


def topology(dies: int = 5) -> StackTopology:
    return StackTopology(
        DieStack.uniform(count=dies, thickness=15e-6, wavelength=1050e-9),
        nodes_per_die=1,
    )


def mixed_traffic(first: int, count: int):
    """Rows ``first..first+count`` of the mixed workload, as plain lists."""
    rng = np.random.default_rng(first + 101)
    rows = []
    for index in range(first, first + count):
        source = index % 5
        if index % 13 == 0:
            destination = 255  # broadcast
        elif index % 29 == 7:
            destination = 200  # no such node: burns one slot, undelivered
        else:
            destination = (source + 1 + index % 4) % 5
        payload = rng.integers(0, 2, int(rng.integers(1, 91))).tolist()
        rows.append((source, destination, payload, 2 * index, index))
    return rows


def offer_rows(bus: OpticalBus, rows, bulk: bool) -> None:
    if bulk:
        sources, destinations, payloads, arrivals, sequences = zip(*rows)
        bus.offer_many(sources, destinations, payloads, arrivals, sequences)
        return
    for source, destination, payload, arrival, sequence in rows:
        bus.offer(Packet(source, destination, payload, sequence), arrival_slot=arrival)


def mixed_run(backend: str, bulk: bool = False) -> OpticalBus:
    bus = OpticalBus(
        topology(), config=CONFIG, emitted_photons=300.0, seed=11,
        backend=backend, epoch_packets=16,
    )
    offer_rows(bus, mixed_traffic(0, 60), bulk)
    bus.run(max_slots=700)  # cut short: part of the queue stays pending
    offer_rows(bus, mixed_traffic(60, 30), bulk)
    bus.run()
    return bus


def outcome_fields(bus: OpticalBus) -> list:
    return [
        (
            o.packet.sequence, o.source, o.destination, o.arrival_slot,
            o.start_slot, o.end_slot, o.bit_errors, o.delivered, o.latency,
            sorted(o.receiver_errors.items()),
        )
        for o in bus.outcomes
    ]


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


#: (outcome list, statistics) digests of :func:`mixed_run`, captured
#: before the bus carried its traffic as a table.
PINNED = {
    "batch": ("b86127e043a1c7b7", "0113f32438fa2fda"),
    "multichannel": ("b93eafb079f0b773", "96dbc35a3bd5397c"),
    "scalar": ("5267b5999dd50cc8", "a033bcbb2db8af6c"),
}


class TestPinnedOutcomes:
    @pytest.mark.parametrize("backend", sorted(PINNED))
    def test_mixed_run_outcomes_are_unchanged(self, backend):
        bus = mixed_run(backend)
        outcomes = outcome_fields(bus)
        # The workload exercises what it claims to.
        assert len(outcomes) == bus.statistics.packets_offered == 90
        assert any(o[9] for o in outcomes)  # a broadcast receiver split
        assert any(o[2] == 200 and not o[7] for o in outcomes)
        assert 0 < bus.statistics.bit_errors
        stats = dataclasses.astuple(bus.statistics)
        assert (digest(outcomes), digest(stats)) == PINNED[backend]


class TestOfferMany:
    def bus(self, **kwargs) -> OpticalBus:
        return OpticalBus(topology(), config=CONFIG, **kwargs)

    @pytest.mark.parametrize("backend", ["batch", "scalar"])
    def test_bulk_offer_gives_the_per_packet_outcomes(self, backend):
        per_packet, bulk = mixed_run(backend), mixed_run(backend, bulk=True)
        assert outcome_fields(bulk) == outcome_fields(per_packet)
        assert bulk.statistics == per_packet.statistics

    def test_a_payload_matrix_gives_the_per_packet_outcomes(self):
        rng = np.random.default_rng(4)
        sources = rng.integers(0, 5, 40)
        destinations = (sources + rng.integers(1, 5, 40)) % 5
        payloads = rng.integers(0, 2, (40, 24))
        arrivals = np.sort(rng.integers(0, 200, 40))
        runs = []
        for bulk in (False, True):
            bus = self.bus(emitted_photons=300.0, seed=2, epoch_packets=8)
            if bulk:
                bus.offer_many(sources, destinations, payloads, arrivals, np.arange(40))
            else:
                for index in range(40):
                    bus.offer(
                        Packet(sources[index], destinations[index], payloads[index].tolist(), index),
                        arrival_slot=arrivals[index],
                    )
            bus.run()
            runs.append((outcome_fields(bus), bus.statistics, bus.good_bits()))
        assert runs[0] == runs[1]

    def test_table_rows_carry_the_serialized_packets(self):
        bus = self.bus()
        packets = [Packet(1, 3, [1, 0, 1], 7), Packet.broadcast_packet(4, [1] * 9, 8)]
        for packet in packets:
            bus.offer(packet, arrival_slot=5)
        table = bus.traffic
        for row, packet in enumerate(packets):
            assert table.row_bits(row).tolist() == packet.serialize()
            padded, _starts = table.padded(np.array([row]))
            assert padded.tolist() == packet.padded_bits(CONFIG.ppm_bits).tolist()
        assert table.start.tolist() == [-1, -1]  # queued

    # Each case is one field of one packet; offer and offer_many must both
    # refuse it with the same message.
    REJECTED = {
        "bool source": ({"source": True}, "source must be an integer"),
        "numpy bool source": ({"source": np.True_}, "source must be an integer"),
        "fractional source": ({"source": 1.5}, "source must be an integer"),
        "whole float destination": ({"destination": 2.0}, "destination must be an integer"),
        "bool sequence": ({"sequence": True}, "sequence must be an integer"),
        "negative source": ({"source": -1}, r"source must be within \[0, 256\)"),
        "destination above 255": ({"destination": 256}, r"destination must be within"),
        "sequence of 2**16": ({"sequence": 1 << 16}, "sequence number out of range"),
        "negative sequence": ({"sequence": -1}, "sequence number out of range"),
        "empty payload": ({"payload": []}, "payload must be non-empty"),
        "bit 2": ({"payload": [1, 2]}, "0 or 1"),
        "bit 0.5": ({"payload": [0.5, 1]}, "0 or 1"),
        "bit NaN": ({"payload": [1, float("nan")]}, "0 or 1"),
        "bit string": ({"payload": [1, "1"]}, "0 or 1"),
        "bit None": ({"payload": [None]}, "0 or 1"),
        "nested bit": ({"payload": [1, [0]]}, "0 or 1"),
        "source outside the topology": ({"source": 5}, "not a node of this topology"),
        "bool arrival": ({"arrival": True}, "arrival slot must be an integer"),
        "fractional arrival": ({"arrival": 2.5}, "arrival slot must be an integer"),
        "negative arrival": ({"arrival": -1}, "arrival slot must be non-negative"),
    }

    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_rejects_what_packet_and_offer_reject(self, case):
        change, message = self.REJECTED[case]
        row = {"source": 1, "destination": 2, "payload": [1, 0, 1], "sequence": 3, "arrival": 4}
        row.update(change)
        bus = self.bus()
        with pytest.raises(ValueError, match=message):
            arrival = row.pop("arrival")
            bus.offer(Packet(**row), arrival_slot=arrival)
        row["arrival"] = arrival
        # The bad row rides second in the bulk offer: nothing is queued.
        good = {"source": 0, "destination": 1, "payload": [1], "sequence": 0, "arrival": 0}
        columns = {name: [good[name], row[name]] for name in good}
        with pytest.raises(ValueError, match=message):
            bus.offer_many(
                columns["source"], columns["destination"], columns["payload"],
                columns["arrival"], columns["sequence"],
            )
        assert bus.statistics.packets_offered == 0 and bus.traffic.source.size == 0

    @pytest.mark.parametrize("bad", [0.5, -1, 2, np.nan])
    def test_payload_matrix_rejects_a_non_bit(self, bad):
        payloads = np.ones((3, 8))
        payloads[2, 5] = bad
        with pytest.raises(ValueError, match="0 or 1"):
            self.bus().offer_many([0, 1, 2], [1, 2, 3], payloads, [0, 0, 0], [0, 1, 2])

    def test_accepts_what_packet_accepts(self):
        # NumPy integers as fields, and elements equal to a bit.
        bus = self.bus()
        bus.offer_many(
            np.array([1, 2], dtype=np.uint8), [np.int64(2), 3], [[True, 1.0], np.array([0, 1])],
            [np.int32(0), 1], [0, np.int16(1)],
        )
        assert bus.traffic.row_bits(0)[-2:].tolist() == [1, 1]
        assert bus.statistics.packets_offered == 2

    def test_arrivals_per_node_must_not_decrease(self):
        bus = self.bus()
        with pytest.raises(ValueError, match=r"node 1 .* arrival 3 after arrival 5"):
            bus.offer_many([1, 2, 1], [0, 0, 0], [[1]] * 3, [5, 1, 3], [0, 1, 2])
        bus.offer_many([1, 2], [0, 0], [[1]] * 2, [5, 1], [0, 1])
        # Each node's first row is checked against the rows queued there.
        with pytest.raises(ValueError, match=r"node 1 .* arrival 4 after arrival 5"):
            bus.offer_many([2, 1], [0, 0], [[1]] * 2, [1, 4], [2, 3])
        with pytest.raises(ValueError, match=r"node 2 .* arrival 0 after arrival 1"):
            bus.offer(Packet(2, 0, [1], 4), arrival_slot=0)
        bus.offer(Packet(2, 0, [1], 4), arrival_slot=1)
        assert bus.statistics.packets_offered == 3

    def test_a_drained_node_takes_an_earlier_arrival_again(self):
        # The queue is FIFO per node: once it is empty, an arrival before
        # the last one granted is a new queue head, as with the arbiter.
        bus = self.bus(emitted_photons=2_000.0)
        bus.offer(Packet(1, 0, [1, 0]), arrival_slot=50)
        bus.run()
        bus.offer(Packet(1, 0, [1, 0], 1), arrival_slot=10)
        bus.run()
        assert [o.packet.sequence for o in bus.outcomes] == [0, 1]

    def test_columns_of_different_lengths_are_refused(self):
        with pytest.raises(ValueError, match="one value of every field per packet"):
            self.bus().offer_many([0, 1], [1, 2], [[1]], [0, 0], [0, 1])


class TestSettings:
    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"emitted_photons": float("nan")}, "emitted_photons must be positive"),
            ({"epoch_packets": True}, "epoch_packets must be an integer"),
            ({"epoch_packets": 2.5}, "epoch_packets must be an integer"),
            ({"epoch_packets": 0}, "epoch_packets must be positive"),
        ],
        ids=["nan photons", "bool epoch", "fractional epoch", "zero epoch"],
    )
    def test_bus_refuses_at_construction(self, settings, message):
        with pytest.raises(ValueError, match=message):
            OpticalBus(topology(), config=CONFIG, **settings)

    @pytest.mark.parametrize("max_slots", [True, 2.5, float("nan")], ids=repr)
    def test_run_refuses_a_non_integer_horizon(self, max_slots):
        bus = OpticalBus(topology(), config=CONFIG)
        bus.offer(Packet(0, 1, [1, 0]))
        with pytest.raises(ValueError, match="max_slots must be an integer"):
            bus.run(max_slots=max_slots)
        assert bus.traffic.start.tolist() == [-1]  # still queued

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"packet_bits": 2.5}, "packet_bits must be an integer"),
            ({"packet_bits": True}, "packet_bits must be an integer"),
            ({"stack_dies": 2.5}, "stack_dies must be an integer"),
            ({"offered_load": float("nan")}, "offered_load must be positive"),
        ],
        ids=["fractional packet bits", "bool packet bits", "fractional stack", "nan load"],
    )
    def test_trial_refuses_at_construction(self, settings, message):
        with pytest.raises(ValueError, match=message):
            NocTrafficTrial(config=CONFIG, **settings)
