"""The vertical optical bus.

A shared, time-slotted optical medium spanning the die stack: in each symbol
slot the arbiter grants one transmitter, whose micro-LED pulse is seen by the
SPAD of every other die (broadcast by construction).  The bus model is
behavioural — PPM transmission through the link model of each span with the
correct stack attenuation, plus queueing/latency statistics — but the slot
loop is *batch-first*: arbitration accumulates an **epoch** of grants
(packet, source, destination, slot span), and on the ``"batch"`` backend
every unicast ``(source, destination)`` group of the epoch is one segment
of **one** pass (:func:`repro.core.fastlink.transmit_segments`): one PPM
encode, one segmented detection over the groups' devices, one decode per
group on its own link's TDC.  Each group keeps its own link, built through
the backend registry (:func:`repro.core.backend.make_link`), and its own
random stream, so every packet gets the bit errors one call per group
would give; each packet's count is read from one cumulative sum over the
epoch's mismatches.  Other batch backends send one call per group.
Broadcast packets go further: all receiving dies of a slot are one
``(S, C)`` pass on the ``"multichannel"`` backend, with per-receiver stack
attenuations as channel gains.

Arbitration — and therefore every slot assignment and latency — is identical
whatever the backend; only the error statistics are stochastic, and those are
*statistically* equivalent between the scalar slot-by-slot loop
(``backend="scalar"``) and the batched path, per the backend contract
(locked by ``tests/test_noc_batching.py``).

Per-link seeds follow the central seed-derivation policy
(:func:`repro.simulation.randomness.split_seed`), so distinct
``(source, destination)`` links can never share a random stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.backend import backend_capabilities, make_link, resolve_backend
from repro.core.config import LinkConfig
from repro.core.fastlink import transmit_segments
from repro.kernels import get_kernel
from repro.noc.arbitration import RoundRobinArbiter
from repro.noc.broadcast import per_receiver_bit_errors, tile_symbols_for_receivers
from repro.noc.packet import Packet
from repro.noc.topology import StackTopology
from repro.simulation.randomness import split_seed


@dataclass
class BusStatistics:
    """Aggregate statistics of a bus simulation.

    The ratio properties return ``float("nan")`` — not an exception — when
    their denominator is zero (no packets offered, nothing delivered, the bus
    never ran): a zero-offered-load grid point of a load sweep is a valid
    measurement whose ratios are simply undefined.
    """

    packets_offered: int = 0
    packets_delivered: int = 0
    packets_corrupted: int = 0
    bits_delivered: int = 0
    bit_errors: int = 0
    total_latency: float = 0.0
    busy_slots: int = 0
    total_slots: int = 0

    @property
    def delivery_ratio(self) -> float:
        if self.packets_offered == 0:
            return float("nan")
        return self.packets_delivered / self.packets_offered

    @property
    def mean_latency(self) -> float:
        if self.packets_delivered == 0:
            return float("nan")
        return self.total_latency / self.packets_delivered

    @property
    def utilisation(self) -> float:
        if self.total_slots == 0:
            return float("nan")
        return self.busy_slots / self.total_slots

    @property
    def bit_error_rate(self) -> float:
        if self.bits_delivered == 0:
            return float("nan")
        return self.bit_errors / self.bits_delivered

    def merge(self, other: "BusStatistics") -> None:
        """Accumulate another run's counters into this one (epoch aggregation)."""
        self.packets_offered += other.packets_offered
        self.packets_delivered += other.packets_delivered
        self.packets_corrupted += other.packets_corrupted
        self.bits_delivered += other.bits_delivered
        self.bit_errors += other.bit_errors
        self.total_latency += other.total_latency
        self.busy_slots += other.busy_slots
        self.total_slots += other.total_slots


@dataclass(frozen=True)
class PacketOutcome:
    """Per-packet outcome of one bus run.

    ``latency`` counts seconds from the packet's arrival slot to the end of
    its transfer (queueing + serialization); ``receiver_errors`` carries the
    per-receiver bit-error split for broadcast packets (empty for unicast).
    """

    packet: Packet
    source: int
    destination: int
    arrival_slot: int
    start_slot: int
    end_slot: int
    bit_errors: int
    delivered: bool
    latency: float
    receiver_errors: Mapping[int, int] = field(default_factory=dict)


@dataclass(frozen=True)
class _Grant:
    """One arbiter grant of an epoch, with its slot span fixed."""

    packet: Packet
    source: int
    arrival_slot: int
    start_slot: int
    end_slot: int


class OpticalBus:
    """A slotted, arbiter-controlled optical bus over a die stack.

    Parameters
    ----------
    topology:
        The die stack and node layout.
    config:
        PPM link configuration shared by every node pair (the attenuation of
        the specific span is applied per transfer through the channel model).
    emitted_photons:
        Mean photons per pulse at the source; the per-span stack transmission
        is applied before the packet is pushed through the link.
    seed:
        Root seed; per-link seeds are derived from it with
        :func:`~repro.simulation.randomness.split_seed`.
    backend:
        Registered link backend the bus transmits through (``None`` selects
        the default batch engine).  ``"batch"`` flushes each epoch's unicast
        groups in one segmented pass, other batch-capable backends in one
        transmission per group; the ``"scalar"`` backend replays the legacy
        packet-at-a-time slot loop.
    epoch_packets:
        Grants accumulated per epoch before a flush.  Any positive value
        yields the same arbitration (hence the same slots and latencies);
        larger epochs amortise more link work per transmission.
    kernel:
        Compute-kernel name (see :func:`repro.kernels.get_kernel`; ``None``
        defers to ``$REPRO_KERNEL`` / ``"auto"``).  :meth:`run` arbitrates
        through the kernel's ``arbitrate``, the same exact walk on every
        tier, so the kernel never changes grants, slots or statistics
        (locked by ``tests/test_kernels.py``).  The kernel also flows into
        the links of kernel-capable backends.
    """

    def __init__(
        self,
        topology: StackTopology,
        config: LinkConfig = LinkConfig(),
        emitted_photons: float = 2000.0,
        seed: int = 0,
        backend: Optional[str] = None,
        epoch_packets: int = 64,
        kernel: Optional[str] = None,
    ) -> None:
        if emitted_photons <= 0:
            raise ValueError("emitted_photons must be positive")
        if epoch_packets <= 0:
            raise ValueError("epoch_packets must be positive")
        self.topology = topology
        self.config = config
        self.emitted_photons = emitted_photons
        self._seed = seed
        self.backend = resolve_backend(backend)
        self.epoch_packets = epoch_packets
        self.kernel = kernel
        capabilities = backend_capabilities(self.backend)
        self._batched = capabilities.supports_batch
        # The link-level kernel only reaches backends that accept it; the
        # bus-level arbitration kernel applies regardless of backend.
        self._link_kernel = kernel if capabilities.supports_kernel else None
        self.arbiter = RoundRobinArbiter(topology.node_count)
        self.statistics = BusStatistics()
        self.outcomes: List[PacketOutcome] = []
        self._slot = 0  # persistent slot clock: run() continues, never rewinds
        self._links: Dict[Tuple[int, int], object] = {}
        self._broadcast_links: Dict[int, object] = {}
        self._broadcast_scalar_links: Dict[Tuple[int, int], object] = {}

    # -- link management ---------------------------------------------------------
    def link_seed(self, source: int, destination) -> int:
        """Derived seed of one span's link — the central seed policy.

        Distinct ``(source, destination)`` labels map to independent streams
        with overwhelming probability; no ``seed + node`` arithmetic, which
        could collide across links (``seed+7919*a+b == seed+7919*c+d`` has
        off-diagonal solutions).
        """
        return split_seed(self._seed, f"noc:link:{source}->{destination}")

    def _link_for(self, source: int, destination: int):
        """The (cached) PPM link model between two nodes, with span attenuation."""
        key = (source, destination)
        if key not in self._links:
            transmission = self.topology.channel_transmission(source, destination)
            config = self.config.with_detected_photons(self.emitted_photons * transmission)
            self._links[key] = make_link(
                config,
                backend=self.backend,
                seed=self.link_seed(source, destination),
                kernel=self._link_kernel,
            )
        return self._links[key]

    def _broadcast_receivers(self, source: int) -> List[int]:
        return [node for node in range(self.topology.node_count) if node != source]

    def _broadcast_link_for(self, source: int):
        """One multichannel link carrying a source's broadcasts to every die.

        Channel ``c`` is receiver ``c`` of :meth:`_broadcast_receivers`, at
        its own span attenuation (``channel_gains``) — the whole broadcast
        column is a single ``(S, C)`` pass.
        """
        if source not in self._broadcast_links:
            receivers = self._broadcast_receivers(source)
            gains = [
                self.topology.channel_transmission(source, node) for node in receivers
            ]
            self._broadcast_links[source] = make_link(
                self.config.with_detected_photons(self.emitted_photons),
                backend="multichannel",
                channels=len(receivers),
                channel_gains=gains,
                seed=self.link_seed(source, "broadcast"),
                kernel=self.kernel,
            )
        return self._broadcast_links[source]

    def _broadcast_scalar_link_for(self, source: int, node: int):
        """Per-receiver link of the scalar broadcast path (one die at a time)."""
        key = (source, node)
        if key not in self._broadcast_scalar_links:
            transmission = self.topology.channel_transmission(source, node)
            config = self.config.with_detected_photons(self.emitted_photons * transmission)
            self._broadcast_scalar_links[key] = make_link(
                config,
                backend=self.backend,
                seed=self.link_seed(source, f"broadcast:{node}"),
                kernel=self._link_kernel,
            )
        return self._broadcast_scalar_links[key]

    def span_transmission(self, source: int, destination: int) -> float:
        """Optical transmission of the span between two nodes."""
        return self.topology.channel_transmission(source, destination)

    # -- traffic -------------------------------------------------------------------
    def offer(self, packet: Packet, arrival_slot: int = 0) -> None:
        """Queue a packet at its source node, arriving at ``arrival_slot``.

        Per-node offers must come in arrival order (the arbiter's queues are
        FIFO per node).  ``arrival_slot`` is an integer slot: a bool or a
        fractional slot raises :class:`ValueError`.
        """
        if packet.source >= self.topology.node_count:
            raise ValueError("packet source is not a node of this topology")
        self.arbiter.request(packet.source, (packet, arrival_slot), arrival=arrival_slot)
        self.statistics.packets_offered += 1

    def symbol_slots_per_packet(self, packet: Packet) -> int:
        """Number of PPM symbols needed to carry a packet."""
        return packet.symbol_count(self.config.ppm_bits)

    def run(self, max_slots: int = 10_000) -> BusStatistics:
        """Drain the queued packets through the bus.

        The slot loop is two-phase.  **Arbitration** snapshots the arbiter's
        queues once and computes every grant of the call with the kernel's
        ``arbitrate`` (:func:`repro.kernels.round_robin_schedule` on every
        tier: idle slots skip to the next arrival), fixing every packet's
        slot span — this phase is identical for every backend, so latencies
        are too.  **Flushing** replays the grants in order and transmits
        each epoch's ``(source, destination)`` groups: one segmented pass
        for all unicast groups on ``"batch"``, one call per group on other
        batch backends, packet at a time on the scalar reference.  Packets
        still queued when ``max_slots`` runs out stay
        pending; a later ``run`` *continues* the slot clock where this one
        stopped (waiting time spans runs), it never rewinds to slot 0.
        """
        if max_slots <= 0:
            raise ValueError("max_slots must be positive")
        slot = self._slot
        horizon = slot + max_slots
        arrivals, items, bounds = self.arbiter.snapshot()
        node_count = self.topology.node_count
        costs = np.ones(arrivals.size, dtype=np.int64)
        deliverable = np.zeros(arrivals.size, dtype=bool)
        for index, (packet, _arrival) in enumerate(items):
            # Undeliverable unicast addresses burn exactly one slot.
            if packet.is_broadcast or packet.destination < node_count:
                deliverable[index] = True
                costs[index] = self.symbol_slots_per_packet(packet)
        arbitrate = get_kernel(self.kernel).arbitrate
        granted, starts, final_slot, final_rotation = arbitrate(
            arrivals, costs, bounds, self.arbiter.next_node, slot, horizon
        )
        item_nodes = np.searchsorted(bounds, granted, side="right") - 1
        epoch: List[_Grant] = []
        for index, start, source in zip(
            granted.tolist(), starts.tolist(), item_nodes.tolist()
        ):
            packet, arrival_slot = items[index]
            if not deliverable[index]:
                # Undeliverable unicast address: recorded as corrupted (one
                # outcome per offered packet, like every other path).
                self._record(
                    _Grant(
                        packet=packet,
                        source=source,
                        arrival_slot=arrival_slot,
                        start_slot=start,
                        end_slot=start + 1,
                    ),
                    packet.destination,
                    bit_errors=0,
                    bits_delivered=0,
                    delivered=False,
                )
                continue
            slots_used = int(costs[index])
            epoch.append(
                _Grant(
                    packet=packet,
                    source=source,
                    arrival_slot=arrival_slot,
                    start_slot=start,
                    end_slot=start + slots_used,
                )
            )
            self.statistics.busy_slots += slots_used
            if len(epoch) >= self.epoch_packets:
                self._flush_epoch(epoch)
                epoch = []
        self._flush_epoch(epoch)
        self.arbiter.commit_grants(
            np.bincount(item_nodes, minlength=node_count), final_rotation
        )
        self.statistics.total_slots += max(final_slot - self._slot, 1)
        self._slot = final_slot
        return self.statistics

    # -- epoch flushing ----------------------------------------------------------
    def _flush_epoch(self, epoch: List[_Grant]) -> None:
        """Transmit one epoch of grants and record its packets group by group."""
        groups: Dict[Tuple[int, object], List[_Grant]] = {}
        for entry in epoch:
            destination = "broadcast" if entry.packet.is_broadcast else entry.packet.destination
            groups.setdefault((entry.source, destination), []).append(entry)
        unicast = {key: entries for key, entries in groups.items() if key[1] != "broadcast"}
        errors = iter(self._unicast_bit_errors(unicast))
        for (source, destination), entries in groups.items():
            if destination == "broadcast":
                self._flush_broadcast(source, entries)
                continue
            for entry in entries:
                self._record_unicast(
                    entry, int(destination), next(errors), entry.packet.total_bits
                )

    def _unicast_bit_errors(self, groups: Dict[Tuple[int, object], List[_Grant]]) -> List[int]:
        """Bit errors of an epoch's unicast packets, group by group in grant order.

        The ``batch`` backend sends every group in one segmented pass
        (:func:`repro.core.fastlink.transmit_segments`), each group on its
        own link and stream; other batch backends send one call per group,
        and the scalar reference one call per packet.  Every packet is
        padded to whole symbols, and its errors are the mismatches over its
        own bits, read from one cumulative sum.
        """
        if not groups:
            return []
        links = [self._link_for(source, int(destination)) for source, destination in groups]
        if not self._batched:
            return [
                link.transmit_bits(entry.packet.serialize()).bit_errors
                for link, entries in zip(links, groups.values())
                for entry in entries
            ]
        k = self.config.ppm_bits
        entries = [entry for group in groups.values() for entry in group]
        padded = [entry.packet.padded_bits(k) for entry in entries]
        offsets = np.zeros(len(padded) + 1, dtype=np.int64)
        np.cumsum([bits.size for bits in padded], out=offsets[1:])
        firsts = np.zeros(len(groups) + 1, dtype=np.int64)
        np.cumsum([len(group) for group in groups.values()], out=firsts[1:])
        group_bits = offsets[firsts].tolist()
        sent = np.concatenate(padded)
        if self.backend == "batch":
            starts = [bit // k for bit in group_bits[:-1]]
            received = transmit_segments(links, sent, starts).received_bits
        else:
            received = np.concatenate(
                [
                    link.transmit_bits(sent[lo:hi]).received_bits
                    for link, lo, hi in zip(links, group_bits, group_bits[1:])
                ]
            )
        mismatches = np.zeros(sent.size + 1, dtype=np.int64)
        np.cumsum(sent != received, out=mismatches[1:])
        ends = offsets[:-1] + [entry.packet.total_bits for entry in entries]
        return (mismatches[ends] - mismatches[offsets[:-1]]).tolist()

    def _flush_broadcast(self, source: int, entries: List[_Grant]) -> None:
        receivers = self._broadcast_receivers(source)
        if not receivers:
            # A single-node "stack" has nobody to broadcast to; still one
            # (corrupted) outcome per offered packet.
            for entry in entries:
                self._record(
                    entry, entry.packet.destination, 0, 0, delivered=False
                )
            return
        k = self.config.ppm_bits
        channels = len(receivers)
        if self._batched:
            # One (S, C) pass for the whole epoch group: each packet's
            # symbols tiled across the C receiver channels by the shared
            # broadcast layout (repro.noc.broadcast defines it once).
            blocks: List[np.ndarray] = []
            spans: List[Tuple[int, int, int]] = []
            row = 0
            for entry in entries:
                padded = entry.packet.padded_bits(k)
                blocks.append(tile_symbols_for_receivers(padded, k, channels))
                rows = padded.size // k
                spans.append((row, rows, entry.packet.total_bits))
                row += rows
            link = self._broadcast_link_for(source)
            result = link.transmit_bits(np.concatenate(blocks))
            mismatches = (
                np.asarray(result.transmitted_bits)
                != np.asarray(result.received_bits)
            ).reshape(row, channels, k)
            for entry, (start, rows, bits) in zip(entries, spans):
                errors = per_receiver_bit_errors(
                    mismatches[start : start + rows], channels, bits
                )
                self._record_broadcast(entry, receivers, [int(e) for e in errors], bits)
        else:
            for entry in entries:
                bits = entry.packet.serialize()
                errors = []
                for node in receivers:
                    outcome = self._broadcast_scalar_link_for(source, node).transmit_bits(bits)
                    errors.append(int(outcome.bit_errors))
                self._record_broadcast(entry, receivers, errors, len(bits))

    # -- statistics --------------------------------------------------------------
    def _record(
        self,
        entry: _Grant,
        destination: int,
        bit_errors: int,
        bits_delivered: int,
        delivered: bool,
        receiver_errors: Mapping[int, int] = (),
    ) -> None:
        symbol_duration = self.config.symbol_duration
        latency = (entry.end_slot - entry.arrival_slot) * symbol_duration
        self.statistics.bits_delivered += bits_delivered
        self.statistics.bit_errors += bit_errors
        if delivered:
            self.statistics.packets_delivered += 1
            self.statistics.total_latency += latency
        else:
            self.statistics.packets_corrupted += 1
        self.outcomes.append(
            PacketOutcome(
                packet=entry.packet,
                source=entry.source,
                destination=destination,
                arrival_slot=entry.arrival_slot,
                start_slot=entry.start_slot,
                end_slot=entry.end_slot,
                bit_errors=bit_errors,
                delivered=delivered,
                latency=latency,
                receiver_errors=dict(receiver_errors),
            )
        )

    def _record_unicast(
        self, entry: _Grant, destination: int, errors: int, bits: int
    ) -> None:
        self._record(entry, destination, errors, bits, delivered=errors == 0)

    def _record_broadcast(
        self, entry: _Grant, receivers: List[int], errors: List[int], bits: int
    ) -> None:
        total = int(sum(errors))
        self._record(
            entry,
            entry.packet.destination,
            total,
            bits * len(receivers),
            delivered=total == 0,
            receiver_errors=dict(zip(receivers, errors)),
        )

    # -- figures of merit -------------------------------------------------------------
    def raw_slot_rate(self) -> float:
        """Symbol slots per second."""
        return 1.0 / self.config.symbol_duration

    def aggregate_bandwidth(self) -> float:
        """Peak payload bandwidth of the shared bus [bit/s]."""
        return self.config.raw_bit_rate

    def per_node_bandwidth(self) -> float:
        """Fair-share bandwidth per node under uniform load [bit/s]."""
        return self.aggregate_bandwidth() / self.topology.node_count
