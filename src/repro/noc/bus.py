"""The vertical optical bus.

A shared, time-slotted optical medium spanning the die stack: in each symbol
slot the arbiter grants one transmitter, whose micro-LED pulse is seen by the
SPAD of every other die (broadcast by construction).  The bus model is
behavioural — PPM transmission through the link model of each span with the
correct stack attenuation, plus queueing/latency statistics.

The bus carries its traffic as one :class:`TrafficTable`: one row per
offered packet (source, destination, sequence number, arrival slot, bit
count), with every packet's serialized bits zero-padded to whole PPM symbols
in one ``uint8`` buffer.  :meth:`OpticalBus.offer_many` appends a whole
traffic draw at once; :meth:`OpticalBus.offer` is its one-row case.

:meth:`OpticalBus.run` arbitrates the queued rows with one kernel call and
then sends all of the run's grants at once.  The grants fall into **epochs**
of ``epoch_packets`` deliverable rows, and a group is one epoch's rows of one
``(source, destination)`` pair.  Every link is reset at each of its groups,
so the epochs only set where each link restarts and how its draws are
sized.  On the ``"batch"`` backend every unicast group of the run is one
segment of **one** pass (:func:`repro.core.fastlink.transmit_segments`):
one PPM encode, one segmented detection over the groups' devices and one
segmented decode, each group on its own link's TDC (a run over
:data:`PASS_WINDOWS` windows, or whose groups' TDCs hold over
:data:`PASS_TAPS` taps, takes several passes of whole groups).  Each
group rides its pair's link, built through the backend registry
(:func:`repro.core.backend.make_link`), and draws from that link's own
random stream, a link's groups in epoch order, so every packet gets the bit
errors one call per group would give.  The ``"multichannel"`` backend sends
one call per group.  Broadcast packets go further: all receiving dies of a
slot are one ``(S, C)`` pass on the ``"multichannel"`` backend, with
per-receiver stack attenuations as channel gains, one call per epoch and
source.
Outcomes — slots, bit errors, delivery, latency, a broadcast's receiver
split — are columns of the table, and the statistics are updated once per
run; :attr:`OpticalBus.outcomes` builds :class:`PacketOutcome` objects from
the columns only when asked.

Arbitration — and therefore every slot assignment and latency — is identical
whatever the backend; only the error statistics are stochastic, and those are
*statistically* equivalent between the backends, per the backend contract
(locked by ``tests/test_noc_batching.py``).

Per-link seeds follow the central seed-derivation policy
(:func:`repro.simulation.randomness.split_seed`), so distinct
``(source, destination)`` links can never share a random stream.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from numbers import Integral
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.backend import make_link, resolve_backend
from repro.core.config import LinkConfig
from repro.core.fastlink import transmit_segments
from repro.kernels import get_kernel
from repro.modulation.symbols import bit_matrix_to_ints, ints_to_bit_matrix, symbol_bit_errors
from repro.noc.broadcast import per_receiver_bit_errors, tile_symbols_for_receivers
from repro.noc.packet import Packet, check_payload_bits
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
        """Accumulate another run's counters into this one (chunk aggregation)."""
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


@dataclass(eq=False)  # columns are arrays: compare them, not tables
class TrafficTable:
    """The bus's traffic: one row per offered packet, in offer order.

    The offered columns are ``source``, ``destination``, ``sequence``,
    ``arrival`` (slot), ``bits`` (header + payload) and ``symbols`` (PPM
    symbols, hence slots, the packet occupies).  Row ``i``'s serialized bits
    — header (destination, source, sequence, big-endian) then payload,
    zero-padded to whole symbols — are
    ``buffer[offset[i]:offset[i] + symbols[i] * ppm_bits]``.  The outcome
    columns fill in as the bus grants and records rows: ``start`` and
    ``end`` slots (``-1`` while queued), ``bit_errors``, ``delivered``,
    ``latency`` in seconds (NaN until recorded) and, on broadcast rows,
    ``receiver_errors`` (receiver node to bit errors; ``None`` elsewhere).
    """

    ppm_bits: int
    source: np.ndarray
    destination: np.ndarray
    sequence: np.ndarray
    arrival: np.ndarray
    bits: np.ndarray
    symbols: np.ndarray
    offset: np.ndarray
    buffer: np.ndarray
    start: np.ndarray
    end: np.ndarray
    bit_errors: np.ndarray
    delivered: np.ndarray
    latency: np.ndarray
    receiver_errors: np.ndarray

    @classmethod
    def build(
        cls,
        ppm_bits: int,
        sources: np.ndarray,
        destinations: np.ndarray,
        sequences: np.ndarray,
        arrivals: np.ndarray,
        payload_bits: np.ndarray,
        lengths: np.ndarray,
    ) -> "TrafficTable":
        """Queued rows of checked columns; ``payload_bits`` holds every
        payload's bits back to back, ``lengths`` their sizes."""
        rows = sources.size
        header = Packet.header_bit_count()
        bits = header + lengths
        symbols = -(-bits // ppm_bits)
        widths = symbols * ppm_bits
        words = (destinations << Packet.ADDRESS_BITS | sources) << Packet.SEQUENCE_BITS
        matrix = np.zeros((rows, int(widths.max(initial=header))), dtype=np.uint8)
        matrix[:, :header] = ints_to_bit_matrix(words | sequences, header)
        longest = int(lengths.max(initial=0))
        payload = matrix[:, header : header + longest]
        payload[np.arange(longest) < lengths[:, None]] = payload_bits
        offset = np.zeros(rows, dtype=np.int64)
        np.cumsum(widths[:-1], out=offset[1:])
        return cls(
            ppm_bits=ppm_bits,
            source=sources,
            destination=destinations,
            sequence=sequences,
            arrival=arrivals,
            bits=bits,
            symbols=symbols,
            offset=offset,
            buffer=matrix[np.arange(matrix.shape[1]) < widths[:, None]],
            start=np.full(rows, -1, dtype=np.int64),
            end=np.full(rows, -1, dtype=np.int64),
            bit_errors=np.zeros(rows, dtype=np.int64),
            delivered=np.zeros(rows, dtype=bool),
            latency=np.full(rows, np.nan),
            receiver_errors=np.full(rows, None, dtype=object),
        )

    @classmethod
    def empty(cls, ppm_bits: int) -> "TrafficTable":
        none = np.zeros(0, dtype=np.int64)
        return cls.build(ppm_bits, none, none, none, none, none, none)

    @classmethod
    def concatenate(cls, tables: Sequence["TrafficTable"]) -> "TrafficTable":
        """The rows of ``tables`` in order, in one table."""
        shifts = np.cumsum([0] + [table.buffer.size for table in tables[:-1]])
        columns = {
            name: np.concatenate([getattr(table, name) for table in tables])
            for name in (f.name for f in dataclasses.fields(cls))
            if name not in ("ppm_bits", "offset")
        }
        offset = np.concatenate([table.offset + shift for table, shift in zip(tables, shifts)])
        return cls(ppm_bits=tables[0].ppm_bits, offset=offset, **columns)

    def padded(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The rows' padded bits back to back (one gather), and where each starts."""
        widths = self.symbols[rows] * self.ppm_bits
        ends = np.cumsum(widths)
        starts = ends - widths
        index = np.arange(ends[-1]) + np.repeat(self.offset[rows] - starts, widths)
        return self.buffer[index], starts

    def row_bits(self, row: int) -> np.ndarray:
        """One row's serialized bits, without the symbol padding."""
        return self.buffer[self.offset[row] : self.offset[row] + self.bits[row]]

    def outcome(self, row: int) -> PacketOutcome:
        """Row ``row`` as a :class:`PacketOutcome` (with its :class:`Packet`)."""
        packet = Packet(
            source=int(self.source[row]),
            destination=int(self.destination[row]),
            payload=self.row_bits(row)[Packet.header_bit_count() :].tolist(),
            sequence=int(self.sequence[row]),
        )
        return PacketOutcome(
            packet=packet,
            source=packet.source,
            destination=packet.destination,
            arrival_slot=int(self.arrival[row]),
            start_slot=int(self.start[row]),
            end_slot=int(self.end[row]),
            bit_errors=int(self.bit_errors[row]),
            delivered=bool(self.delivered[row]),
            latency=float(self.latency[row]),
            receiver_errors=dict(self.receiver_errors[row] or {}),
        )


def _positive_count(name: str, value) -> int:
    """``value`` as a positive int; a bool, a fraction or NaN raises."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value <= 0:
        raise ValueError(f"{name} must be positive")
    return int(value)


def _integers(values, name: str) -> np.ndarray:
    """A 1-D ``int64`` copy of ``values``; an element that is no integer raises.

    An integer array needs no element check.  Anything else is checked
    element by element as :class:`Packet` checks a field: a bool is an int
    but no node, slot or sequence number, and a float is refused even when
    whole.
    """
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu"):
        for value in values:
            if type(value) is not int and not isinstance(value, np.integer):
                raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        column = np.array(values, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{name} out of range") from None
    if column.ndim != 1:
        raise ValueError(f"{name} must be one value per packet")
    return column


def _payload_bits(payloads) -> Tuple[np.ndarray, np.ndarray]:
    """Every payload's bits back to back, as booleans, and each payload's length.

    A 2-D numeric array (one payload per row) is checked in one pass; any
    other sequence of payloads one by one with :func:`check_payload_bits`,
    the check of :class:`Packet`.
    """
    if isinstance(payloads, np.ndarray) and payloads.ndim == 2 and payloads.dtype.kind in "biufc":
        rows, width = payloads.shape
        if rows and not width:
            raise ValueError("payload must be non-empty")
        if not ((payloads == 0) | (payloads == 1)).all():
            raise ValueError("payload bits must be 0 or 1")
        return (payloads != 0).ravel(), np.full(rows, width, dtype=np.int64)
    for payload in payloads:
        check_payload_bits(payload)
    lengths = np.array([len(payload) for payload in payloads], dtype=np.int64)
    bits = [np.asarray(payload) != 0 for payload in payloads]
    return np.concatenate(bits) if bits else np.zeros(0, dtype=bool), lengths


def _groups(rows: np.ndarray, labels: np.ndarray) -> List[np.ndarray]:
    """``rows`` split wherever the (grouped) ``labels`` change."""
    return np.split(rows, np.flatnonzero(np.diff(labels)) + 1) if rows.size else []


#: The most windows one segmented unicast pass takes.  A scenario chunk's
#: bus run, about 7.5k windows, is one pass; the bound keeps a run of any
#: chunk size from sizing its detection temporaries to the whole run.
PASS_WINDOWS = 1 << 16

#: The most TDC taps one pass's decode tables hold: the decode copies one
#: tap table per group (on its link's TDC) into one array, so many groups on
#: long delay lines would size that copy to the whole run.  A chunk's run on
#: the default TDC holds about 5k; groups on 2**20-element TDCs go one a pass.
PASS_TAPS = 1 << 20


def _passes(windows: Sequence[int], taps: Sequence[int]) -> List[Tuple[int, int]]:
    """Consecutive ``[lo, hi)`` ranges of groups, given each group's window
    and tap counts: whole groups of at most :data:`PASS_WINDOWS` windows and
    :data:`PASS_TAPS` taps each (a group over either goes alone)."""
    bounds, pass_windows, pass_taps = [0], 0, 0
    for index, (count, tap_count) in enumerate(zip(windows, taps)):
        if pass_windows and (
            pass_windows + count > PASS_WINDOWS or pass_taps + tap_count > PASS_TAPS
        ):
            bounds.append(index)
            pass_windows = pass_taps = 0
        pass_windows += count
        pass_taps += tap_count
    bounds.append(len(windows))
    return list(zip(bounds, bounds[1:]))


class OpticalBus:
    """A slotted, arbiter-controlled optical bus over a die stack.

    Parameters
    ----------
    topology:
        The die stack and node layout: at most 255 nodes, since packets
        carry 8-bit addresses and the last one is broadcast.
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
        the default batch engine).  ``"batch"`` sends a run's unicast groups
        in one segmented pass, ``"multichannel"`` in one transmission per
        group.
    epoch_packets:
        Deliverable grants per epoch (a positive int).  Each link restarts
        (a fresh detector) at every epoch it carries and sizes its draws by
        that epoch's rows, so the value sets the sample path; it amortises
        nothing, since a run is one pass whatever its epochs.  Any value
        yields the same arbitration (hence the same slots and latencies).

    :meth:`run` arbitrates through the resolved compute kernel's
    ``arbitrate`` (:func:`repro.kernels.get_kernel`), the same exact walk on
    every tier, so the kernel never changes grants, slots or statistics
    (locked by ``tests/test_kernels.py``).
    """

    def __init__(
        self,
        topology: StackTopology,
        config: LinkConfig = LinkConfig(),
        emitted_photons: float = 2000.0,
        seed: int = 0,
        backend: Optional[str] = None,
        epoch_packets: int = 64,
    ) -> None:
        if not emitted_photons > 0:  # NaN fails too
            raise ValueError(f"emitted_photons must be positive, got {emitted_photons!r}")
        if topology.node_count > Packet.BROADCAST:  # 8-bit addresses, the last is broadcast
            raise ValueError(
                f"a bus addresses at most {Packet.BROADCAST} nodes, got {topology.node_count}"
            )
        self.topology = topology
        self.config = config
        self.emitted_photons = emitted_photons
        self._seed = seed
        self.backend = resolve_backend(backend)
        self.epoch_packets = _positive_count("epoch_packets", epoch_packets)
        self.statistics = BusStatistics()
        nodes = topology.node_count
        self._traffic = TrafficTable.empty(config.ppm_bits)
        self._offered: List[TrafficTable] = []  # offers not yet in the table
        self._recorded: List[np.ndarray] = []  # recorded rows not yet in outcomes
        self._outcomes: List[PacketOutcome] = []
        self._queued = np.zeros(nodes, dtype=np.int64)  # queued rows per node
        self._tail = np.zeros(nodes, dtype=np.int64)  # each node's last arrival
        self._next_node = 0  # round-robin rotation pointer
        self._slot = 0  # persistent slot clock: run() continues, never rewinds
        self._links: Dict[Tuple[int, int], object] = {}
        self._broadcast_links: Dict[int, object] = {}

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
            )
        return self._broadcast_links[source]

    def span_transmission(self, source: int, destination: int) -> float:
        """Optical transmission of the span between two nodes."""
        return self.topology.channel_transmission(source, destination)

    # -- traffic -------------------------------------------------------------------
    def offer(self, packet: Packet, arrival_slot: int = 0) -> None:
        """Queue a packet at its source node, arriving at ``arrival_slot``.

        The one-row case of :meth:`offer_many`: per-node offers must come in
        arrival order (each node's queue is FIFO), and ``arrival_slot`` is an
        integer slot — a bool or a fractional slot raises :class:`ValueError`.
        """
        self.offer_many(
            [packet.source], [packet.destination], [packet.payload], [arrival_slot],
            [packet.sequence],
        )

    def offer_many(self, sources, destinations, payloads, arrival_slots, sequences) -> None:
        """Queue many packets at once, as rows of the traffic table.

        Row ``i`` is ``Packet(sources[i], destinations[i], payloads[i],
        sequences[i])`` arriving at ``arrival_slots[i]``.  ``payloads`` is a
        2-D array (one payload per row) or a sequence of bit sequences of any
        lengths.  The rows are checked as :class:`Packet` and :meth:`offer`
        check one packet: integer (not bool) addresses below 256 and
        sequence numbers below 2**16, payloads of 0/1 bits, a source inside
        the topology, and non-negative integer arrival slots that never
        decrease per source, also against the rows already queued there.  A
        bad row raises :class:`ValueError` and queues nothing.
        """
        sources = _integers(sources, "source")
        destinations = _integers(destinations, "destination")
        sequences = _integers(sequences, "sequence")
        arrivals = _integers(arrival_slots, "arrival slot")
        if not sources.size == destinations.size == sequences.size == arrivals.size == len(payloads):
            raise ValueError("offer_many needs one value of every field per packet")
        limit = 1 << Packet.ADDRESS_BITS
        for name, column in (("source", sources), ("destination", destinations)):
            if ((column < 0) | (column >= limit)).any():
                raise ValueError(f"{name} must be within [0, {limit})")
        if ((sequences < 0) | (sequences >= 1 << Packet.SEQUENCE_BITS)).any():
            raise ValueError("sequence number out of range")
        payload_bits, lengths = _payload_bits(payloads)
        if (sources >= self.topology.node_count).any():
            raise ValueError("packet source is not a node of this topology")
        if (arrivals < 0).any():
            raise ValueError("arrival slot must be non-negative")
        # Per node, in offer order: each arrival against the one before it,
        # a node's first against its queue's last (if anything is queued).
        order = np.argsort(sources, kind="stable")
        nodes, slots = sources[order], arrivals[order]
        first = np.ones(nodes.size, dtype=bool)
        first[1:] = nodes[1:] != nodes[:-1]
        previous = np.roll(slots, 1)
        previous[first] = np.where(self._queued[nodes[first]] > 0, self._tail[nodes[first]], 0)
        late = np.flatnonzero(slots < previous)
        if late.size:
            row = late[np.argmin(order[late])]
            raise ValueError(
                f"requests for node {nodes[row]} must be enqueued in arrival order "
                f"(got arrival {slots[row]} after arrival {previous[row]})"
            )
        if not sources.size:
            return
        last = np.roll(first, -1)
        self._tail[nodes[last]] = slots[last]
        self._queued += np.bincount(sources, minlength=self._queued.size)
        self._offered.append(
            TrafficTable.build(
                self.config.ppm_bits, sources, destinations, sequences, arrivals,
                payload_bits, lengths,
            )
        )
        self.statistics.packets_offered += sources.size

    @property
    def traffic(self) -> TrafficTable:
        """The traffic table: every offered row with its outcome columns."""
        if self._offered:
            self._traffic = TrafficTable.concatenate([self._traffic, *self._offered])
            self._offered = []
        return self._traffic

    @property
    def outcomes(self) -> List[PacketOutcome]:
        """Every recorded packet's :class:`PacketOutcome`, in record order.

        Built from the table's columns on first access and extended by later
        runs; the bus itself records columns, not objects.
        """
        if self._recorded:
            table = self.traffic
            rows = np.concatenate(self._recorded).tolist()
            self._outcomes.extend(table.outcome(row) for row in rows)
            self._recorded = []
        return self._outcomes

    def good_bits(self) -> int:
        """Bits of the error-free packets; a broadcast counts every receiver's copy."""
        table = self.traffic
        delivered = table.delivered
        return int(table.bits[delivered] @ self._copies(table.destination[delivered]))

    def run(self, max_slots: int = 10_000) -> BusStatistics:
        """Drain the queued packets through the bus.

        The slot loop is two-phase.  **Arbitration** hands the kernel's
        ``arbitrate`` (:func:`repro.kernels.round_robin_schedule` on every
        tier: idle slots skip to the next arrival) a snapshot of the queued
        rows — grouped by source, each source's rows in offer order — and
        fixes every grant's slot span in one call; this phase is identical
        for every backend, so latencies are too.  **Flushing** cuts the
        grants into epochs of ``epoch_packets`` deliverable rows, groups
        them by ``(epoch, source, destination)`` in one vectorised step and
        transmits the whole run's groups: one segmented pass for every
        unicast group on ``"batch"`` (several passes of whole groups past
        :data:`PASS_WINDOWS` windows or :data:`PASS_TAPS` TDC taps), one
        call per group on ``"multichannel"``, and one broadcast call per
        epoch and source.  The run is recorded once, epoch by epoch: each
        epoch's undeliverable rows, then its groups.  A unicast row to no node of the topology
        burns one slot and is recorded undelivered.  Rows still queued when
        ``max_slots`` (a positive int) runs out stay queued; a later ``run``
        *continues* the slot clock where this one stopped (waiting time
        spans runs), it never rewinds to slot 0.
        """
        max_slots = _positive_count("max_slots", max_slots)
        table = self.traffic
        nodes = self.topology.node_count
        queued = np.flatnonzero(table.start < 0)
        queued = queued[np.argsort(table.source[queued], kind="stable")]
        bounds = np.zeros(nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(table.source[queued], minlength=nodes), out=bounds[1:])
        destinations = table.destination[queued]
        deliverable = (destinations == Packet.BROADCAST) | (destinations < nodes)
        costs = np.where(deliverable, table.symbols[queued], 1)
        granted, starts, final_slot, self._next_node = get_kernel().arbitrate(
            table.arrival[queued], costs, bounds, self._next_node, self._slot,
            self._slot + max_slots,
        )
        rows = queued[granted]
        table.start[rows] = starts
        table.end[rows] = starts + costs[granted]
        self._queued -= np.bincount(table.source[rows], minlength=nodes)
        carried = deliverable[granted]
        self.statistics.busy_slots += int(costs[granted][carried].sum())
        if rows.size:
            self._flush(rows, carried)
        self.statistics.total_slots += max(final_slot - self._slot, 1)
        self._slot = final_slot
        return self.statistics

    # -- flushing ----------------------------------------------------------------
    def _flush(self, rows: np.ndarray, carried: np.ndarray) -> None:
        """Transmit a run's grants and record them, epoch after epoch.

        ``rows`` are the granted rows in grant order, ``carried`` marks the
        deliverable ones.  Epoch ``e`` holds deliverable grants ``e*E ..
        e*E + E - 1`` (``E = epoch_packets``), after the undeliverable ones
        granted since epoch ``e - 1``'s last.  A group is an ``(epoch,
        source, destination)`` triple — a source's broadcasts of an epoch
        are one group — in first-grant order, grant order inside a group.
        Record order is each epoch's undeliverable rows, then its groups;
        one stable sort gives it.  Each row's bit errors (and a broadcast's
        receiver split) land in the table.
        """
        table = self._traffic
        epochs = (np.cumsum(carried) - carried) // self.epoch_packets
        keys = (
            epochs << 2 * Packet.ADDRESS_BITS
            | table.source[rows] << Packet.ADDRESS_BITS
            | table.destination[rows]
        )
        _, firsts, groups = np.unique(keys, return_index=True, return_inverse=True)
        # Each row's label: 1 + its group's first grant, 0 if undeliverable.
        labels = np.where(carried, firsts[groups] + 1, 0)
        order = np.argsort(epochs * (rows.size + 1) + labels, kind="stable")
        rows, labels = rows[order], labels[order]
        broadcast = table.destination[rows] == Packet.BROADCAST
        unicast = (labels > 0) & ~broadcast
        if unicast.any():
            table.bit_errors[rows[unicast]] = self._unicast_bit_errors(
                _groups(rows[unicast], labels[unicast])
            )
        for group in _groups(rows[broadcast], labels[broadcast]):
            self._flush_broadcast(group)
        self._record(rows)

    def _unicast_bit_errors(self, groups: List[np.ndarray]) -> np.ndarray:
        """Bit errors of a run's unicast rows, group by group in grant order.

        ``groups`` holds the rows of each ``(epoch, source, destination)``
        group.  The ``batch`` backend sends the groups in segmented passes
        (:func:`repro.core.fastlink.transmit_segments`) of whole groups, at
        most :data:`PASS_WINDOWS` windows and :data:`PASS_TAPS` TDC taps
        each (a larger group alone), each group on its own link and stream
        — one pass for a run of ordinary size.  The ``multichannel`` backend
        sends one call per group.  A pass's padded bits are one gather from
        the table's buffer.
        """
        table = self._traffic
        links = [
            self._link_for(int(table.source[group[0]]), int(table.destination[group[0]]))
            for group in groups
        ]
        k = self.config.ppm_bits
        heads = np.cumsum([0] + [group.size for group in groups[:-1]])
        windows = np.add.reduceat(table.symbols[np.concatenate(groups)], heads)
        taps = [link.tdc.fine_elements for link in links]
        errors = []
        for lo, hi in _passes(windows.tolist(), taps):
            rows = np.concatenate(groups[lo:hi])
            sent, starts = table.padded(rows)
            firsts = starts[heads[lo:hi] - heads[lo]]  # each group's first bit
            if self.backend == "batch":
                sent_pass = transmit_segments(links[lo:hi], sent, firsts // k)
                values, decoded = sent_pass.values, sent_pass.decoded
            else:
                bounds = firsts.tolist() + [sent.size]
                values = bit_matrix_to_ints(sent.reshape(-1, k))
                decoded = np.concatenate(
                    [
                        link.transmit_bits(sent[start:stop]).decoded_values
                        for link, start, stop in zip(links[lo:hi], bounds, bounds[1:])
                    ]
                )
            # Each row's errors: its symbols' counts over its own bits (its
            # padding masked), summed.
            counts = symbol_bit_errors(values, decoded, k, table.bits[rows])
            errors.append(np.add.reduceat(counts, starts // k, dtype=np.int64))
        return np.concatenate(errors)

    def _flush_broadcast(self, rows: np.ndarray) -> None:
        """Send one source's broadcast rows of an epoch to every other die."""
        table = self._traffic
        source = int(table.source[rows[0]])
        receivers = self._broadcast_receivers(source)
        if not receivers:
            return  # a single-node "stack": nobody to receive, recorded undelivered
        k = self.config.ppm_bits
        # One (S, C) pass for the whole group: the rows' symbols tiled across
        # the C receiver channels by the shared broadcast layout
        # (repro.noc.broadcast defines it once).
        sent, starts = table.padded(rows)
        link = self._broadcast_link_for(source)
        result = link.transmit_bits(tile_symbols_for_receivers(sent, k, len(receivers)))
        errors = per_receiver_bit_errors(sent, result.decoded_values, k, starts, table.bits[rows])
        table.bit_errors[rows] = errors.sum(axis=1)
        for row, split in zip(rows.tolist(), errors.tolist()):
            table.receiver_errors[row] = dict(zip(receivers, split))

    # -- statistics --------------------------------------------------------------
    def _copies(self, destinations: np.ndarray) -> np.ndarray:
        """Receivers each row's bits go to: every other die for a broadcast,
        one for a unicast, none for an address outside the topology."""
        nodes = self.topology.node_count
        return np.where(destinations == Packet.BROADCAST, nodes - 1, destinations < nodes)

    def _record(self, rows: np.ndarray) -> None:
        """Record a run's rows, in record order, and update the statistics once."""
        table = self._traffic
        copies = self._copies(table.destination[rows])
        errors = table.bit_errors[rows]
        delivered = (errors == 0) & (copies > 0)
        latency = (table.end[rows] - table.arrival[rows]) * self.config.symbol_duration
        table.delivered[rows] = delivered
        table.latency[rows] = latency
        statistics = self.statistics
        statistics.bits_delivered += int(table.bits[rows] @ copies)
        statistics.bit_errors += int(errors.sum())
        count = int(delivered.sum())
        statistics.packets_delivered += count
        statistics.packets_corrupted += rows.size - count
        # A sequential sum in record order: np.sum's pairwise order would
        # move the last digits of mean_latency.
        statistics.total_latency = float(
            np.add.accumulate(np.append(statistics.total_latency, latency[delivered]))[-1]
        )
        self._recorded.append(rows)

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
