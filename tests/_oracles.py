"""Test oracles: plain loops the engines no longer run.

:func:`resolve_windows` is the window-by-window multichannel resolver the
array pass ran before it became one segmented ``scan_windows`` call.  It
defines what an array pass computes from its draws, so
``tests/test_kernels.py::TestResolveBitIdentity`` holds the channel-major
layout (:func:`repro.spad.array.channel_major_draws`) and every tier's scan
to it bit for bit.  Origin codes are literals, as in
:mod:`repro.kernels.reference`: ``0`` photon, ``1`` dark count, ``2``
afterpulse, ``3`` crosstalk, ``-1`` missed.

:class:`RoundRobinArbiter` grants the bus one request at a time.  The bus
arbitrates with the kernels' exact walk
(:func:`repro.kernels.round_robin_schedule`) instead, and
``tests/test_kernels.py`` holds that walk to this arbiter: the walk runs on
:meth:`RoundRobinArbiter.snapshot`, :meth:`RoundRobinArbiter.commit_grants`
applies its outcome, and grants and queues must match repeated
:meth:`RoundRobinArbiter.grant` calls.

:func:`epoch_by_epoch_run` is :meth:`repro.noc.bus.OpticalBus.run` as it
flushed before a run became one pass: each epoch of ``epoch_packets``
deliverable grants on its own, one link call per ``(source, destination)``
group and one statistics update per epoch.
``tests/test_noc_batching.py::TestRunPass`` holds the bus's run to it.
"""

import heapq
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

_INF = float("inf")
_NAN = float("nan")


def resolve_windows(
    primary: np.ndarray,
    secondary: np.ndarray,
    dark_rel: np.ndarray,
    dark_bounds: np.ndarray,
    background_rel: np.ndarray,
    background_bounds: np.ndarray,
    trap_filled: np.ndarray,
    trap_release: np.ndarray,
    dead_time: float,
    gate_recovery: float,
    duration: float,
    base: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-channel window resolution of the multichannel array pass.

    ``primary`` is ``(S, C)`` absolute candidate times (``inf`` = none),
    ``secondary`` the interference candidates stacked to ``(K, S, C)``, dark
    and background events CSR-indexed over the flat ``(S*C,)`` window/channel
    grid.  Channels are independent pixels, so the scan runs channel-major.
    Candidate precedence: primary, secondaries in order, darks, background,
    pending afterpulse — later sources win only when strictly earlier.  A
    trap release before a window's end is consumed whether or not it fired;
    a firing window samples the next release.

    No tier runs this loop; it is the oracle the array pass's channel-major
    segmented scan is tested against.
    """
    windows, channels = primary.shape
    n_secondary = int(secondary.shape[0])
    out_times = np.full((windows, channels), _NAN)
    out_origins = np.full((windows, channels), -1, dtype=np.int8)
    dark_rel_l = dark_rel.tolist()
    dark_bounds_l = dark_bounds.tolist()
    background_rel_l = background_rel.tolist()
    background_bounds_l = background_bounds.tolist()
    for c in range(channels):
        last_fire = -_INF
        pending = _INF
        for s in range(windows):
            ws = base + s * duration
            we = ws + duration
            if ws - last_fire >= gate_recovery:
                ready = ws
            else:
                ready = last_fire + dead_time
            best = _INF
            origin = -1
            t = primary[s, c]
            if np.isfinite(t) and t >= ready:
                best = t
                origin = 0
            for k in range(n_secondary):
                t = secondary[k, s, c]
                if t >= ready and t < best:
                    best = t
                    origin = 3
            flat = s * channels + c
            for j in range(dark_bounds_l[flat], dark_bounds_l[flat + 1]):
                t_abs = ws + dark_rel_l[j]
                if t_abs >= ready and t_abs < best:
                    best = t_abs
                    origin = 1
            for j in range(background_bounds_l[flat], background_bounds_l[flat + 1]):
                t_abs = ws + background_rel_l[j]
                if t_abs >= ready and t_abs < best:
                    best = t_abs
                    origin = 3
            if pending >= ws and pending < we and pending >= ready and pending < best:
                best = pending
                origin = 2
            consumed = pending < we
            if origin >= 0:
                out_times[s, c] = best
                out_origins[s, c] = origin
                last_fire = best
                if trap_filled[s, c]:
                    pending = best + trap_release[s, c]
                else:
                    pending = _INF
            elif consumed:
                pending = _INF
    return out_times, out_origins


class RoundRobinArbiter:
    """Work-conserving round-robin arbitration over requesting nodes.

    Requests carry an optional *arrival slot*: :meth:`grant` called with the
    current slot only considers requests that have already arrived, so offered
    load shapes queueing the way it does on real slotted buses.  Called
    without a slot, every pending request is eligible (the legacy
    drain-everything behaviour).
    """

    def __init__(self, node_count: int) -> None:
        if node_count <= 0:
            raise ValueError("node_count must be positive")
        self.node_count = node_count
        # Each queue holds (arrival_slot, item); heads stay arrival-ordered
        # because requests are enqueued in arrival order per node.
        self._pending: Dict[int, Deque[tuple]] = {node: deque() for node in range(node_count)}
        self._next = 0
        self._grants = 0
        # Lazy-deletion min-heap over (arrival, node) of every request ever
        # enqueued; next_arrival() pops entries that no longer match their
        # node's queue head instead of scanning all nodes.
        self._heads: List[Tuple[int, int]] = []

    def request(self, node: int, item: object, arrival: int = 0) -> None:
        """Enqueue a transmission request for ``node``, arriving at ``arrival``.

        Both are integers (NumPy integers included); a bool or a fractional
        slot is refused, since the bus would grant it a slot it never names.
        """
        if type(node) is not int and not isinstance(node, np.integer):
            raise ValueError(f"node must be an integer, got {node!r}")
        if type(arrival) is not int and not isinstance(arrival, np.integer):
            raise ValueError(f"arrival slot must be an integer, got {arrival!r}")
        if node not in self._pending:
            raise ValueError(f"unknown node {node}")
        if arrival < 0:
            raise ValueError("arrival slot must be non-negative")
        queue = self._pending[node]
        if queue and queue[-1][0] > arrival:
            raise ValueError(
                f"requests for node {node} must be enqueued in arrival order "
                f"(got arrival {arrival} after arrival {queue[-1][0]})"
            )
        queue.append((arrival, item))
        heapq.heappush(self._heads, (arrival, node))

    def pending_count(self, node: Optional[int] = None) -> int:
        if node is None:
            return sum(len(queue) for queue in self._pending.values())
        return len(self._pending[node])

    def next_arrival(self) -> Optional[int]:
        """Earliest arrival slot among pending requests (``None`` when empty).

        The slot at which an idling bus next has work — callers skip idle
        slots to it instead of polling slot by slot.  Amortised O(1): the
        head heap is consulted top-down and stale entries (items already
        granted) are discarded lazily, so the total cleanup work over a run
        is bounded by the number of requests ever enqueued.
        """
        while self._heads:
            arrival, node = self._heads[0]
            queue = self._pending[node]
            # Every queued item was pushed on the heap, so the heap top is a
            # lower bound on every current head; when it still matches its
            # node's head it IS the minimum.
            if queue and queue[0][0] == arrival:
                return arrival
            heapq.heappop(self._heads)
        return None

    def grant(self, slot: Optional[int] = None) -> Optional[tuple]:
        """Grant the bus to the next requesting node.

        Returns ``(node, item)`` or ``None`` when no node has an *eligible*
        request — pending work that has arrived by ``slot`` (any pending work
        when ``slot`` is ``None``).  The rotation pointer only advances past
        the granted node, preserving fairness under sustained load.
        """
        for offset in range(self.node_count):
            node = (self._next + offset) % self.node_count
            queue = self._pending[node]
            if queue and (slot is None or queue[0][0] <= slot):
                _, item = queue.popleft()
                self._next = (node + 1) % self.node_count
                self._grants += 1
                return node, item
        return None

    def snapshot(self) -> Tuple[np.ndarray, List[object], np.ndarray]:
        """Flatten the pending queues for the arbitration kernel.

        Returns ``(arrivals, items, node_bounds)``: every queued item's
        arrival slot and payload grouped by node in queue order, with CSR
        bounds mapping node ``n`` to ``arrivals[node_bounds[n]:node_bounds[n+1]]``
        — the layout :func:`repro.kernels.round_robin_schedule` consumes.
        The queues are not modified; pair with :meth:`commit_grants`.
        """
        arrivals: List[int] = []
        items: List[object] = []
        bounds = np.zeros(self.node_count + 1, dtype=np.int64)
        for node in range(self.node_count):
            for arrival, item in self._pending[node]:
                arrivals.append(arrival)
                items.append(item)
            bounds[node + 1] = len(arrivals)
        return np.asarray(arrivals, dtype=np.int64), items, bounds

    def commit_grants(self, granted_per_node: Sequence[int], next_pointer: int) -> None:
        """Apply the outcome of a scheduled epoch computed from a snapshot.

        Pops ``granted_per_node[n]`` items from the head of node ``n``'s
        queue (the kernel grants strictly in queue order) and moves the
        rotation pointer to ``next_pointer``, keeping :attr:`grants_issued`
        and :meth:`next_arrival` consistent with the scalar grant loop.
        """
        total = 0
        for node, count in enumerate(granted_per_node):
            count = int(count)
            queue = self._pending[node]
            if count > len(queue):
                raise ValueError(
                    f"cannot commit {count} grants for node {node}: "
                    f"only {len(queue)} pending"
                )
            for _ in range(count):
                queue.popleft()
            total += count
        self._next = int(next_pointer) % self.node_count
        self._grants += total

    @property
    def next_node(self) -> int:
        """The rotation pointer: first node considered by the next grant."""
        return self._next

    @property
    def grants_issued(self) -> int:
        return self._grants


def epoch_by_epoch_run(bus, max_slots: int = 10_000):
    """Drain ``bus`` as one :meth:`OpticalBus.run` call, flushing epoch by epoch.

    Arbitration is the bus's own: one kernel call fixes every grant's slot
    span.  The grants then go out in epochs: epoch ``e`` holds deliverable
    grants ``e*E .. e*E + E - 1`` (``E = bus.epoch_packets``), after the
    undeliverable ones granted since epoch ``e - 1``'s last.  Each epoch
    records its undeliverable rows first, then its ``(source, destination)``
    groups in first-grant order, rows in grant order.  A unicast group is
    one ``transmit_bits`` call on its link with the rows' padded bits back
    to back (one call per packet on the scalar backend), and each packet
    counts the mismatches over its own bits; a source's broadcasts go
    through the bus's broadcast flush.  The statistics are updated once per
    epoch.  Returns ``bus.statistics``.
    """
    from repro.kernels import get_kernel
    from repro.noc.packet import Packet

    table = bus.traffic
    nodes = bus.topology.node_count
    queued = np.flatnonzero(table.start < 0)
    queued = queued[np.argsort(table.source[queued], kind="stable")]
    bounds = np.zeros(nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(table.source[queued], minlength=nodes), out=bounds[1:])
    destinations = table.destination[queued]
    deliverable = (destinations == Packet.BROADCAST) | (destinations < nodes)
    costs = np.where(deliverable, table.symbols[queued], 1)
    granted, starts, final_slot, bus._next_node = get_kernel().arbitrate(
        table.arrival[queued], costs, bounds, bus._next_node, bus._slot,
        bus._slot + max_slots,
    )
    rows = queued[granted]
    table.start[rows] = starts
    table.end[rows] = starts + costs[granted]
    bus._queued -= np.bincount(table.source[rows], minlength=nodes)
    carried = deliverable[granted]
    bus.statistics.busy_slots += int(costs[granted][carried].sum())
    epoch: List[int] = []
    flushed = 0
    for row, carries in zip(rows.tolist(), carried.tolist()):
        if flushed == bus.epoch_packets:
            _flush_one_epoch(bus, epoch)
            epoch, flushed = [], 0
        epoch.append(row)
        flushed += carries
    if epoch:
        _flush_one_epoch(bus, epoch)
    bus.statistics.total_slots += max(final_slot - bus._slot, 1)
    bus._slot = final_slot
    return bus.statistics


def _flush_one_epoch(bus, epoch: List[int]) -> None:
    """Send and record one epoch's rows, given in grant order."""
    from repro.noc.packet import Packet

    table = bus.traffic
    nodes = bus.topology.node_count
    undeliverable: List[int] = []
    groups: Dict[Tuple[int, int], List[int]] = {}
    for row in epoch:
        destination = int(table.destination[row])
        if destination != Packet.BROADCAST and destination >= nodes:
            undeliverable.append(row)
        else:
            groups.setdefault((int(table.source[row]), destination), []).append(row)
    k = bus.config.ppm_bits
    for (source, destination), group in groups.items():
        if destination == Packet.BROADCAST:
            bus._flush_broadcast(np.array(group, dtype=np.int64))
            continue
        link = bus._link_for(source, destination)
        if not bus._batched:
            for row in group:
                table.bit_errors[row] = link.transmit_bits(table.row_bits(row)).bit_errors
            continue
        padded = [
            table.buffer[table.offset[row] : table.offset[row] + table.symbols[row] * k]
            for row in group
        ]
        result = link.transmit_bits(np.concatenate(padded))
        mismatches = np.asarray(result.transmitted_bits) != np.asarray(result.received_bits)
        cursor = 0
        for row, bits in zip(group, padded):
            table.bit_errors[row] = int(mismatches[cursor : cursor + table.bits[row]].sum())
            cursor += bits.size
    order = undeliverable + [row for group in groups.values() for row in group]
    bus._record(np.array(order, dtype=np.int64))
