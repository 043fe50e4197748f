"""Bus arbitration.

The optical bus is a shared broadcast medium: every die's SPAD sees every
pulse, so only one transmitter may own a symbol slot at a time.  Two classic
schemes are provided:

* :class:`TdmaSchedule` — a fixed time-division schedule (each die owns a
  recurring slot), zero arbitration latency but wasted slots under asymmetric
  load; and
* :class:`RoundRobinArbiter` — a work-conserving round-robin over the dies
  that actually have pending packets.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class TdmaSchedule:
    """Static slot ownership: slot ``t`` belongs to ``owners[t % len(owners)]``."""

    owners: Sequence[int]

    def __post_init__(self) -> None:
        if len(self.owners) == 0:
            raise ValueError("a TDMA schedule needs at least one owner")
        if any(owner < 0 for owner in self.owners):
            raise ValueError("owner ids must be non-negative")

    @property
    def frame_length(self) -> int:
        return len(self.owners)

    def owner_of_slot(self, slot: int) -> int:
        if slot < 0:
            raise ValueError("slot must be non-negative")
        return self.owners[slot % self.frame_length]

    def owners_of_slots(self, slots: Sequence[int]) -> np.ndarray:
        """Vectorised :meth:`owner_of_slot` over an array of slots."""
        slots = np.asarray(slots, dtype=np.int64)
        if slots.size and int(slots.min()) < 0:
            raise ValueError("slot must be non-negative")
        return np.asarray(self.owners, dtype=np.int64)[slots % self.frame_length]

    def slots_for(self, owner: int) -> List[int]:
        """Slot offsets within a frame owned by ``owner``."""
        return [index for index, candidate in enumerate(self.owners) if candidate == owner]

    def share_of(self, owner: int) -> float:
        """Fraction of the bus bandwidth allocated to ``owner``."""
        return len(self.slots_for(owner)) / self.frame_length

    def next_slot_for(self, owner: int, from_slot: int) -> int:
        """First slot at or after ``from_slot`` owned by ``owner``."""
        offsets = self.slots_for(owner)
        if not offsets:
            raise ValueError(f"owner {owner} has no slots in the schedule")
        if from_slot < 0:
            raise ValueError("from_slot must be non-negative")
        frame_start = (from_slot // self.frame_length) * self.frame_length
        for frame in (frame_start, frame_start + self.frame_length):
            for offset in offsets:
                slot = frame + offset
                if slot >= from_slot:
                    return slot
        raise RuntimeError("unreachable")  # pragma: no cover

    @classmethod
    def uniform(cls, node_count: int) -> "TdmaSchedule":
        """One slot per node, in node order."""
        if node_count <= 0:
            raise ValueError("node_count must be positive")
        return cls(owners=tuple(range(node_count)))


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
        """Enqueue a transmission request for ``node``, arriving at ``arrival``."""
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
