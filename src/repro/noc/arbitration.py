"""Bus arbitration.

The optical bus is a shared broadcast medium: every die's SPAD sees every
pulse, so only one transmitter may own a symbol slot at a time.
:class:`RoundRobinArbiter` is a work-conserving round-robin over the dies
that actually have pending packets.  The bus arbitrates its traffic table
with the kernels' exact walk (:func:`repro.kernels.round_robin_schedule`);
this class, granting one request at a time, is the oracle
``tests/test_kernels.py`` checks that walk against.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np


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
