"""Round-robin arbitration of one bus run: the exact sequential walk.

:func:`round_robin_schedule` computes every grant of one
:meth:`~repro.noc.bus.OpticalBus.run` call from a snapshot of the queued
traffic in CSR layout: every queued row's arrival slot, grouped by source
node in queue order, with bounds giving each node's run.  It is the one
arbitration path of every kernel tier.  It issues exactly the grants that
granting one request at a time would: the same start slots, the same final
slot clock and the same rotation pointer.  Arbitration fixes slot
assignments and latencies, so the walk is part of the bit-identity contract
(``tests/test_kernels.py`` holds it to the one-grant-at-a-time
``RoundRobinArbiter`` oracle in ``tests/_oracles.py``).

Semantics
---------
At each decision the walk scans the nodes in rotation order, starting at the
rotation pointer, and grants the first node whose queue head has already
arrived (``arrival <= slot``).  The clock advances by that item's slot cost
and the pointer moves past the granted node.  When no head has arrived, the
clock jumps to ``max(slot + 1, earliest head arrival)``; the walk stops when
the queues are empty, or when the clock or the next arrival reaches the
horizon.

Why a plain walk
----------------
The walk converts the snapshot to Python lists once and runs over them.
Round robin over already-arrived heads has a closed-form order, so a NumPy
schedule can speculate a batch of grants (``lexsort`` by round, then
rotation rank) and commit the prefix that respects every arrival.  That
only pays on a saturated bus.  ``noc-load-latency`` drains 200–340
packets per bus run at offered loads of 0.1–1.2, where arrival stalls cut
such a schedule down to one NumPy step per grant.  Measured on a 2-core x86
container: on the ``noc-load`` benchmark workload (traced, seed 3) that
schedule took 0.58 s of each run and this walk takes 0.019 s.  On a
120k-request, 16-node saturated drain, where the schedule is at its best,
the walk takes 0.16–0.26 s, the schedule 0.08–0.13 s and the oracle's
one-grant-at-a-time loop 0.41–0.55 s.

This module is a leaf (NumPy only) so the kernel registry stays importable
from everywhere.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def round_robin_schedule(
    arrivals: np.ndarray,
    slot_costs: np.ndarray,
    node_bounds: np.ndarray,
    start_node: int,
    start_slot: int,
    horizon: int,
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """Compute all round-robin grants of one bus run.

    Parameters
    ----------
    arrivals:
        ``(R,)`` arrival slot of every queued item, grouped by node in queue
        order (each node's run is non-decreasing — the bus enforces it).
    slot_costs:
        ``(R,)`` slots each item occupies once granted (>= 1).
    node_bounds:
        ``(N + 1,)`` CSR bounds: node ``n`` owns items
        ``node_bounds[n]:node_bounds[n + 1]``.
    start_node:
        The rotation pointer (first node considered).
    start_slot / horizon:
        The slot clock at entry and the exclusive slot limit; a grant is
        issued only while the clock is strictly below ``horizon``.

    Returns ``(items, starts, final_slot, final_node)``: granted item indices
    in grant order, their start slots, the slot clock after the last grant
    (or where the bus stopped idling), and the final rotation pointer.
    """
    arrivals = np.asarray(arrivals, dtype=np.int64).tolist()
    costs = np.asarray(slot_costs, dtype=np.int64).tolist()
    bounds = np.asarray(node_bounds, dtype=np.int64).tolist()
    nodes = len(bounds) - 1
    if nodes <= 0:
        raise ValueError("node_bounds must describe at least one node")
    heads = bounds[:-1]
    ends = bounds[1:]
    rotation = int(start_node) % nodes
    slot = int(start_slot)
    horizon = int(horizon)
    items = []
    starts = []

    while slot < horizon:
        for offset in range(nodes):
            node = (rotation + offset) % nodes
            head = heads[node]
            if head < ends[node] and arrivals[head] <= slot:
                items.append(head)
                starts.append(slot)
                slot += costs[head]
                heads[node] = head + 1
                rotation = (node + 1) % nodes
                break
        else:
            # No head has arrived: the bus idles to the next arrival.
            next_arrival = min(
                (arrivals[head] for head, end in zip(heads, ends) if head < end),
                default=horizon,
            )
            if next_arrival >= horizon:
                break
            slot = max(slot + 1, next_arrival)

    return (
        np.asarray(items, dtype=np.int64),
        np.asarray(starts, dtype=np.int64),
        slot,
        rotation,
    )
