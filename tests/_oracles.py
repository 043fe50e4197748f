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

:func:`link_error_oracle` is the exact error rate of a single-channel link:
the Markov chain the scan's semantics imply, over the detector state at a
window start.  ``tests/test_link_oracle.py`` holds the ``batch`` and
``multichannel`` engines to it at every single-channel named-scenario point.
"""

import functools
import heapq
import math
from collections import deque
from typing import Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple

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
    to back, and each packet counts the mismatches over its own bits; a
    source's broadcasts go through the bus's broadcast flush.  The
    statistics are updated once per epoch.  Returns ``bus.statistics``.
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


# -- the exact single-channel link ------------------------------------------------

#: Width of the blind-state bins [s].  A window that fires ``u`` before its
#: end, ``u`` below the gate recovery, leaves the next window blind until
#: ``dead_time - u``; the chain bins ``u`` this finely, each bin at its centre.
BLIND_BIN = 50e-12

#: Transition cells per PPM slot before the blind region.
_CELLS_PER_SLOT = 4

_erfc = np.frompyfunc(math.erfc, 1, 1)


class LinkErrorRates(NamedTuple):
    """Symbol and bit error rates of one chunk of windows."""

    ser: float
    ber: float


class _Physics(NamedTuple):
    """What a link's error chain depends on, the TDC aside."""

    ppm_bits: int
    slot: float
    window: float
    p_detect: float
    sigma: float
    tail_fraction: float
    tail_constant: float
    dark_rate: float
    fill: float
    trap_constant: float
    dead_time: float
    gate_recovery: float


class _Chain(NamedTuple):
    """The detector-state chain: state ``2 * b + pending``, bin ``b = 0`` armed."""

    physics: _Physics
    #: Ready time of each state, from its window's start (0 when armed).
    ready: np.ndarray
    #: 1.0 in the states with a trap release pending, else 0.0.
    pending: np.ndarray
    #: ``(M, S)``: chance that value ``v``'s photon lands before state ``s``'s ready time.
    photon_before: np.ndarray
    #: ``(S, S)`` one-window transition probabilities, averaged over the sent value.
    transitions: np.ndarray


def link_error_oracle(link, symbols: int, blind_bin: float = BLIND_BIN) -> LinkErrorRates:
    """Exact SER and BER of ``symbols`` windows on ``link``, armed and trap-free at the first.

    The semantics of :func:`repro.kernels.reference.scan_windows` make a
    single-channel link a Markov chain over the detector state at a window
    start: armed, or blind until ``r = dead_time - u`` after a fire ``u``
    before the last window's end (``u`` below the gate recovery), each with
    or without a trap release pending.  The release delay is exponential,
    so a flag is enough.  From ``r`` on, three independent candidates
    compete: the photon (detected with the pulse's probability, Gaussian
    plus exponential-tail jitter, clipped at 0, lost past the window), the
    dark counts (Poisson) and a pending release.  The earliest one fires,
    so the chance that nothing fired before ``t`` is the product of the
    three survivals, exactly.  The link's own decode is constant between
    breakpoints found on it (:func:`_decode_cells`), so the decoded value
    of a window has an exact distribution; a window with no fire decodes
    to 0.  The fire time sets the next state: blind when it falls within
    the gate recovery of the window's end, and a new release pending past
    the next start with ``fill * exp(-(T - t) / tau)``.  Without a fire, a
    pending release outlives the window with ``exp(-T / tau)``.

    The sent values are uniform and independent of the state, so the chain
    averages over them, and a chunk's rates are its state occupancy over
    ``symbols`` windows dotted with each state's expected errors.  Two
    approximations remain, both in the smooth hazards and neither in the
    decode: a blind bin is ``blind_bin`` wide and sits at its centre, and a
    new release's survival to the next start is taken at the midpoint of
    its fire's cell (a quarter slot wide, one bin wide in the blind region).
    ``tests/test_link_oracle.py`` checks that a five times finer bin moves
    the rates by less than ``1e-6``.  The transitions do not depend on the
    TDC, so the links of one operating point share one chain (cached on
    :class:`_Physics`) and differ only in their error weights.  Crosstalk,
    bus queueing and TDC metastability are outside the model.
    """
    physics = _link_physics(link)
    chain = _detector_chain(physics, float(blind_bin))
    occupancy = _occupancy(physics, float(blind_bin), int(symbols))
    ser, bit_errors = occupancy @ _error_weights(link, chain)
    return LinkErrorRates(float(ser), float(bit_errors) / link.config.ppm_bits)


def _link_physics(link) -> _Physics:
    spad, config = link.spad, link.config
    jitter, trap = spad.jitter, spad.afterpulsing
    return _Physics(
        config.ppm_bits,
        config.slot_duration,
        config.symbol_duration,
        spad.detection_probability_for_photons(link.mean_photons_at_detector()),
        jitter.sigma,
        jitter.tail_fraction,
        jitter.tail_constant,
        spad.dark_count_rate,
        trap.probability,
        trap.time_constant,
        spad.quenching.dead_time,
        spad.quenching.effective_gate_recovery,
    )


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF through ``math.erfc``: 0 below -40, 1 above 40."""
    out = (z > 40.0).astype(float)
    inside = np.abs(z) <= 40.0
    out[inside] = _erfc(-z[inside] / math.sqrt(2.0)).astype(float) / 2.0
    return out


def _jitter_cdf(x: np.ndarray, sigma: float, fraction: float, constant: float) -> np.ndarray:
    """``P(jitter < x)``: a Gaussian core, delayed by an exponential with chance ``fraction``.

    The tail part is the ex-Gaussian CDF ``Phi(y) - exp(s^2/2 - y s) Phi(y - s)``
    (``y = x / sigma``, ``s = sigma / constant``); where ``y - s`` is below
    -30 its second term is the normal density at ``y`` times the Mills
    ratio's asymptotic series, as the product would underflow.  Zero below
    ``-40 sigma``.
    """
    if sigma == 0.0:
        return np.where(x > 0.0, 1.0 - fraction * np.exp(-np.maximum(x, 0.0) / constant), 0.0)
    y = x / sigma
    cdf = _normal_cdf(y)
    if fraction > 0.0:
        s = sigma / constant
        z = y - s
        tail = np.zeros_like(y)
        near = (y >= -40.0) & (z >= -30.0)
        tail[near] = np.exp(s * s / 2.0 - y[near] * s) * _normal_cdf(z[near])
        far = (y >= -40.0) & (z < -30.0)
        zf = z[far]
        density = np.exp(-y[far] ** 2 / 2.0) / math.sqrt(2.0 * math.pi)
        tail[far] = density / -zf * (1.0 - zf**-2 + 3.0 * zf**-4 - 15.0 * zf**-6)
        cdf = cdf - fraction * tail
    return np.where(y < -40.0, 0.0, cdf)


def _photon_cdf(physics: _Physics, times: np.ndarray) -> np.ndarray:
    """``(M, n)``: chance that value ``v``'s photon lands before each window-relative time.

    The pulse sits at its slot's centre and its jittered time is clipped at
    0, so every photon lands before any ``t > 0`` that its unclipped time
    does not reach, and none lands before ``t = 0``.
    """
    offsets = (np.arange(1 << physics.ppm_bits) + 0.5) * physics.slot
    cdf = _jitter_cdf(
        times[None, :] - offsets[:, None],
        physics.sigma, physics.tail_fraction, physics.tail_constant,
    )
    return np.where(times[None, :] > 0.0, cdf, 0.0)


def _other_survival(physics: _Physics, ready, pending, edges: np.ndarray) -> np.ndarray:
    """``(S, n)``: chance that no dark count and no pending release fired in ``[ready, edge)``."""
    ready = ready[:, None]
    clipped = np.maximum(edges[None, :], ready)
    tau = physics.trap_constant
    release = pending[:, None] * (np.exp(-ready / tau) - np.exp(-clipped / tau))
    return np.exp(-physics.dark_rate * (clipped - ready)) * (1.0 - release)


@functools.lru_cache(maxsize=None)
def _detector_chain(physics: _Physics, blind_bin: float) -> _Chain:
    window, gate, tau = physics.window, physics.gate_recovery, physics.trap_constant
    bins = max(1, math.ceil(gate / blind_bin))
    width = gate / bins
    bin_ready = np.concatenate([[0.0], physics.dead_time - (np.arange(bins) + 0.5) * width])
    ready = np.repeat(bin_ready, 2)
    pending = np.tile([0.0, 1.0], bins + 1)
    photon_before = _photon_cdf(physics, ready)

    # Fire cells: a quarter slot before the blind region, one bin inside it.
    early = math.ceil((window - gate) / physics.slot * _CELLS_PER_SLOT)
    edges = np.concatenate([
        np.linspace(0.0, window - gate, early + 1),
        window - gate + width * np.arange(1, bins + 1),
    ])
    edges[-1] = window
    # Averaged over the sent value, only the photon's CDF needs the average.
    mean_before = photon_before.mean(axis=0)
    photon = np.where(
        edges[None, :] > ready[:, None],
        _photon_cdf(physics, edges).mean(axis=0)[None, :] - mean_before[:, None],
        0.0,
    )
    others = _other_survival(physics, ready, pending, edges)
    survival = (1.0 - physics.p_detect * photon) * others
    fired = survival[:, :-1] - survival[:, 1:]

    # A fire in cell j leads to blind bin 0 (armed) or, in the blind region,
    # the bin of its time to the window's end; a new release is pending at
    # the next start with the chance it outlives that time.
    middles = (edges[:-1] + edges[1:]) / 2.0
    refill = physics.fill * np.exp(-(window - middles) / tau)
    target = np.zeros(middles.size, dtype=np.int64)
    target[early:] = bins - np.arange(bins)
    cells = np.arange(middles.size)
    moves = np.zeros((middles.size, ready.size))
    moves[cells, 2 * target] = 1.0 - refill
    moves[cells, 2 * target + 1] = refill
    transitions = fired @ moves
    # No fire: armed next, the pending release kept if it lies past the window.
    missed = survival[:, -1]
    kept = (
        pending
        * (1.0 - physics.p_detect * photon[:, -1])
        * np.exp(-physics.dark_rate * (window - ready))
        * math.exp(-window / tau)
    )
    transitions[:, 0] += missed - kept
    transitions[:, 1] += kept
    return _Chain(physics, ready, pending, photon_before, transitions)


@functools.lru_cache(maxsize=None)
def _occupancy(physics: _Physics, blind_bin: float, symbols: int) -> np.ndarray:
    """Mean state distribution over ``symbols`` windows from the armed, trap-free state."""
    if symbols < 1:
        raise ValueError("symbols must be positive")
    transitions = _detector_chain(physics, blind_bin).transitions
    state = np.zeros(len(transitions))
    state[0] = 1.0
    total = np.zeros_like(state)
    for done in range(symbols):
        total += state
        following = state @ transitions
        if np.abs(following - state).sum() < 1e-14:
            total += following * (symbols - done - 1)
            break
        state = following
    return total / symbols


def _decode_cells(link) -> Tuple[np.ndarray, np.ndarray]:
    """Edges and values of the pieces of ``[0, T)`` on which the link's decode is constant.

    The TDC code can only step on a coarse clock edge, where the time to the
    next edge crosses a tap, or where the TDC range clips; with a grid of a
    sixteenth of a slot these probes cut the window into pieces that each
    decode to one value (``decode_detections``, every probe in window 0).
    Between two neighbouring pieces that decode differently, bisection on
    the same decode finds the first float of the later value.
    """
    from repro.core.link import decode_detections

    window, slot = link.config.symbol_duration, link.config.slot_duration
    tdc = link.tdc
    period, modulus = tdc.coarse.period, tdc.coarse.modulus
    clock_edges = period * np.arange(1, modulus + 1)
    steps = np.concatenate([
        clock_edges,
        (clock_edges[:, None] - np.asarray(tdc.delay_line.tap_times)[None, :]).ravel(),
        [modulus * period * 0.999999],
        np.arange(1, math.ceil(window / slot * 16)) * slot / 16.0,
    ])
    probes = np.unique(np.concatenate([[0.0, window], steps[(steps > 0.0) & (steps < window)]]))

    def decode(times: np.ndarray) -> np.ndarray:
        return decode_detections((link,), times, np.zeros(times.size, dtype=np.int8), times.size)

    middles = (probes[:-1] + probes[1:]) / 2.0
    values = decode(middles)
    change = np.flatnonzero(values[1:] != values[:-1])
    low, high, before = middles[change], middles[change + 1], values[change]
    while True:
        half = low + (high - low) / 2.0
        open_ = (half > low) & (half < high)
        if not open_.any():
            break
        same = decode(half) == before
        low = np.where(open_ & same, half, low)
        high = np.where(open_ & ~same, half, high)
    return np.concatenate([[0.0], high, [window]]), np.concatenate([values[:1], values[change + 1]])


def _error_weights(link, chain: _Chain) -> np.ndarray:
    """``(S, 2)``: expected symbol errors and bit errors of a window in each state, on this link.

    With the decode's cells ``[E_j, E_j+1)`` valued ``d_j``, a sent value
    ``v``'s expected errors from a state are ``sum_j w(d_j, v) * (S(E_j) -
    S(E_j+1)) + w(0, v) * S(T)``, ``S`` the chance that nothing fired before
    a time, clipped at the ready time.  Summed by parts this is
    ``w(d_j0, v) + sum_(j > j0) dw_j * S(E_j)``, ``j0`` the cell holding the
    ready time; ``S`` is ``(1 + p * G_v(r) - p * G_v(E_j)) * H(E_j)`` with
    ``H`` the dark-count and release survival, so two matrix products over
    the cells give every state's weight at once.
    """
    physics = chain.physics
    p_detect = physics.p_detect
    edges, decoded = _decode_cells(link)
    values = np.arange(1 << physics.ppm_bits)
    popcount = np.array([bin(value).count("1") for value in range(len(values))], dtype=float)
    photon = _photon_cdf(physics, edges[1:])
    others = _other_survival(physics, chain.ready, chain.pending, edges[1:])
    first = np.searchsorted(edges, chain.ready, side="right") - 1
    others = np.where(np.arange(1, edges.size)[None, :] > first[:, None], others, 0.0).T
    weights = []
    for per_cell, per_miss in (
        ((decoded[None, :] != values[:, None]).astype(float), (values != 0).astype(float)),
        (popcount[decoded[None, :] ^ values[:, None]], popcount),
    ):
        step = np.diff(np.concatenate([per_cell, per_miss[:, None]], axis=1), axis=1)
        expected = (
            per_cell[:, first]
            + (1.0 + p_detect * chain.photon_before) * (step @ others)
            - p_detect * ((step * photon) @ others)
        )
        weights.append(expected.mean(axis=0))
    return np.stack(weights, axis=1)
