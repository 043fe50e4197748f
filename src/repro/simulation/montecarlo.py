"""Chunked Monte-Carlo trials.

The paper's systematic analysis (BER against range, the throughput and
detection-cycle surfaces) is estimated point by point from many Monte-Carlo
symbols.  A point runs in *chunks*: :func:`chunk_generators` is the one
definition of a chunk's seed (``split_seed(seed, f"{label}:batch:{offset}")``,
``offset`` the chunk's absolute first trial) and yields each chunk's trial
count with a freshly seeded ``numpy.random.Generator``, so a trial
vectorises the whole chunk.  Results are deterministic in ``(seed,
chunk_size)``.  The two trials return what their chunk produced and the
caller counts from it: :class:`LinkBatchTrial` the chunk's
:class:`~repro.core.link.TransmissionResult`, :class:`NocTrafficTrial` the
drained :class:`~repro.noc.bus.OpticalBus`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.simulation.randomness import split_seed

def chunk_generators(
    seed: int, label: str, trials: int, chunk_size: int, first_trial: int = 0
) -> Iterator[Tuple[int, np.random.Generator]]:
    """``(count, generator)`` for each chunk of ``trials`` repetitions.

    Chunks hold ``chunk_size`` trials, the last one the remainder.  Chunk
    seeds derive from the *absolute* trial offset ``first_trial + start``, so
    a run continued from ``first_trial`` (a multiple of ``chunk_size``) draws
    exactly the chunks a single longer run would have drawn — the layout
    adaptive budgets, resume and the cluster's chunk fan-out rely on.  Bad
    arguments raise :class:`ValueError` at the call, before any chunk.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if first_trial < 0:
        raise ValueError(f"first_trial must be non-negative, got {first_trial}")
    return (
        (
            min(chunk_size, trials - start),
            np.random.default_rng(split_seed(seed, f"{label}:batch:{first_trial + start}")),
        )
        for start in range(0, trials, chunk_size)
    )


@dataclass
class LinkBatchTrial:
    """One chunk of PPM symbols through the optical link.

    Each Monte-Carlo trial is one PPM symbol pushed through a link built via
    the backend registry (:func:`repro.core.backend.make_link`), so callers
    select the engine by name — ``"batch"`` (default) or ``"multichannel"``
    — instead of instantiating a concrete link class.
    Calling it defines the reproducibility protocol shared by every chunked
    link experiment (the scenario runner included): one link seed drawn from
    the chunk generator, then the chunk's payload bits, then one
    transmission, whose :class:`~repro.core.link.TransmissionResult` it
    returns (a :class:`~repro.core.multilink.MultichannelResult`, carrying
    the per-channel count split, on multichannel backends).  A top-level
    class of plain data rather than a closure, so it **pickles by value**.

    ``channels``/``crosstalk`` are forwarded to :func:`make_link` for
    multichannel backends: each chunk's symbols are then striped across the
    parallel channels, but a trial remains one PPM symbol, so seeding is
    unchanged.
    """

    config: object
    backend: Optional[str] = None
    channel: object = None
    channels: Optional[int] = None
    crosstalk: object = None
    #: Optional :class:`~repro.spad.device.ImportanceSettings`; when set, the
    #: link runs the importance-sampled path and the result carries each
    #: symbol's likelihood weight (``symbol_weights``).
    importance: object = None

    def __call__(self, generator: np.random.Generator, count: int):
        # Imported lazily: repro.core.link imports this package's randomness
        # module at import time, so a module-level import here would be circular.
        from repro.core.backend import make_link

        link = make_link(
            self.config,
            backend=self.backend,
            channel=self.channel,
            seed=int(generator.integers(0, 2**31)),
            channels=self.channels,
            crosstalk=self.crosstalk,
            importance=self.importance,
        )
        payload = generator.integers(0, 2, size=count * self.config.ppm_bits)
        return link.transmit_bits(payload)


#: Traffic patterns :class:`NocTrafficTrial` can generate (and scenario
#: ``noc_traffic`` axes may take): destination uniform over the other nodes,
#: a hotspot node attracting most traffic, or nearest-neighbour exchanges.
TRAFFIC_PATTERNS = ("uniform", "hotspot", "nearest-neighbour")

#: Share of ``"hotspot"`` packets (from nodes other than node 0) sent to
#: node 0; the rest go uniformly to the other nodes.
HOTSPOT_FRACTION = 0.7


@dataclass
class NocTrafficTrial:
    """One chunk of packets over the slotted optical bus.

    The NoC analogue of :class:`LinkBatchTrial`: a top-level picklable value
    whose call contract makes network traffic chunkable — **one trial is one
    offered packet**, and one *chunk* is one bus run.  Per chunk, the trial
    draws a bus seed from the chunk generator, generates ``count`` packets
    according to the traffic pattern (sources, destinations, payloads and
    arrival slots are all generator draws), offers the drawn arrays in
    stable arrival order as rows of the bus's traffic table with one
    :meth:`~repro.noc.bus.OpticalBus.offer_many` (no
    :class:`~repro.noc.packet.Packet` is built), drains them through an
    epoch-batched :class:`~repro.noc.bus.OpticalBus` on the configured
    backend, and returns the drained bus: aggregate counters via
    ``bus.statistics``, per-packet columns via ``bus.traffic``
    (``bus.outcomes`` builds outcome objects).

    ``offered_load`` shapes the arrival process: packets arrive uniformly
    over a horizon sized so offered traffic consumes that fraction of the
    bus's slot capacity (1.0 = saturation; above 1.0 the queues grow without
    bound and latency measures backlog drain).

    The bus has one node per die, emits the config's
    ``mean_detected_photons`` per pulse and flushes in the bus's default
    epochs.  The integer settings (``stack_dies``, ``packet_bits``) refuse
    bools and fractions, and ``offered_load`` refuses NaN, with
    :class:`ValueError` at construction.

    The bus's per-link seeds derive from the chunk seed through the central
    seed-derivation policy, so chunks — and the (source, destination) links
    within one chunk — never share a random stream.
    """

    config: object
    backend: Optional[str] = None
    stack_dies: int = 4
    stack_thickness: float = 15e-6
    traffic: str = "uniform"
    offered_load: float = 0.5
    packet_bits: int = 64

    def __post_init__(self) -> None:
        # Every check is written so that NaN fails it; a bool is no count.
        if self.traffic not in TRAFFIC_PATTERNS:
            raise ValueError(
                f"traffic must be one of {TRAFFIC_PATTERNS}, got {self.traffic!r}"
            )
        for name in ("stack_dies", "packet_bits"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not self.offered_load > 0:
            raise ValueError(
                f"offered_load must be positive (zero load offers no packets), "
                f"got {self.offered_load!r}"
            )
        if self.packet_bits <= 0:
            raise ValueError("packet_bits must be positive")
        if self.stack_dies < 2:
            raise ValueError("stack_dies must be at least 2")

    @property
    def slots_per_packet(self) -> int:
        """PPM symbol slots one packet (header + payload) occupies."""
        # Imported lazily like every noc reference in this module (the noc
        # package imports this package's randomness module at import time).
        from repro.noc.packet import Packet

        total_bits = Packet.header_bit_count() + self.packet_bits
        return -(-total_bits // self.config.ppm_bits)

    def _destinations(
        self, generator: np.random.Generator, sources: np.ndarray, nodes: int
    ) -> np.ndarray:
        """Per-packet destinations under the configured traffic pattern."""
        # Uniform over the other nodes — the base draw of every pattern.
        offsets = generator.integers(1, nodes, size=sources.size)
        uniform = (sources + offsets) % nodes
        if self.traffic == "uniform":
            return uniform
        if self.traffic == "hotspot":
            hot = generator.random(sources.size) < HOTSPOT_FRACTION
            return np.where(hot & (sources != 0), 0, uniform)
        # nearest-neighbour: the die directly above (below at the stack top);
        # interior dies pick a side at random.
        up = generator.integers(0, 2, size=sources.size).astype(bool)
        up |= sources == 0
        up &= sources != nodes - 1
        return np.where(up, sources + 1, sources - 1)

    def __call__(self, generator: np.random.Generator, count: int):
        # Imported lazily for the same circularity reason as LinkBatchTrial.
        from repro.noc.bus import OpticalBus
        from repro.noc.packet import Packet
        from repro.noc.topology import StackTopology
        from repro.photonics.stack import DieStack

        if count > 1 << Packet.SEQUENCE_BITS:
            raise ValueError(
                f"a chunk of {count} packets overflows the {Packet.SEQUENCE_BITS}-bit "
                f"sequence numbers used to match outcomes; lower chunk_size"
            )
        bus_seed = int(generator.integers(0, 2**31))
        stack = DieStack.uniform(
            count=self.stack_dies,
            thickness=self.stack_thickness,
            wavelength=self.config.wavelength,
        )
        topology = StackTopology(stack)
        bus = OpticalBus(
            topology,
            config=self.config,
            emitted_photons=self.config.mean_detected_photons,
            seed=bus_seed,
            backend=self.backend,
        )
        nodes = topology.node_count
        sources = generator.integers(0, nodes, size=count)
        destinations = self._destinations(generator, sources, nodes)
        payloads = generator.integers(0, 2, size=(count, self.packet_bits))
        horizon = max(1, math.ceil(count * self.slots_per_packet / self.offered_load))
        arrivals = generator.integers(0, horizon, size=count)
        # Offered in stable arrival order; a row's sequence number is its draw index.
        order = np.argsort(arrivals, kind="stable")
        bus.offer_many(
            sources[order], destinations[order], payloads[order], arrivals[order], order
        )
        bus.run(max_slots=horizon + (count + 1) * self.slots_per_packet)
        return bus

