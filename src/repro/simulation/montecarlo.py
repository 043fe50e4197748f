"""Monte-Carlo experiment runner.

Several of the paper's quantities (DNL/INL of the delay line, PPM symbol error
rate, coverage of the fine chain over temperature) are estimated by running
the same stochastic trial many times with independent seeds.  The runner here
standardises seeding, accumulation and summary statistics for such
experiments.

Chunked trials
--------------
:meth:`MonteCarloRunner.run_batch` is the one trial loop.  It pre-splits one
child seed per *chunk* (``split_seed(seed, f"{label}:batch:{offset}")``,
``offset`` the chunk's first trial) and hands the trial a bare
``numpy.random.Generator`` together with the number of trials to evaluate,
so an array-valued trial vectorises the whole chunk internally (the same
design as the batch link engine in :mod:`repro.core.fastlink`).  Results are
deterministic in ``(seed, chunk_size)``.

:class:`LinkBatchTrial` keeps each chunk's bits as NumPy arrays from the
payload draw into the link, and takes its samples from the link's per-symbol
bit errors (``TransmissionResult.symbol_bit_errors``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Optional

import numpy as np

from repro.simulation.randomness import split_seed


@dataclass
class MonteCarloResult:
    """Aggregated outcome of a Monte-Carlo experiment.

    ``samples`` holds the raw per-trial scalar outputs.
    """

    samples: np.ndarray

    @property
    def trials(self) -> int:
        return int(self.samples.size)

    @property
    def mean(self) -> float:
        if self.samples.size == 0:
            raise ValueError("no trials were run")
        return float(np.mean(self.samples))

    @property
    def std(self) -> float:
        if self.samples.size == 0:
            raise ValueError("no trials were run")
        if self.samples.size == 1:
            return 0.0
        return float(np.std(self.samples, ddof=1))

    @property
    def minimum(self) -> float:
        return float(np.min(self.samples))

    @property
    def maximum(self) -> float:
        return float(np.max(self.samples))

    def standard_error(self) -> float:
        if self.samples.size == 0:
            raise ValueError("no trials were run")
        return self.std / np.sqrt(self.samples.size)

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.samples, q))


@dataclass
class LinkBatchTrial:
    """A :meth:`MonteCarloRunner.run_batch` trial over the optical link.

    Each Monte-Carlo trial is one PPM symbol pushed through a link built via
    the backend registry (:func:`repro.core.backend.make_link`), so callers
    select the engine by name — ``"batch"`` (default), ``"scalar"`` or
    ``"multichannel"`` — instead of instantiating a concrete link class.
    Calling it defines the reproducibility protocol shared by every chunked
    link experiment (the scenario runner included): one link seed drawn from
    the chunk generator, then the chunk's payload bits, then one
    transmission.

    A top-level class rather than a closure, so a trial whose fields are
    plain data (``on_result`` left ``None``) **pickles by value**.  Today's
    scenario parallelism ships :class:`~repro.scenarios.executors.PointTask`
    work units and rebuilds the trial inside each worker; being a picklable
    value is what keeps the *chunk*-level dispatch of ``run_batch`` itself
    open as a future fan-out axis (the per-chunk seed layout is already
    order-independent).

    ``channels``/``crosstalk`` are forwarded to :func:`make_link` for
    multichannel backends: each chunk's symbols are then striped across the
    parallel channels, but a trial remains one PPM symbol, so sample shapes
    and seeding are unchanged.

    ``per_symbol`` selects the sample reduction: ``"error_indicator"``
    yields ``1.0`` for symbols with at least one bit error, ``"bit_errors"``
    the number of erroneous bits per symbol.  ``on_result`` (optional)
    receives each chunk's full :class:`~repro.core.link.TransmissionResult`
    for side statistics such as detection-origin counts (a
    :class:`~repro.core.multilink.MultichannelResult`, carrying the
    per-channel count split, for multichannel backends).
    """

    config: object
    backend: Optional[str] = None
    channel: object = None
    per_symbol: str = "error_indicator"
    on_result: Optional[Callable] = None
    channels: Optional[int] = None
    crosstalk: object = None
    #: Optional :class:`~repro.spad.device.ImportanceSettings`; when set, the
    #: link runs the importance-sampled path and samples become likelihood-
    #: *weighted* per-symbol error figures (w_i * errors_i), whose mean is an
    #: unbiased estimate of the naive sample mean.
    importance: object = None
    #: Optional compute-kernel name forwarded to :func:`make_link`; kernels
    #: are bit-identical by contract, so this never changes the samples.
    kernel: Optional[str] = None

    def __post_init__(self) -> None:
        if self.per_symbol not in ("error_indicator", "bit_errors"):
            raise ValueError(
                "per_symbol must be 'error_indicator' or 'bit_errors', "
                f"got {self.per_symbol!r}"
            )

    def __call__(self, generator: np.random.Generator, count: int) -> np.ndarray:
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
            kernel=self.kernel,
        )
        payload = generator.integers(0, 2, size=count * self.config.ppm_bits)
        result = link.transmit_bits(payload)
        if self.on_result is not None:
            self.on_result(result)
        errors = result.symbol_bit_errors
        if self.per_symbol == "bit_errors":
            samples = errors.astype(float)
        else:
            samples = (errors > 0).astype(float)
        if self.importance is not None:
            samples = samples * np.asarray(result.symbol_weights, dtype=float)
        return samples


#: Traffic patterns :class:`NocTrafficTrial` can generate (and scenario
#: ``noc_traffic`` axes may take): destination uniform over the other nodes,
#: a hotspot node attracting most traffic, or nearest-neighbour exchanges.
TRAFFIC_PATTERNS = ("uniform", "hotspot", "nearest-neighbour")

#: Share of ``"hotspot"`` packets (from nodes other than node 0) sent to
#: node 0; the rest go uniformly to the other nodes.
HOTSPOT_FRACTION = 0.7


@dataclass
class NocTrafficTrial:
    """A :meth:`MonteCarloRunner.run_batch` trial over the slotted optical bus.

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
    backend, and returns each packet's delivery latency in seconds, read
    from the table's columns by sequence number (``NaN`` for packets that
    were corrupted or never drained).

    ``offered_load`` shapes the arrival process: packets arrive uniformly
    over a horizon sized so offered traffic consumes that fraction of the
    bus's slot capacity (1.0 = saturation; above 1.0 the queues grow without
    bound and latency measures backlog drain).  ``on_result`` (optional)
    receives each chunk's completed :class:`~repro.noc.bus.OpticalBus` for
    side statistics — aggregate counters via ``bus.statistics``, per-packet
    columns via ``bus.traffic`` (``bus.outcomes`` builds outcome objects).

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
    on_result: Optional[Callable] = None
    #: Optional compute-kernel name forwarded to the bus (arbitration +
    #: link kernels); bit-identical by contract.
    kernel: Optional[str] = None

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

    def __call__(self, generator: np.random.Generator, count: int) -> np.ndarray:
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
            kernel=self.kernel,
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
        traffic = bus.traffic
        latencies = np.full(count, np.nan)
        latencies[traffic.sequence[traffic.delivered]] = traffic.latency[traffic.delivered]
        if self.on_result is not None:
            self.on_result(bus)
        return latencies


class MonteCarloRunner:
    """Runs a vectorised trial function over many independently seeded chunks."""

    def __init__(self, seed: int = 0, label: str = "montecarlo") -> None:
        self._seed = seed
        self._label = label

    def run_batch(
        self,
        batch_trial: Callable[[np.random.Generator, int], np.ndarray],
        trials: int,
        chunk_size: int = 4096,
        progress: Optional[Callable[[int, int], None]] = None,
        first_trial: int = 0,
    ) -> MonteCarloResult:
        """Execute ``trials`` repetitions through a *vectorised* trial function.

        Parameters
        ----------
        batch_trial:
            Callable ``(generator, count) -> array`` returning one scalar
            outcome per trial, shape ``(count,)``.  The generator is freshly
            seeded per chunk (seeds pre-split via :func:`split_seed`).
        trials:
            Total number of repetitions (must be positive).
        chunk_size:
            Maximum number of trials evaluated per call.  Chunking bounds peak
            memory for array-valued trials and fixes the seeding layout:
            results are reproducible for a given ``(seed, chunk_size)``.
        progress:
            Optional callback ``(trials_done, trials_total)`` invoked after
            each chunk.
        first_trial:
            Absolute index of the first trial: chunk seeds derive from the
            *absolute* trial offset, so a run continued from ``first_trial``
            (a multiple of ``chunk_size``) reproduces exactly the chunks a
            single longer run would have evaluated — the layout adaptive
            budgets and resume rely on.
        """
        if trials <= 0:
            raise ValueError(f"trials must be positive, got {trials}")
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        if first_trial < 0:
            raise ValueError(f"first_trial must be non-negative, got {first_trial}")
        values = np.empty(trials, dtype=float)
        for start in range(0, trials, chunk_size):
            count = min(chunk_size, trials - start)
            seed = split_seed(self._seed, f"{self._label}:batch:{first_trial + start}")
            generator = np.random.default_rng(seed)
            chunk = np.asarray(batch_trial(generator, count), dtype=float)
            if chunk.shape != (count,):
                raise ValueError(
                    f"batch_trial must return shape ({count},), got {chunk.shape}"
                )
            values[start : start + count] = chunk
            if progress is not None:
                progress(start + count, trials)
        return MonteCarloResult(samples=values)
