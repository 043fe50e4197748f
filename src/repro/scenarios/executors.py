"""Pluggable executors: how a scenario's grid points are dispatched.

A scenario's grid points are independent by construction — every point's seed
is derived in the parent from ``(run seed, point label)`` before any point
runs (:meth:`~repro.scenarios.runner.ExperimentRunner` under the
``"per-point"`` policy, or shared verbatim under ``"shared"``), and a point's
Monte-Carlo chunks depend only on that seed and ``chunk_symbols``.  Executors
exploit this: they take a sequence of :class:`PointTask` work units and yield
``(index, PointOutcome)`` pairs *in completion order*, leaving ordering and
report assembly to the caller.

Three executors ship with the package:

* :class:`SerialExecutor` — evaluates tasks in grid order in the calling
  process (the reference implementation);
* :class:`ThreadExecutor` — dispatches tasks onto a thread pool in the
  calling process.  No pickling, no IPC, no worker start-up: tasks run the
  original scenario objects directly, so even subclassed scenarios work.
  Threads only run concurrently when point evaluation releases the GIL,
  which the native compute kernels (:mod:`repro.kernels`) do;
* :class:`ProcessExecutor` — dispatches tasks onto a
  :class:`concurrent.futures.ProcessPoolExecutor`.  Work units are pickled as
  plain data (scenario mapping, point parameters, point seed, backend name,
  ``chunk_symbols``) and each worker rebuilds the scenario with
  :meth:`Scenario.from_mapping` and evaluates the point with the *same*
  :func:`evaluate_point` the serial executor calls, so reports are
  **bit-identical** to a serial run — not merely statistically equivalent.

The picklability contract is deliberately narrow: nothing but plain data and
the point seed crosses the process boundary.  Metric evaluation (which may
involve user-registered, unpicklable metric functions) always happens in the
parent.  Backends are the one thing workers must know locally: a backend
registered at runtime works under the ``fork`` start method (the child
inherits the registry) but not under ``spawn``, whose fresh interpreter
never saw the registration — import-time registration (a module that calls
:func:`repro.core.backend.register_backend`) works everywhere.

>>> from repro.scenarios import Scenario
>>> scenario = Scenario(name="doc", sweep_axes={"mean_detected_photons": (20.0, 80.0)},
...                     bits_per_point=64)
>>> tasks = make_point_tasks(scenario, seed=1, backend="batch", chunk_symbols=64)
>>> [task.index for task in tasks]
[0, 1]
>>> outcomes = dict(SerialExecutor().map_tasks(tasks))
>>> sorted(outcomes) == [0, 1] and outcomes[0].bits
64
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math
import os
import threading
import time
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.scenarios.faults import (
    AttemptQueue,
    PointFailure,
    PointTimeoutError,
    RetryPolicy,
    active_chaos,
    inject_fault,
    validate_failure_policy,
)
from repro.scenarios.metrics import PointOutcome, available_metrics
from repro.scenarios.scenario import Scenario
from repro.simulation.montecarlo import LinkBatchTrial, NocTrafficTrial, chunk_generators
from repro.simulation.randomness import split_seed
from repro.spad.device import ORIGIN_BY_CODE, ImportanceSettings


@dataclass(frozen=True)
class PointTask:
    """One grid point as a self-contained, picklable unit of work.

    Everything needed to evaluate the point deterministically travels as
    plain data: the scenario *mapping* (not the object), the point's swept
    parameter values, the point seed already derived by the parent, the
    resolved backend name, and the chunk size that fixes the seeding layout.
    ``index`` is the point's position in grid order, used to reassemble
    reports independently of completion order.

    ``live_scenario`` additionally carries the original scenario *object*
    for in-process execution — so :class:`Scenario` subclasses that override
    compilation hooks (``config_for_point`` et al.) keep working on the
    serial path.  It is dropped on pickling: across a process boundary only
    the mapping travels, and workers rebuild base-class semantics from it —
    which is why :class:`ProcessExecutor` refuses subclassed scenarios
    outright rather than silently diverging from a serial run.
    """

    scenario: Mapping[str, Any]
    parameters: Mapping[str, Any]
    seed: int
    backend: str
    chunk_symbols: int
    index: int
    #: Absolute index of the first symbol this task simulates.  Non-zero for
    #: adaptive-budget *continuation* installments: chunk seeds derive from
    #: the absolute symbol offset, so a continuation reproduces exactly the
    #: chunks a single longer run would have evaluated.  Must be a multiple
    #: of ``chunk_symbols``.
    start_symbol: int = 0
    #: Explicit number of symbols to simulate (continuation installments);
    #: ``None`` derives the point's full budget from ``bits_per_point``.
    symbols: Optional[int] = None
    live_scenario: Optional[Scenario] = dataclasses.field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenario", dict(self.scenario))
        object.__setattr__(self, "parameters", dict(self.parameters))

    def __getstate__(self):
        state = dict(self.__dict__)
        state["live_scenario"] = None  # only plain data crosses processes
        return state


def usable_cpu_count() -> int:
    """CPUs this process may actually be scheduled on.

    Respects scheduler affinity and cpusets (``os.sched_getaffinity``),
    which ``os.cpu_count()`` ignores; CFS bandwidth quotas (``--cpus=N``
    style throttling) are *not* visible here, so pass ``workers=`` explicitly
    in quota-limited containers.  Used as the :class:`ProcessExecutor` worker
    default and by the parallel benchmark.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


class WorkerCountError(ValueError):
    """A parallelism knob (pool size, cluster fan-out) got a bad value.

    A distinct type so callers can tell a misconfigured worker count apart
    from other ``ValueError`` shapes — and so the CLI can report it without
    a traceback (``concurrent.futures`` raising deep inside a dispatch loop
    is not an error message).
    """


def validate_worker_count(workers: Optional[int]) -> Optional[int]:
    """Validate a worker/fan-out count: ``None`` (auto) or a positive int.

    The single definition of "how parallel" validation, shared by
    :class:`ProcessExecutor` (pool size) and the cluster executor (chunk
    fan-out) — both reject the same shapes with the same message instead of
    passing nonsense through to ``concurrent.futures`` or the socket layer.
    """
    if workers is None:
        return None
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise WorkerCountError(f"workers must be a positive int, got {workers!r}")
    if workers < 1:
        raise WorkerCountError(f"workers must be a positive int, got {workers!r}")
    return workers


def require_plain_scenarios(tasks: Sequence["PointTask"], boundary: str) -> None:
    """Refuse tasks whose live scenario is a :class:`Scenario` *subclass*.

    Workers on the far side of ``boundary`` (a process pool, the cluster
    wire) rebuild plain ``Scenario`` values from the task mapping, so
    subclass overrides would silently vanish — refuse up front instead of
    diverging from a serial run.
    """
    for task in tasks:
        live = task.live_scenario
        if live is not None and type(live) is not Scenario:
            raise TypeError(
                f"scenario type {type(live).__name__!r} cannot cross "
                f"{boundary}: only plain Scenario values ship to workers; "
                f"run subclassed scenarios on the serial executor"
            )


def derive_point_seed(scenario: Scenario, seed: int, parameters: Mapping[str, Any]) -> int:
    """The seed-policy derivation — the single definition of per-point seeds.

    ``"shared"`` reuses one child seed across every grid point (common random
    numbers); ``"per-point"`` derives an independent seed from the point's
    deterministic label.  Both the runner and :func:`make_point_tasks` call
    this, so serial and parallel dispatch cannot drift apart.
    """
    if scenario.seed_policy == "shared":
        return split_seed(seed, scenario.name)
    return split_seed(seed, scenario.point_label(parameters))


def make_point_tasks(
    scenario: Scenario,
    seed: int,
    backend: str,
    chunk_symbols: int,
) -> List[PointTask]:
    """Compile a scenario into grid-ordered :class:`PointTask` work units.

    Point seeds are derived here, up front, via :func:`derive_point_seed` —
    before any point runs — which is what makes dispatch order (and hence
    the executor) unobservable in the results.
    """
    mapping = scenario.to_mapping()
    return [
        PointTask(
            scenario=mapping,
            parameters=parameters,
            seed=derive_point_seed(scenario, seed, parameters),
            backend=backend,
            chunk_symbols=chunk_symbols,
            index=index,
            live_scenario=scenario,
        )
        for index, parameters in enumerate(scenario.grid())
    ]


def evaluate_point(
    scenario: Scenario,
    parameters: Mapping[str, Any],
    seed: int,
    backend: str,
    chunk_symbols: int,
    start_symbol: int = 0,
    symbols: Optional[int] = None,
) -> PointOutcome:
    """Evaluate one grid point: the single definition of point execution.

    Builds the point's concrete link configuration, then runs one loop over
    the point's chunks (:func:`~repro.simulation.montecarlo.chunk_generators`):
    each chunk draws its link seed and payload, transmits
    (:class:`~repro.simulation.montecarlo.LinkBatchTrial`) and is counted
    straight from its transmission result into the
    :class:`~repro.scenarios.metrics.PointOutcome`.  Every executor funnels
    through this function — in-process for :class:`SerialExecutor`, inside
    the worker for :class:`ProcessExecutor` and the cluster — which is what
    makes parallel reports bit-identical to serial ones.

    ``start_symbol``/``symbols`` carve an adaptive-budget *installment* out
    of a notional longer run: chunk seeds derive from the absolute symbol
    offset, so running ``[0, n)`` then ``[n, m)`` and merging the outcomes
    is bit-identical to running ``[0, m)`` at once.  Importance-mode
    scenarios (``trial_mode="importance"``) run the likelihood-weighted
    rare-event path and additionally fill the outcome's weighted
    accumulators and origin strata (``weighted_error_sum``/``_sumsq`` sum
    the whole installment's per-symbol values at once, not chunk by chunk).

    Points whose merged parameters declare ``noc_*`` keys run NoC bus
    traffic (:func:`evaluate_noc_point`) instead of a point-to-point payload;
    the same determinism contract holds.
    """
    noc = scenario.noc_for_point(parameters)
    if noc is not None:
        return evaluate_noc_point(scenario, noc, parameters, seed, backend, chunk_symbols)
    config, channel = scenario.config_for_point(parameters)
    channels = scenario.channels
    importance = ImportanceSettings() if scenario.trial_mode == "importance" else None
    k = config.ppm_bits
    if symbols is None:
        symbols = max(1, -(-scenario.bits_per_point // k))
    # The shared chunked-link trial defines the reproducibility protocol
    # (seed draw, payload draw, transmission order) in one place.
    trial = LinkBatchTrial(
        config,
        backend=backend,
        channel=channel,
        channels=channels if channels > 1 else None,
        crosstalk=scenario.crosstalk_for_point(parameters),
        importance=importance,
    )
    bit_errors = symbol_errors = 0
    detection_counts: Dict[str, int] = {}
    channel_bits = np.zeros(channels, dtype=np.int64)
    channel_bit_errors = np.zeros(channels, dtype=np.int64)
    # Importance only: each chunk's per-symbol w·biterr (summed once over the
    # whole point, in symbol order), the weighted symbol-error indicator
    # moments, and the weighted bit-error mass split by winning origin.
    weighted_errors: List[np.ndarray] = []
    indicator_sum = indicator_sumsq = 0.0
    error_strata: Dict[str, float] = {}
    label = scenario.point_label(parameters)
    for count, generator in chunk_generators(seed, label, symbols, chunk_symbols, start_symbol):
        result = trial(generator, count)
        errors = result.symbol_bit_errors
        err_mask = errors > 0
        bit_errors += int(errors.sum())
        symbol_errors += int(np.count_nonzero(err_mask))
        for origin, origin_count in result.detection_counts.items():
            detection_counts[origin] = detection_counts.get(origin, 0) + origin_count
        if channels > 1:
            channel_bits += result.channel_bits
            channel_bit_errors += result.channel_bit_errors
        if importance is None:
            continue
        weights = np.asarray(result.symbol_weights, dtype=float)
        mass = weights * errors
        weighted_errors.append(mass)
        indicator = weights * err_mask
        indicator_sum += float(indicator.sum())
        indicator_sumsq += float(np.square(indicator).sum())
        origins = np.asarray(result.symbol_origins)
        for code in np.unique(origins[err_mask]):
            code = int(code)
            name = "missed" if code < 0 else ORIGIN_BY_CODE[code].value
            stratum = float(mass[err_mask & (origins == code)].sum())
            error_strata[name] = error_strata.get(name, 0.0) + stratum
    weighted: Dict[str, Any] = {}
    if importance is not None:
        mass = np.concatenate(weighted_errors)
        weighted = {
            "weighted_error_sum": float(mass.sum()),
            "weighted_error_sumsq": float(np.square(mass).sum()),
            "weighted_symbol_error_sum": indicator_sum,
            "weighted_symbol_error_sumsq": indicator_sumsq,
            "error_strata": error_strata,
        }
    return PointOutcome(
        config=config,
        bits=symbols * k,
        bit_errors=bit_errors,
        symbols=symbols,
        symbol_errors=symbol_errors,
        detection_counts=detection_counts,
        channels=channels,
        channel_bits=tuple(channel_bits.tolist()) if channels > 1 else (),
        channel_bit_errors=tuple(channel_bit_errors.tolist()) if channels > 1 else (),
        **weighted,
    )


def evaluate_noc_point(
    scenario: Scenario,
    noc: Mapping[str, Any],
    parameters: Mapping[str, Any],
    seed: int,
    backend: str,
    chunk_symbols: int,
) -> PointOutcome:
    """Evaluate one NoC traffic grid point (the bus analogue of a link point).

    The scenario's ``bits_per_point`` is the offered payload-bit budget:
    ``bits_per_point // packet_bits`` packets are generated by
    :class:`~repro.simulation.montecarlo.NocTrafficTrial` and drained through
    the epoch-batched bus, chunked so one chunk's packets serialise to about
    ``chunk_symbols`` bus slots (the same knob that bounds link-point chunks,
    and like there part of the deterministic seeding layout).  One loop runs
    a bus per chunk and merges each drained bus's statistics.  A point that
    offers no traffic — zero offered load, or a budget below one packet —
    returns an *empty* outcome whose ratio metrics are NaN.
    """
    from repro.noc.bus import BusStatistics

    config, _channel = scenario.config_for_point(parameters)
    packet_bits = int(noc["packet_bits"])
    offered_load = float(noc["offered_load"])
    packets = scenario.bits_per_point // packet_bits
    totals = BusStatistics()
    good_bits = 0

    if offered_load > 0 and packets > 0:
        trial = NocTrafficTrial(
            config=config,
            backend=backend,
            stack_dies=int(noc["stack_dies"]),
            stack_thickness=float(noc["stack_thickness"]),
            traffic=str(noc["traffic"]),
            offered_load=offered_load,
            packet_bits=packet_bits,
        )
        chunk_packets = max(1, chunk_symbols // trial.slots_per_packet)
        label = scenario.point_label(parameters)
        for count, generator in chunk_generators(seed, label, packets, chunk_packets):
            bus = trial(generator, count)
            totals.merge(bus.statistics)
            # The numerator of saturation_throughput.
            good_bits += bus.good_bits()

    return PointOutcome(
        config=config,
        bits=totals.bits_delivered,
        bit_errors=totals.bit_errors,
        symbols=totals.busy_slots,
        symbol_errors=0,
        noc={
            "packets_offered": totals.packets_offered,
            "packets_delivered": totals.packets_delivered,
            "packets_corrupted": totals.packets_corrupted,
            "good_bits": good_bits,
            "busy_slots": totals.busy_slots,
            "total_slots": totals.total_slots,
            "total_latency": totals.total_latency,
        },
    )


def _task_scenario(task: PointTask) -> Scenario:
    """The scenario a task runs: the live object in-process, else rebuilt.

    In-process (``live_scenario`` present) the original scenario object is
    used directly, preserving subclass overrides.  Across a process boundary
    the scenario is rebuilt from the mapping; metric evaluation happens in
    the *parent* (see
    :meth:`~repro.scenarios.runner.ExperimentRunner.build_point`), so metric
    names play no part in point evaluation or chunk planning — but
    ``Scenario.from_mapping`` validates them against the local registry,
    which in a fresh worker interpreter (``spawn`` start method) lacks any
    runtime-registered metrics.  Unknown names are therefore dropped before
    rebuilding; results are unaffected.  The task's parameters must name one
    grid point, each value spelled as the point's label spells it (the label
    seeds the point's chunks); otherwise :class:`ValueError` names the
    parameter.
    """
    if task.live_scenario is not None:
        return task.live_scenario
    mapping = dict(task.scenario)
    known = set(available_metrics())
    kept = [name for name in mapping.get("metrics", ()) if name in known]
    mapping["metrics"] = kept or ["ber"]
    scenario = Scenario.from_mapping(mapping)
    for name in sorted(set(scenario.sweep_axes) | set(task.parameters)):
        value = task.parameters.get(name)
        if repr(value) not in map(repr, scenario.sweep_axes.get(name, ())):
            raise ValueError(f"task parameter {name!r} is not on the grid, got {value!r}")
    return scenario


def evaluate_task(task: PointTask) -> PointOutcome:
    """Evaluate one :class:`PointTask` (the process-pool worker entry point).

    Top-level (hence picklable by reference) and dependent only on the task's
    plain data (see :func:`_task_scenario`), so it runs identically in the
    parent and in worker processes.
    """
    return evaluate_point(
        _task_scenario(task),
        task.parameters,
        task.seed,
        task.backend,
        task.chunk_symbols,
        start_symbol=task.start_symbol,
        symbols=task.symbols,
    )


def evaluate_task_attempt(task: PointTask, attempt: int) -> PointOutcome:
    """One *attempt* at a task: the retry-aware worker entry point.

    Identical to :func:`evaluate_task` except that an active chaos schedule
    (the ``REPRO_CHAOS`` environment hook, inherited by worker processes)
    may inject a fault first.  The fault key mixes the task seed with the
    grid index, so even under the ``"shared"`` seed policy each point draws
    an independent fault decision — and a given ``(point, attempt)`` always
    draws the *same* one, run after run.
    """
    schedule = active_chaos()
    if schedule is not None:
        key = split_seed(task.seed, f"chaos-point:{task.index}")
        inject_fault(schedule, key, attempt)
    return evaluate_task(task)


def _evaluate_with_retry(
    executor: Union["SerialExecutor", "ThreadExecutor"], task: PointTask
) -> Union[PointOutcome, PointFailure]:
    """Evaluate one task under the executor's retry policy, in-process.

    The shared attempt loop of the in-process executors (serial and thread):
    the executor contributes its ``retry``/``failure_policy`` settings and a
    ``_bump`` counter hook (plain increments serially, lock-guarded under
    threads), and :meth:`AttemptQueue.failed` settles each failed attempt.
    Pre-emption is impossible in-process, so a ``timeout`` is enforced
    *post hoc*: an attempt that overran is discarded and retried.
    """
    attempts = AttemptQueue(executor.retry, executor.failure_policy, executor._bump)
    attempts.put(task)
    timeout = attempts.policy.timeout
    started = time.monotonic()
    while True:
        entry = attempts.take()
        if entry is None:
            attempts.wait(math.inf)  # a retry waiting out its backoff
            continue
        _task, attempt = entry
        attempt_started = time.monotonic()
        try:
            outcome = evaluate_task_attempt(task, attempt)
            elapsed = time.monotonic() - attempt_started
            if timeout is not None and elapsed > timeout:
                raise PointTimeoutError(
                    f"point {task.index} attempt {attempt} ran {elapsed:.3f}s, "
                    f"over the {timeout}s budget"
                )
            return outcome
        except Exception as error:
            failure = attempts.failed(task, attempt, error, started)
            if failure is not None:
                return failure


@runtime_checkable
class Executor(Protocol):
    """Structural protocol every grid-point executor implements.

    ``map_tasks`` consumes :class:`PointTask` work units and yields
    ``(index, result)`` pairs as points complete; completion order is
    unspecified, grid order is reconstructed by the caller from ``index``.
    A result is normally a :class:`~repro.scenarios.metrics.PointOutcome`;
    under ``failure_policy="continue"`` an exhausted point yields a
    :class:`~repro.scenarios.faults.PointFailure` instead.
    """

    def map_tasks(
        self, tasks: Sequence[PointTask]
    ) -> Iterator[Tuple[int, Union[PointOutcome, PointFailure]]]: ...


class SerialExecutor:
    """Evaluates every task in grid order, in the calling process.

    Parameters
    ----------
    retry:
        Optional :class:`~repro.scenarios.faults.RetryPolicy`.  A failing
        attempt is retried (with the policy's deterministic backoff) up to
        ``max_attempts`` times; because point evaluation is a pure function
        of the task, a successful retry is bit-identical to a first-attempt
        success.  The serial path cannot pre-empt a running evaluation, so
        ``timeout`` is enforced *post hoc*: an attempt that overran is
        discarded and retried.
    failure_policy:
        ``"fail_fast"`` (default) re-raises the final error of an exhausted
        point; ``"continue"`` yields a structured
        :class:`~repro.scenarios.faults.PointFailure` and moves on.
    """

    def __init__(
        self,
        retry: Optional[RetryPolicy] = None,
        failure_policy: str = "fail_fast",
    ) -> None:
        self.retry = retry
        self.failure_policy = validate_failure_policy(failure_policy)
        self.stats: Dict[str, int] = {"retries": 0, "failures": 0}

    def map_tasks(
        self, tasks: Sequence[PointTask]
    ) -> Iterator[Tuple[int, Union[PointOutcome, PointFailure]]]:
        for task in tasks:
            yield task.index, _evaluate_with_retry(self, task)

    def _bump(self, key: str) -> None:
        self.stats[key] += 1

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ThreadExecutor:
    """Dispatches tasks across a thread pool in the calling process.

    Threads share the interpreter, so this only pays off when point
    evaluation spends its time *outside* the GIL — which the ``"cext"``
    compute kernel does (:mod:`repro.kernels`: its ``ctypes`` calls release
    the GIL for the duration of a window scan).  Under the ``"python"`` and
    ``"vector"`` kernels the threads serialise on the GIL and a thread pool
    is no faster than :class:`SerialExecutor`; use :class:`ProcessExecutor`
    there instead.

    What threads buy over processes: zero pickling, zero IPC, zero worker
    start-up, and no picklability contract at all — subclassed scenarios and
    runtime-registered backends work unchanged because every task runs in
    the parent interpreter.  Reports are **bit-identical** to a serial run:
    tasks funnel through the same :func:`evaluate_point` with pre-derived
    seeds, so scheduling order is unobservable in the results.

    Parameters
    ----------
    workers:
        Pool size; defaults to the *usable* CPU count capped at the number
        of tasks.  Results are independent of ``workers``.
    retry:
        Optional :class:`~repro.scenarios.faults.RetryPolicy`, with the
        in-process semantics of :class:`SerialExecutor` (post-hoc timeout
        enforcement; a running attempt cannot be pre-empted).
    failure_policy:
        ``"fail_fast"`` (default) re-raises the final error of an exhausted
        point; ``"continue"`` yields a structured
        :class:`~repro.scenarios.faults.PointFailure` and keeps draining.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        failure_policy: str = "fail_fast",
    ) -> None:
        self.workers = validate_worker_count(workers)
        self.retry = retry
        self.failure_policy = validate_failure_policy(failure_policy)
        self.stats: Dict[str, int] = {"retries": 0, "failures": 0}
        self._stats_lock = threading.Lock()

    def _bump(self, key: str) -> None:
        with self._stats_lock:
            self.stats[key] += 1

    def map_tasks(
        self, tasks: Sequence[PointTask]
    ) -> Iterator[Tuple[int, Union[PointOutcome, PointFailure]]]:
        tasks = list(tasks)
        if not tasks:
            return
        workers = self.workers or usable_cpu_count()
        workers = max(1, min(workers, len(tasks)))
        pool = concurrent.futures.ThreadPoolExecutor(max_workers=workers)
        try:
            futures = {
                pool.submit(_evaluate_with_retry, self, task): task for task in tasks
            }
            for future in concurrent.futures.as_completed(futures):
                yield futures[future].index, future.result()
        finally:
            # Abandoned streams must not evaluate the rest of the grid:
            # cancel queued tasks, wait only for points already running.
            pool.shutdown(wait=True, cancel_futures=True)

    def __repr__(self) -> str:
        return f"ThreadExecutor(workers={self.workers!r})"


class ProcessExecutor:
    """Dispatches tasks across a process pool (``concurrent.futures``).

    The pool starts its workers with the platform's default
    :mod:`multiprocessing` start method.

    Parameters
    ----------
    workers:
        Pool size; defaults to the *usable* CPU count (scheduler affinity,
        not installed cores) capped at the number of tasks.  Results are
        independent of ``workers`` — parallelism changes completion order,
        never content.
    retry:
        Optional :class:`~repro.scenarios.faults.RetryPolicy`.  Failed
        attempts are settled by the retry rule every executor shares
        (:meth:`~repro.scenarios.faults.AttemptQueue.failed`: retry with
        deterministic backoff, then close the point out).  Beyond the
        serial semantics the pool enforces the policy's ``timeout``
        pre-emptively — a worker still running past the budget is treated
        as hung, the pool is torn down and rebuilt, and only the overdue
        task is charged an attempt (innocent in-flight tasks are requeued
        uncharged).  A dead worker (``BrokenProcessPool``: segfault, OOM
        kill, ``os._exit``) likewise rebuilds the pool; since the culprit
        cannot be identified, every in-flight task is charged one attempt
        and requeued.  Because point seeds are pre-derived and evaluation
        is pure, re-execution after any of this is bit-identical to an
        unfailed run.
    failure_policy:
        ``"fail_fast"`` (default) re-raises the final error of an exhausted
        point; ``"continue"`` yields a structured
        :class:`~repro.scenarios.faults.PointFailure` and keeps draining the
        grid.
    """

    #: Poll interval for the dispatch loop (seconds): bounds hung-worker
    #: detection latency and delayed-retry promotion without busy-waiting.
    _POLL_SECONDS = 0.05

    def __init__(
        self,
        workers: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        failure_policy: str = "fail_fast",
    ) -> None:
        self.workers = validate_worker_count(workers)
        self.retry = retry
        self.failure_policy = validate_failure_policy(failure_policy)
        self.stats: Dict[str, int] = {"retries": 0, "failures": 0, "pool_rebuilds": 0}

    def _bump(self, key: str) -> None:
        self.stats[key] += 1

    @staticmethod
    def _terminate_workers(pool: concurrent.futures.ProcessPoolExecutor) -> None:
        """Hard-kill a pool's worker processes (hung workers never exit on
        their own, so a plain shutdown would block forever)."""
        for process in list(getattr(pool, "_processes", {}).values() or ()):
            if process.is_alive():
                process.terminate()
        pool.shutdown(wait=False, cancel_futures=True)

    def map_tasks(
        self, tasks: Sequence[PointTask]
    ) -> Iterator[Tuple[int, Union[PointOutcome, PointFailure]]]:
        tasks = list(tasks)
        if not tasks:
            return
        require_plain_scenarios(tasks, boundary="a process boundary")
        attempts = AttemptQueue(self.retry, self.failure_policy, self._bump)
        for task in tasks:
            attempts.put(task)
        timeout = attempts.policy.timeout
        workers = self.workers or usable_cpu_count()
        workers = max(1, min(workers, len(tasks)))

        def new_pool() -> concurrent.futures.ProcessPoolExecutor:
            return concurrent.futures.ProcessPoolExecutor(max_workers=workers)

        pool = new_pool()
        in_flight: Dict[concurrent.futures.Future, Tuple[PointTask, int, float]] = {}
        first_dispatch: Dict[int, float] = {}

        def rebuild_pool() -> None:
            nonlocal pool
            self._terminate_workers(pool)
            pool = new_pool()
            self.stats["pool_rebuilds"] += 1

        try:
            while attempts or in_flight:
                pool_broken = False
                while len(in_flight) < workers:
                    entry = attempts.take()
                    if entry is None:
                        break
                    task, attempt = entry
                    try:
                        future = pool.submit(evaluate_task_attempt, task, attempt)
                    except (concurrent.futures.BrokenExecutor, RuntimeError):
                        # The pool died between polls; requeue and rebuild.
                        attempts.put(task, attempt)
                        pool_broken = True
                        break
                    now = time.monotonic()
                    in_flight[future] = (task, attempt, now)
                    first_dispatch.setdefault(task.index, now)
                failed: List[Tuple[PointTask, int, Exception]] = []
                if in_flight and not pool_broken:
                    done, _running = concurrent.futures.wait(
                        set(in_flight),
                        timeout=self._POLL_SECONDS,
                        return_when=concurrent.futures.FIRST_COMPLETED,
                    )
                    for future in done:
                        task, attempt, _started = in_flight.pop(future)
                        try:
                            result = future.result()
                        except concurrent.futures.BrokenExecutor:
                            # A worker died; the whole pool is poisoned and
                            # every in-flight future will raise this.  Put the
                            # entry back so the uniform crash handling below
                            # charges all of them identically.
                            in_flight[future] = (task, attempt, _started)
                            pool_broken = True
                            break
                        except concurrent.futures.CancelledError:
                            attempts.put(task, attempt)  # uncharged requeue
                        except Exception as error:
                            failed.append((task, attempt, error))
                        else:
                            yield task.index, result
                if pool_broken or getattr(pool, "_broken", False):
                    # Which in-flight task killed the worker is unknowable, so
                    # each is charged one attempt and requeued (or closed out).
                    error = concurrent.futures.process.BrokenProcessPool(
                        "a worker process died while the task was in flight"
                    )
                    for task, attempt, _started in in_flight.values():
                        failed.append((task, attempt, error))
                    in_flight.clear()
                    rebuild_pool()
                elif timeout is not None and in_flight:
                    now = time.monotonic()
                    overdue = [
                        future
                        for future, (_t, _a, started) in in_flight.items()
                        if now - started > timeout
                    ]
                    if overdue:
                        # A genuinely hung worker cannot be cancelled — kill
                        # the pool.  Only overdue tasks are charged an attempt;
                        # innocents requeue at their current attempt number.
                        for future in overdue:
                            task, attempt, _started = in_flight.pop(future)
                            error = PointTimeoutError(
                                f"point {task.index} attempt {attempt} exceeded the "
                                f"{timeout}s budget"
                            )
                            failed.append((task, attempt, error))
                        for task, attempt, _started in in_flight.values():
                            attempts.put(task, attempt)
                        in_flight.clear()
                        rebuild_pool()
                elif not in_flight:
                    attempts.wait(self._POLL_SECONDS)  # every attempt is backing off
                for task, attempt, error in failed:
                    failure = attempts.failed(task, attempt, error, first_dispatch[task.index])
                    if failure is not None:
                        yield task.index, failure
        except KeyboardInterrupt:
            # Ctrl-C must not orphan workers or leave the pool draining the
            # grid: cancel everything queued and hard-stop the workers.
            for future in in_flight:
                future.cancel()
            self._terminate_workers(pool)
            raise
        finally:
            # Abandoned streams (a consumer that stops after a few points)
            # must not simulate the rest of the grid to completion: cancel
            # everything still queued, wait only for points already running.
            pool.shutdown(wait=True, cancel_futures=True)

    def __repr__(self) -> str:
        return f"ProcessExecutor(workers={self.workers!r})"


#: The built-in executor names.  ``"cluster"`` is registered here but its
#: class lives in :mod:`repro.cluster` and is imported lazily inside
#: :func:`resolve_executor` — :mod:`repro.cluster.executor` imports *this*
#: module (PointTask, the shared validation helpers), so a module-level
#: import would be a cycle.
_EXECUTOR_NAMES: Tuple[str, ...] = ("serial", "thread", "process", "cluster")

#: ``workers=`` values accepted by each named executor: ``thread`` and
#: ``process`` take a pool size (int), ``cluster`` takes addresses
#: (``"host:port,…"`` or a sequence); ``serial`` takes none.
WorkersArg = Union[None, int, str, Sequence[Any]]


def available_executors() -> Tuple[str, ...]:
    """Names accepted by :func:`resolve_executor` (and the CLI ``--executor``)."""
    return _EXECUTOR_NAMES


def _looks_like_addresses(workers: WorkersArg) -> bool:
    """Whether a ``workers=`` value names cluster addresses, not a pool size."""
    if isinstance(workers, str):
        return ":" in workers
    return isinstance(workers, (list, tuple)) and len(workers) > 0


def resolve_executor(
    executor: Union[None, str, Executor] = None,
    workers: WorkersArg = None,
    retry: Optional[RetryPolicy] = None,
    failure_policy: Optional[str] = None,
) -> Executor:
    """Normalise an executor argument to an :class:`Executor` instance.

    ``None`` infers from ``workers``: unset means serial, a pool size (int)
    means process, worker addresses (``"host:port,…"`` or a sequence) mean
    cluster.  A string names a built-in executor, with ``workers`` forwarded
    (``"process"`` takes a pool size, ``"cluster"`` takes addresses).  An
    instance passes through unchanged, in which case ``workers`` must be
    left unset (the instance already fixed its fleet).  ``retry`` and
    ``failure_policy``, when given, are applied to whatever executor
    results — including passed-in instances, whose previous settings they
    override.
    """
    if executor is None:
        if workers is None:
            executor = "serial"
        elif _looks_like_addresses(workers):
            executor = "cluster"
        else:
            executor = "process"
    if isinstance(executor, str):
        if executor not in _EXECUTOR_NAMES:
            known = ", ".join(sorted(_EXECUTOR_NAMES))
            raise ValueError(
                f"unknown executor {executor!r}; available: {known}"
            ) from None
        if executor == "cluster":
            from repro.cluster import ClusterExecutor  # lazy: avoids a cycle

            resolved: Executor = ClusterExecutor(workers=workers)
        elif executor == "process":
            if _looks_like_addresses(workers):
                raise WorkerCountError(
                    f"executor 'process' takes a pool size, not worker "
                    f"addresses; got {workers!r} — use executor='cluster' "
                    f"for a socket fleet"
                )
            resolved = ProcessExecutor(workers=workers)
        elif executor == "thread":
            if _looks_like_addresses(workers):
                raise WorkerCountError(
                    f"executor 'thread' takes a pool size, not worker "
                    f"addresses; got {workers!r} — use executor='cluster' "
                    f"for a socket fleet"
                )
            resolved = ThreadExecutor(workers=workers)
        else:
            if workers is not None:
                raise ValueError(f"executor {executor!r} does not take workers=")
            resolved = SerialExecutor()
    else:
        if workers is not None:
            raise ValueError("pass workers= only with a named executor, not an instance")
        if not isinstance(executor, Executor):
            raise TypeError(f"not an executor: {executor!r}")
        resolved = executor
    if retry is not None:
        resolved.retry = retry
    if failure_policy is not None:
        resolved.failure_policy = validate_failure_policy(failure_policy)
    return resolved
