"""The network-dispatch executor: grid points across a worker fleet.

:class:`ClusterExecutor` implements the same structural
:class:`~repro.scenarios.executors.Executor` protocol as the serial and
process executors — ``map_tasks(tasks)`` yielding ``(index, outcome)`` in
completion order — but dispatches over sockets to
:class:`~repro.cluster.worker.ClusterWorker` processes: the coordinator
dials the listening workers it is given (``workers="host:port,…"``, the
CLI's ``repro run --executor cluster --workers …``, each worker started by
``repro worker --listen host:port``).

Scheduling is **pull-based with work stealing**: chunk tasks are dealt
round-robin into per-worker queues up front; a worker that drains its own
queue takes a due retry or requeued chunk from the shared
:class:`~repro.scenarios.faults.AttemptQueue`, then steals from the longest
surviving queue — so one slow machine never strands its share of the grid.

Inside a point, :mod:`repro.cluster.chunks` fans the symbol budget out into
chunk-aligned sub-tasks and folds the partial outcomes back in ascending
symbol order, which keeps cluster reports **bit-identical** to serial and
process runs — the executor changes completion order and wall-clock, never
content.  The failure semantics are the process pool's, settled by the
same rule (:meth:`~repro.scenarios.faults.AttemptQueue.failed`): a failed
attempt retries with deterministic backoff, a worker that hangs up (or stops
heartbeating) has its in-flight chunk charged one attempt
(:class:`~repro.scenarios.faults.WorkerLostError`) and requeued elsewhere,
its queued work redistributed uncharged, and an overdue chunk
(``retry.timeout``) costs the hung worker its connection.  A chunk that
exhausts every attempt fails its whole point: re-raised under
``"fail_fast"``, a structured :class:`PointFailure` under ``"continue"``.

The executor keeps worker connections alive *across* ``map_tasks`` calls,
so adaptive-budget waves re-use the fleet instead of re-dialling per wave.
"""

from __future__ import annotations

import itertools
import select
import time
from collections import deque
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.cluster.chunks import check_chunk_outcome, merge_chunk_outcomes, split_point_task
from repro.cluster.protocol import (
    Address,
    ChannelClosed,
    MessageChannel,
    connect,
    format_address,
    outcome_from_wire,
    parse_addresses,
    task_to_wire,
)
from repro.scenarios.executors import (
    PointTask,
    WorkerCountError,
    _task_scenario,
    require_plain_scenarios,
    validate_worker_count,
)
from repro.scenarios.faults import (
    AttemptQueue,
    PointFailure,
    PointTimeoutError,
    RetryPolicy,
    WorkerLostError,
    validate_failure_policy,
)
from repro.scenarios.metrics import PointOutcome


class ClusterTaskError(RuntimeError):
    """A worker-side evaluation error re-raised coordinator-side.

    Only the exception's type name and message cross the wire; they are
    kept on :attr:`error_type` and :attr:`message`, which is what a
    ``PointFailure`` records, so reports look identical to an in-process
    failure.
    """

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.message = message


#: Dispatch-loop poll interval (seconds): bounds worker-death detection and
#: delayed-retry promotion latency without busy-waiting.
_POLL_SECONDS = 0.05


class _Link:
    """Coordinator-side state of one connected worker."""

    __slots__ = (
        "channel",
        "address",
        "name",
        "pid",
        "attached",
        "ready",
        "queue",
        "in_flight_id",
        "last_seen",
    )

    def __init__(self, channel: MessageChannel, address: Address) -> None:
        self.channel = channel
        self.address = address
        self.name: Optional[str] = None
        self.pid: Optional[int] = None
        self.attached = False
        self.ready = False
        self.queue: "deque[Tuple[PointTask, int]]" = deque()
        self.in_flight_id: Optional[int] = None
        self.last_seen = time.monotonic()

    def label(self) -> str:
        return self.name or format_address(self.address)


class _Point:
    """One grid point's fan-out bookkeeping during a ``map_tasks`` call."""

    __slots__ = ("task", "expected", "parts", "config", "first_dispatch", "resolved")

    def __init__(self, task: PointTask, expected: int) -> None:
        self.task = task
        self.expected = expected
        self.parts: Dict[int, PointOutcome] = {}
        self.config: Any = None
        self.first_dispatch: Optional[float] = None
        self.resolved = False


class ClusterExecutor:
    """Distributed grid-point dispatch over a socket worker fleet.

    Parameters
    ----------
    workers:
        Worker addresses to dial: ``"host:port,host:port"`` or a sequence of
        address strings/pairs.
    fan_out:
        Maximum chunk tasks per grid point; ``None`` scales with the number
        of connected workers.  Fan-out affects scheduling only — results are
        bit-identical whatever its value.
    retry / failure_policy:
        The shared fault-tolerance knobs (see
        :class:`~repro.scenarios.executors.ProcessExecutor` — semantics
        match, with a lost worker playing the role of a broken pool).
    connect_timeout:
        Seconds to wait for at least one worker before a dispatch fails.
    heartbeat_timeout:
        Seconds of silence after which a worker is declared dead.
    """

    def __init__(
        self,
        workers: Union[str, Sequence[Any]],
        fan_out: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        failure_policy: str = "fail_fast",
        connect_timeout: float = 10.0,
        heartbeat_timeout: float = 10.0,
    ) -> None:
        if workers is None:
            raise ValueError("the cluster executor needs workers= addresses (host:port,…)")
        if isinstance(workers, int):
            raise WorkerCountError(
                f"cluster workers are addresses (host:port,…), not a pool size; "
                f"got {workers!r} — use executor='process' for a local pool"
            )
        self.addresses: Tuple[Address, ...] = parse_addresses(workers)
        # Shared worker-count validation: the fan-out factor is the cluster's
        # "how parallel" knob, checked by the same rule as a pool size.
        self.fan_out = validate_worker_count(fan_out)
        self.retry = retry
        self.failure_policy = validate_failure_policy(failure_policy)
        self.connect_timeout = float(connect_timeout)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.stats: Dict[str, int] = {
            "workers_connected": 0,
            "workers_lost": 0,
            "tasks_dispatched": 0,
            "chunk_tasks": 0,
            "tasks_stolen": 0,
            "tasks_requeued": 0,
            "retries": 0,
            "failures": 0,
            "points_completed": 0,
            "max_fan_out": 1,
        }
        self._links: List[_Link] = []
        self._task_ids = itertools.count(1)

    def _bump(self, key: str) -> None:
        self.stats[key] += 1

    # -- fleet management ------------------------------------------------------
    def _dial_missing(self) -> None:
        """Dial every configured address that has no live link."""
        connected = {link.address for link in self._links}
        for address in self.addresses:
            if address in connected:
                continue
            try:
                channel = connect(address, timeout=min(self.connect_timeout, 2.0))
            except OSError:
                continue
            self._links.append(_Link(channel, address=address))

    def _ensure_workers(self) -> None:
        """Connect the fleet; wait (bounded) for at least one live worker."""
        deadline = time.monotonic() + self.connect_timeout
        while True:
            self._dial_missing()
            if self._links:
                return
            if time.monotonic() >= deadline:
                where = ", ".join(format_address(a) for a in self.addresses)
                raise RuntimeError(
                    f"no cluster workers reachable within {self.connect_timeout}s "
                    f"({where}); start some with `repro worker`"
                )
            time.sleep(0.1)

    def _drop_link(self, link: _Link) -> None:
        link.channel.close()
        if link in self._links:
            self._links.remove(link)
            self.stats["workers_lost"] += 1

    # -- the dispatch loop -----------------------------------------------------
    def map_tasks(
        self, tasks: Sequence[PointTask]
    ) -> Iterator[Tuple[int, Union[PointOutcome, PointFailure]]]:
        tasks = list(tasks)
        if not tasks:
            return
        require_plain_scenarios(tasks, boundary="the cluster wire")
        scenario = _task_scenario(tasks[0])
        attempts = AttemptQueue(self.retry, self.failure_policy, self._bump)
        timeout = attempts.policy.timeout
        self._ensure_workers()

        fan_out = self.fan_out or max(1, len(self._links))
        points: Dict[int, _Point] = {}
        all_chunks: List[Tuple[PointTask, int]] = []
        for task in tasks:
            chunks = split_point_task(scenario, task, fan_out)
            points[task.index] = _Point(task, expected=len(chunks))
            self.stats["chunk_tasks"] += len(chunks)
            self.stats["max_fan_out"] = max(self.stats["max_fan_out"], len(chunks))
            all_chunks.extend((chunk, 1) for chunk in chunks)
        # Deal round-robin into per-worker queues.  Stale state from an
        # abandoned previous stream is discarded first: queued chunks are
        # dropped and a still-running stale task is forgotten (its result
        # will carry an unknown task_id and be ignored; the worker's `ready`
        # after it re-parks the link).
        for link in self._links:
            link.queue.clear()
            link.in_flight_id = None
        for position, entry in enumerate(all_chunks):
            self._links[position % len(self._links)].queue.append(entry)

        in_flight: Dict[int, Tuple[PointTask, int, _Link, float]] = {}
        emit: "deque[Tuple[int, Union[PointOutcome, PointFailure]]]" = deque()
        state = {"resolved": 0}

        def point_config(point: _Point) -> Any:
            if point.config is None:
                point.config, _channel = scenario.config_for_point(
                    point.task.parameters
                )
            return point.config

        def chunk_failed(chunk: PointTask, attempt: int, error: Exception) -> None:
            """Settle a failed chunk attempt; a closed-out point drops its chunks."""
            point = points[chunk.index]
            failure = attempts.failed(chunk, attempt, error, point.first_dispatch)
            if failure is None:
                return
            point.resolved = True
            state["resolved"] += 1
            for link in self._links:
                link.queue = deque(e for e in link.queue if e[0].index != chunk.index)
            emit.append((chunk.index, failure))

        def requeue(link: _Link) -> None:
            """Hand a dropped link's queued chunks back uncharged."""
            for entry in link.queue:
                attempts.put(*entry)
            link.queue.clear()

        def lose_link(link: _Link, message: str) -> None:
            """A worker died or hung: requeue its work, drop the connection.

            The in-flight chunk is charged one attempt (the worker may have
            died *because* of it); queued chunks are innocent and
            redistribute uncharged.
            """
            self._drop_link(link)
            entry = in_flight.pop(link.in_flight_id, None)
            link.in_flight_id = None
            if entry is not None:
                self.stats["tasks_requeued"] += 1
                chunk_failed(entry[0], entry[1], WorkerLostError(message))
            requeue(link)

        def take_work(link: _Link) -> Optional[Tuple[PointTask, int]]:
            """The link's next chunk: own queue, then a due retry or requeued
            chunk, then stealing."""
            if link.queue:
                return link.queue.popleft()
            entry = attempts.take()
            if entry is not None:
                return entry
            victim = max(
                (other for other in self._links if other is not link and other.queue),
                key=lambda other: len(other.queue),
                default=None,
            )
            if victim is not None:
                self.stats["tasks_stolen"] += 1
                return victim.queue.pop()  # steal from the cold end
            return None

        def dispatch(link: _Link, chunk: PointTask, attempt: int) -> bool:
            task_id = next(self._task_ids)
            try:
                link.channel.send(
                    {
                        "type": "task",
                        "task_id": task_id,
                        "attempt": attempt,
                        "task": task_to_wire(chunk),
                    }
                )
            except ChannelClosed as error:
                # The worker never received the task: requeue it uncharged,
                # then account for whatever the dead link was holding.
                attempts.put(chunk, attempt)
                lose_link(link, str(error))
                return False
            link.ready = False
            link.in_flight_id = task_id
            now = time.monotonic()
            in_flight[task_id] = (chunk, attempt, link, now)
            point = points[chunk.index]
            if point.first_dispatch is None:
                point.first_dispatch = now
            self.stats["tasks_dispatched"] += 1
            return True

        def handle_message(link: _Link, message: Dict[str, Any]) -> None:
            link.last_seen = time.monotonic()
            kind = message.get("type")
            if kind == "hello":
                link.name = message.get("name")
                link.pid = message.get("pid")
                if not link.attached:
                    link.channel.send({"type": "attach"})
                    link.attached = True
                return
            if kind == "ready":
                link.ready = True
                return
            if kind == "heartbeat":
                return
            if kind in ("result", "task_error"):
                task_id = message.get("task_id")
                if link.in_flight_id == task_id:
                    link.in_flight_id = None
                entry = in_flight.pop(task_id, None) if isinstance(task_id, int) else None
                if entry is None:
                    return  # a stale result from a presumed-dead worker
                chunk, attempt, _link, _started = entry
                if kind == "task_error":
                    error = ClusterTaskError(
                        str(message.get("error_type", "RuntimeError")),
                        str(message.get("message", "")),
                    )
                    chunk_failed(chunk, attempt, error)
                    return
                point = points[chunk.index]
                if point.resolved:
                    return  # the point already failed; drop the partial
                config = point_config(point)
                try:
                    outcome = outcome_from_wire(config, message["outcome"])
                    check_chunk_outcome(scenario, chunk, outcome)
                except (AttributeError, LookupError, TypeError, ValueError) as error:
                    # Charged like a hang-up mid-task: the worker is lost.
                    self.stats["tasks_requeued"] += 1
                    self._drop_link(link)
                    requeue(link)
                    reason = f"worker {link.label()} sent a result that does not rebuild"
                    chunk_failed(chunk, attempt, WorkerLostError(f"{reason}: {error}"))
                    return
                point.parts[chunk.start_symbol] = outcome
                if len(point.parts) == point.expected:
                    merged = merge_chunk_outcomes(point.parts)
                    point.resolved = True
                    point.parts = {}
                    state["resolved"] += 1
                    self.stats["points_completed"] += 1
                    emit.append((chunk.index, merged))

        try:
            while state["resolved"] < len(points) or emit:
                if emit:
                    yield emit.popleft()
                    continue
                self.stats["workers_connected"] = len(self._links)
                # Hand work to every idle worker (loop: a steal can cascade).
                for link in list(self._links):
                    while link.attached and link.ready and link.in_flight_id is None:
                        entry = take_work(link)
                        if entry is None:
                            break
                        if not dispatch(link, *entry):
                            break  # the link died mid-send; the chunk is requeued
                if not self._links:
                    if not any(not point.resolved for point in points.values()):
                        continue
                    # The whole fleet is gone mid-run: re-dial it, waiting out
                    # the connect deadline.
                    try:
                        self._ensure_workers()
                    except RuntimeError:
                        outstanding = sum(
                            1 for point in points.values() if not point.resolved
                        )
                        raise WorkerLostError(
                            f"every cluster worker was lost with {outstanding} "
                            f"point(s) outstanding"
                        ) from None
                    continue
                channels = {link.channel.fileno(): link for link in self._links}
                try:
                    readable, _w, _x = select.select(
                        list(channels), [], [], _POLL_SECONDS
                    )
                except (OSError, ValueError):
                    readable = []  # a channel died between listing and select
                for fileno in readable:
                    link = channels[fileno]
                    try:
                        messages = link.channel.pump()
                    except ChannelClosed as error:
                        lose_link(link, str(error))
                        continue
                    for message in messages:
                        handle_message(link, message)
                now = time.monotonic()
                for link in list(self._links):
                    if link.attached and now - link.last_seen > self.heartbeat_timeout:
                        lose_link(
                            link,
                            f"worker {link.label()} stopped heartbeating "
                            f"({self.heartbeat_timeout}s)",
                        )
                if timeout is not None:
                    for task_id, (chunk, attempt, link, started) in list(in_flight.items()):
                        if now - started <= timeout:
                            continue
                        # The worker is hung on this chunk: it loses the
                        # connection, and the chunk is charged a timeout.
                        self._drop_link(link)
                        in_flight.pop(task_id, None)
                        link.in_flight_id = None
                        requeue(link)
                        error = PointTimeoutError(
                            f"point {chunk.index} chunk at symbol "
                            f"{chunk.start_symbol} exceeded the "
                            f"{timeout}s budget on {link.label()}"
                        )
                        chunk_failed(chunk, attempt, error)
        finally:
            self.stats["workers_connected"] = len(self._links)

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Detach from the fleet: polite shutdowns, then close everything."""
        for link in self._links:
            try:
                link.channel.send({"type": "shutdown"})
            except ChannelClosed:
                pass
            link.channel.close()
        self._links.clear()
        self.stats["workers_connected"] = 0

    def __enter__(self) -> "ClusterExecutor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        where = ",".join(format_address(a) for a in self.addresses)
        return f"ClusterExecutor(workers={where!r})"
