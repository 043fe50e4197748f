"""The network-dispatch executor: grid points across a worker fleet.

:class:`ClusterExecutor` implements the same structural
:class:`~repro.scenarios.executors.Executor` protocol as the serial and
process executors — ``map_tasks(tasks)`` yielding ``(index, outcome)`` in
completion order — but dispatches over sockets to
:class:`~repro.cluster.worker.ClusterWorker` processes, in either topology:

* **dial mode** (``workers="host:port,…"``): the coordinator dials listening
  workers (the CLI's ``repro run --executor cluster --workers …`` shape);
* **listen mode** (``bind=("host", port)``): the coordinator binds a socket
  and workers dial in (``repro worker --connect``) — an elastic fleet that
  grows mid-run, since a late joiner simply steals from the queues.

Scheduling is **pull-based with work stealing**: chunk tasks are dealt
round-robin into per-worker queues up front; a worker that drains its own
queue takes from the global requeue backlog, then steals from the longest
surviving queue — so one slow machine never strands its share of the grid.

Inside a point, :mod:`repro.cluster.chunks` fans the symbol budget out into
chunk-aligned sub-tasks and folds the partial outcomes back in ascending
symbol order, which keeps cluster reports **bit-identical** to serial and
process runs — the executor changes completion order and wall-clock, never
content.  The failure semantics mirror the process pool, built on the same
:class:`~repro.scenarios.faults.RetryPolicy` /
:class:`~repro.scenarios.faults.PointFailure` machinery: a failed attempt
retries with deterministic backoff, a worker that hangs up (or stops
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

import heapq
import itertools
import select
import socket
import threading
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

from repro.cluster.chunks import merge_chunk_outcomes, split_point_task
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
    PointFailure,
    PointTimeoutError,
    RetryPolicy,
    WorkerLostError,
    validate_failure_policy,
)
from repro.scenarios.metrics import PointOutcome


class ClusterTaskError(RuntimeError):
    """A worker-side evaluation error re-raised coordinator-side.

    Only the exception's type name and message cross the wire; the original
    class is preserved on :attr:`error_type` (and in ``PointFailure``
    records, so reports look identical to an in-process failure).
    """

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type


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
        "tasks_done",
    )

    def __init__(self, channel: MessageChannel, address: Optional[Address]) -> None:
        self.channel = channel
        self.address = address  # dial-mode address; None for dialled-in workers
        self.name: Optional[str] = None
        self.pid: Optional[int] = None
        self.attached = False
        self.ready = False
        self.queue: "deque[Tuple[PointTask, int]]" = deque()
        self.in_flight_id: Optional[int] = None
        self.last_seen = time.monotonic()
        self.tasks_done = 0

    def label(self) -> str:
        if self.name:
            return self.name
        if self.address is not None:
            return format_address(self.address)
        return self.channel.peer


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
        address strings/pairs (dial mode).
    bind:
        ``(host, port)`` to listen on for workers dialling in (listen mode;
        port 0 binds an ephemeral port — see :attr:`bound_address`).  Exactly
        one of ``workers``/``bind`` must be given.
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
        workers: Union[None, str, Sequence[Any]] = None,
        bind: Union[None, str, Address] = None,
        fan_out: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        failure_policy: str = "fail_fast",
        connect_timeout: float = 10.0,
        heartbeat_timeout: float = 10.0,
    ) -> None:
        if isinstance(workers, int):
            raise WorkerCountError(
                f"cluster workers are addresses (host:port,…), not a pool size; "
                f"got {workers!r} — use executor='process' for a local pool"
            )
        if (workers is None) == (bind is None):
            raise ValueError(
                "pass exactly one of workers= (addresses to dial) and "
                "bind= (an address to listen on)"
            )
        self.addresses: Tuple[Address, ...] = (
            parse_addresses(workers) if workers is not None else ()
        )
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
        self._closed = False
        # Listen mode: adopt dial-in connections from an accept thread.
        self.bound_address: Optional[Address] = None
        self._listener: Optional[socket.socket] = None
        self._incoming: List[socket.socket] = []
        self._incoming_lock = threading.Lock()
        if bind is not None:
            self._start_listener(bind)

    # -- fleet management ------------------------------------------------------
    def _start_listener(self, bind: Union[str, Address]) -> None:
        from repro.cluster.protocol import parse_address

        address = parse_address(bind)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(address)
        listener.listen(16)
        listener.settimeout(0.2)
        self._listener = listener
        self.bound_address = listener.getsockname()[:2]

        def _accept_loop() -> None:
            while not self._closed and self._listener is not None:
                try:
                    conn, _addr = listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    return
                with self._incoming_lock:
                    self._incoming.append(conn)

        threading.Thread(
            target=_accept_loop, name="repro-cluster-accept", daemon=True
        ).start()

    def _adopt_incoming(self) -> None:
        with self._incoming_lock:
            fresh, self._incoming = self._incoming, []
        for conn in fresh:
            self._links.append(_Link(MessageChannel(conn), address=None))

    def _dial_missing(self) -> None:
        """Dial every configured address that has no live link."""
        connected = {link.address for link in self._links if link.address is not None}
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
            self._adopt_incoming()
            if self._links:
                return
            if time.monotonic() >= deadline:
                where = (
                    ", ".join(format_address(a) for a in self.addresses)
                    or (self.bound_address and format_address(self.bound_address))
                    or "?"
                )
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
        policy = self.retry or RetryPolicy(max_attempts=1)
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
        # Deal round-robin into per-worker queues; late joiners start empty
        # and steal.  Stale state from an abandoned previous stream is
        # discarded first: queued chunks are dropped and a still-running
        # stale task is forgotten (its result will carry an unknown task_id
        # and be ignored; the worker's `ready` after it re-parks the link).
        for link in self._links:
            link.queue.clear()
            link.in_flight_id = None
        for position, entry in enumerate(all_chunks):
            self._links[position % len(self._links)].queue.append(entry)

        pending: "deque[Tuple[PointTask, int]]" = deque()
        delayed: List[Tuple[float, int, PointTask, int]] = []
        tiebreak = itertools.count()
        in_flight: Dict[int, Tuple[PointTask, int, _Link, float]] = {}
        emit: "deque[Tuple[int, Union[PointOutcome, PointFailure]]]" = deque()
        state = {"resolved": 0}

        def point_config(point: _Point) -> Any:
            if point.config is None:
                point.config, _channel = scenario.config_for_point(
                    point.task.parameters
                )
            return point.config

        def purge_point(index: int) -> None:
            """Drop every queued chunk of a failed point (in-flight results
            for it are simply ignored on arrival)."""
            for link in self._links:
                link.queue = deque(
                    entry for entry in link.queue if entry[0].index != index
                )
            nonlocal_pending = [e for e in pending if e[0].index != index]
            pending.clear()
            pending.extend(nonlocal_pending)
            kept = [entry for entry in delayed if entry[2].index != index]
            if len(kept) != len(delayed):
                delayed[:] = kept
                heapq.heapify(delayed)

        def chunk_failed(
            chunk: PointTask, attempt: int, error_type: str, message: str
        ) -> None:
            """Retry a failed chunk attempt, or close its whole point out."""
            point = points[chunk.index]
            if point.resolved:
                return
            if attempt < policy.max_attempts:
                self.stats["retries"] += 1
                delay = policy.delay(chunk.seed, attempt)
                if delay > 0:
                    heapq.heappush(
                        delayed,
                        (time.monotonic() + delay, next(tiebreak), chunk, attempt + 1),
                    )
                else:
                    pending.append((chunk, attempt + 1))
                return
            self.stats["failures"] += 1
            point.resolved = True
            state["resolved"] += 1
            purge_point(chunk.index)
            if self.failure_policy == "continue":
                started = point.first_dispatch or time.monotonic()
                emit.append(
                    (
                        chunk.index,
                        PointFailure(
                            index=chunk.index,
                            parameters=point.task.parameters,
                            error_type=error_type,
                            message=message,
                            attempts=policy.max_attempts,
                            elapsed=time.monotonic() - started,
                        ),
                    )
                )
                return
            if error_type == "WorkerLostError":
                raise WorkerLostError(message)
            if error_type == "PointTimeoutError":
                raise PointTimeoutError(message)
            raise ClusterTaskError(error_type, message)

        def lose_link(link: _Link, error_type: str, message: str) -> None:
            """A worker died or hung: requeue its work, drop the connection.

            The in-flight chunk is charged one attempt (the worker may have
            died *because* of it); queued chunks are innocent and
            redistribute uncharged.
            """
            self._drop_link(link)
            if link.in_flight_id is not None:
                entry = in_flight.pop(link.in_flight_id, None)
                link.in_flight_id = None
                if entry is not None:
                    chunk, attempt, _link, _started = entry
                    self.stats["tasks_requeued"] += 1
                    chunk_failed(chunk, attempt, error_type, message)
            if link.queue:
                pending.extend(link.queue)
                link.queue.clear()

        def take_work(link: _Link) -> Optional[Tuple[PointTask, int]]:
            """The link's next chunk: own queue, then backlog, then stealing."""
            if link.queue:
                return link.queue.popleft()
            if pending:
                return pending.popleft()
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
                pending.appendleft((chunk, attempt))
                lose_link(link, "WorkerLostError", str(error))
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
                entry = in_flight.pop(task_id, None)
                if entry is None:
                    return  # a stale result from a presumed-dead worker
                chunk, attempt, _link, _started = entry
                if kind == "task_error":
                    chunk_failed(
                        chunk,
                        attempt,
                        str(message.get("error_type", "RuntimeError")),
                        str(message.get("message", "")),
                    )
                    return
                link.tasks_done += 1
                point = points[chunk.index]
                if point.resolved:
                    return  # the point already failed; drop the partial
                point.parts[chunk.start_symbol] = outcome_from_wire(
                    point_config(point), message["outcome"]
                )
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
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    _ready_at, _tie, chunk, attempt = heapq.heappop(delayed)
                    pending.append((chunk, attempt))
                self._adopt_incoming()
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
                    # The whole fleet is gone mid-run: re-dial (dial mode) or
                    # wait out the connect deadline for joiners (listen mode).
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
                        lose_link(link, "WorkerLostError", str(error))
                        continue
                    for message in messages:
                        handle_message(link, message)
                now = time.monotonic()
                for link in list(self._links):
                    if link.attached and now - link.last_seen > self.heartbeat_timeout:
                        lose_link(
                            link,
                            "WorkerLostError",
                            f"worker {link.label()} stopped heartbeating "
                            f"({self.heartbeat_timeout}s)",
                        )
                if policy.timeout is not None:
                    for task_id, entry in list(in_flight.items()):
                        chunk, attempt, link, started = entry
                        if now - started <= policy.timeout:
                            continue
                        # The worker is hung on this chunk: it loses the
                        # connection, and the chunk is charged a timeout.
                        self._drop_link(link)
                        in_flight.pop(task_id, None)
                        link.in_flight_id = None
                        if link.queue:
                            pending.extend(link.queue)
                            link.queue.clear()
                        chunk_failed(
                            chunk,
                            attempt,
                            "PointTimeoutError",
                            f"point {chunk.index} chunk at symbol "
                            f"{chunk.start_symbol} exceeded the "
                            f"{policy.timeout}s budget on {link.label()}",
                        )
        finally:
            self.stats["workers_connected"] = len(self._links)

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Detach from the fleet: polite shutdowns, then close everything."""
        self._closed = True
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass
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
        if self.addresses:
            where = ",".join(format_address(a) for a in self.addresses)
            return f"ClusterExecutor(workers={where!r})"
        bound = self.bound_address and format_address(self.bound_address)
        return f"ClusterExecutor(bind={bound!r})"
