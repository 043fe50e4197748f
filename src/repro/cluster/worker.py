"""The cluster worker: evaluate chunk tasks pulled over a socket.

A :class:`ClusterWorker` is the process behind ``repro worker --listen
host:port``.  It binds a socket and the coordinator
(:class:`~repro.cluster.executor.ClusterExecutor`, the CLI's ``--workers
host:port,…``) dials it.  Port 0 binds an ephemeral port; the bound address
is reported through ``on_ready`` (the CLI prints a machine-parseable line
from it, which the cluster smoke harness reads).

On each connection the worker speaks the :mod:`repro.cluster.protocol`
dialogue: it announces itself (``hello``), the peer claims the connection
(``attach``) or asks for ``status`` (the ``repro workers`` probe), and an
attached worker pulls tasks (``ready`` → ``task`` → ``result``/``task_error``
→ ``ready`` …) while a daemon thread heartbeats on the same socket — even
mid-evaluation, so a worker grinding through a long chunk is
distinguishable from a dead one.

Task evaluation is *exactly* the process-pool worker entry point
(:func:`~repro.scenarios.executors.evaluate_task_attempt`): the task is
rebuilt from its wire mapping (plain data, never a live scenario object) and
funnels into the same ``evaluate_point`` every executor shares — which is
what keeps cluster reports bit-identical to serial ones.  The ``REPRO_CHAOS``
fault-injection hook fires on the worker's side of the wire, so chaos drills
cover the network path too.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Any, Callable, Dict, Optional, Set, Union

from repro.cluster.protocol import (
    Address,
    ChannelClosed,
    MessageChannel,
    connect,
    format_address,
    parse_address,
    task_from_wire,
    outcome_to_wire,
    _wire_int,
)
from repro.scenarios.executors import PointTask, evaluate_task_attempt
from repro.scenarios.metrics import PointOutcome

#: Seconds between heartbeat frames on an attached connection.
DEFAULT_HEARTBEAT_SECONDS = 1.0

#: Poll granularity of blocking loops (accept, recv) so ``stop()`` lands fast.
_POLL_SECONDS = 0.2


class WorkerDeath(BaseException):
    """Simulated abrupt worker death (tests and chaos drills).

    Derives from ``BaseException`` so the task loop's ``except Exception``
    reporting path cannot catch it: raising it from :meth:`ClusterWorker.
    evaluate` kills the connection with no result frame — the coordinator
    sees exactly what a SIGKILLed worker process produces (EOF mid-task) and
    must requeue the chunk elsewhere.
    """


class ClusterWorker:
    """One task-evaluating member of the fleet.

    Parameters
    ----------
    listen:
        ``"host:port"`` (or pair) to bind and await the coordinator on.
    name:
        Display name for telemetry (defaults to ``worker-<pid>``).
    heartbeat_interval:
        Seconds between liveness frames while attached.
    """

    def __init__(
        self,
        listen: Union[str, Address],
        name: Optional[str] = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_SECONDS,
    ) -> None:
        self.listen_address = parse_address(listen)
        self.name = name or f"worker-{os.getpid()}"
        self.heartbeat_interval = float(heartbeat_interval)
        self.tasks_done = 0
        self._busy = 0
        self._started = time.monotonic()
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._channels: Set[MessageChannel] = set()
        self._thread: Optional[threading.Thread] = None
        self.bound_address: Optional[Address] = None

    # -- evaluation (override point) -------------------------------------------
    def evaluate(self, task: PointTask, attempt: int) -> PointOutcome:
        """One attempt at one chunk task — the shared executor entry point."""
        return evaluate_task_attempt(task, attempt)

    # -- lifecycle -------------------------------------------------------------
    def serve_forever(
        self, on_ready: Optional[Callable[[str, int], None]] = None
    ) -> None:
        """Serve until :meth:`stop` (or, in the CLI, SIGINT); an address that
        cannot be bound raises :class:`OSError`, with the socket closed."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener = listener
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(self.listen_address)
            listener.listen(8)
            listener.settimeout(_POLL_SECONDS)
            host, port = listener.getsockname()[:2]
            self.bound_address = (host, port)
            if on_ready is not None:
                on_ready(host, port)
            while not self._stop.is_set():
                try:
                    conn, _addr = listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break  # listener closed by stop()
                thread = threading.Thread(
                    target=self._run_connection,
                    args=(MessageChannel(conn),),
                    name=f"repro-{self.name}-conn",
                    daemon=True,
                )
                thread.start()
        finally:
            self.stop()

    def start(self) -> Address:
        """Run :meth:`serve_forever` on a daemon thread (tests, benchmarks).

        Blocks until the socket is bound and returns the actual address
        (resolving an ephemeral port 0).
        """
        ready = threading.Event()

        def _on_ready(host: str, port: int) -> None:
            self.bound_address = (host, port)
            ready.set()

        self._thread = threading.Thread(
            target=self.serve_forever,
            kwargs={"on_ready": _on_ready},
            name=f"repro-{self.name}",
            daemon=True,
        )
        self._thread.start()
        if not ready.wait(timeout=10.0):
            raise RuntimeError(f"worker {self.name!r} never bound its socket")
        assert self.bound_address is not None
        return self.bound_address

    def stop(self) -> None:
        """Stop serving: close the listener and every open connection."""
        self._stop.set()
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass
        with self._lock:
            channels = list(self._channels)
        for channel in channels:
            channel.close()
        if self._thread is not None and self._thread is not threading.current_thread():
            self._thread.join(timeout=5.0)

    @property
    def state(self) -> str:
        return "busy" if self._busy else "idle"

    def status(self) -> Dict[str, Any]:
        """The worker's telemetry payload (``status_reply`` / ``repro workers``)."""
        return {
            "name": self.name,
            "pid": os.getpid(),
            "state": self.state,
            "tasks_done": self.tasks_done,
            "uptime": round(time.monotonic() - self._started, 3),
        }

    # -- the per-connection dialogue -------------------------------------------
    def _run_connection(self, channel: MessageChannel) -> None:
        with self._lock:
            self._channels.add(channel)
        try:
            channel.send({"type": "hello", "name": self.name, "pid": os.getpid()})
            while not self._stop.is_set():
                first = channel.recv(timeout=_POLL_SECONDS)
                if first is None:
                    continue
                kind = first.get("type")
                if kind == "status":
                    channel.send({"type": "status_reply", **self.status()})
                    return
                if kind == "attach":
                    self._task_loop(channel)
                    return
                return  # unknown opening — drop the connection
        except ChannelClosed:
            pass
        except WorkerDeath:
            # Simulated abrupt death: no result, no goodbye — the socket
            # just closes (below), and the whole worker stops taking tasks.
            self._stop.set()
        finally:
            with self._lock:
                self._channels.discard(channel)
            channel.close()

    def _heartbeat_loop(self, channel: MessageChannel, stop: threading.Event) -> None:
        while not stop.wait(self.heartbeat_interval):
            try:
                channel.send({"type": "heartbeat"})
            except ChannelClosed:
                return

    def _task_loop(self, channel: MessageChannel) -> None:
        stop_heartbeat = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(channel, stop_heartbeat),
            name=f"repro-{self.name}-heartbeat",
            daemon=True,
        )
        heartbeat.start()
        try:
            channel.send({"type": "ready"})
            while not self._stop.is_set():
                message = channel.recv(timeout=_POLL_SECONDS)
                if message is None:
                    continue
                kind = message.get("type")
                if kind == "shutdown":
                    return
                if kind != "task":
                    continue
                task_id = message.get("task_id")
                self._busy += 1
                try:
                    # Decoded inside the reported path: a malformed frame is
                    # answered with task_error and the connection stays up.
                    task = task_from_wire(message.get("task"))
                    attempt = _wire_int(message, "attempt", 1)
                    outcome = self.evaluate(task, attempt)
                except Exception as error:  # reported, retried by the coordinator
                    channel.send(
                        {
                            "type": "task_error",
                            "task_id": task_id,
                            "error_type": type(error).__name__,
                            "message": str(error),
                        }
                    )
                else:
                    channel.send(
                        {
                            "type": "result",
                            "task_id": task_id,
                            "outcome": outcome_to_wire(outcome),
                        }
                    )
                    self.tasks_done += 1
                finally:
                    self._busy -= 1
                channel.send({"type": "ready"})
        finally:
            stop_heartbeat.set()

    def __repr__(self) -> str:
        where = format_address(self.bound_address or self.listen_address)
        return f"ClusterWorker({self.name!r}, listen={where})"


def probe_worker(
    address: Union[str, Address], timeout: float = 2.0
) -> Dict[str, Any]:
    """Ask one worker for its status (the ``repro workers`` listing row).

    Unreachable or unresponsive workers come back as a structured
    ``state="unreachable"`` row instead of raising — a fleet listing must
    not die on its first dead member.
    """
    parsed = parse_address(address)
    row: Dict[str, Any] = {"address": format_address(parsed)}
    try:
        channel = connect(parsed, timeout=timeout)
        try:
            channel.send({"type": "status"})
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                message = channel.recv(timeout=timeout)
                if message is None:
                    break
                if message.get("type") == "status_reply":
                    row.update(
                        {key: value for key, value in message.items() if key != "type"}
                    )
                    return row
                # hello / heartbeat frames precede the reply; skip them.
        finally:
            channel.close()
        row.update({"state": "unreachable", "error": "no status reply"})
    except (OSError, ChannelClosed, ValueError) as error:
        row.update({"state": "unreachable", "error": str(error)})
    return row
