"""The cluster wire protocol: newline-delimited JSON over TCP sockets.

Everything the coordinator and workers exchange is **strict JSON, one
message per line** — the same zero-dependency discipline as
:mod:`repro.service`, but over raw sockets (no HTTP framing overhead on the
hot dispatch path).  Python's ``json`` emits floats via ``repr``, which
round-trips every IEEE-754 double exactly, so outcome accumulators survive
the wire bit for bit — the foundation of the cluster's bit-identity
contract.

Message vocabulary (``type`` field):

==============  =============  ==================================================
type            direction      meaning
==============  =============  ==================================================
``hello``       worker → coo.  worker identity (name, pid) on every connection
``attach``      coo. → worker  claim the connection for task dispatch
``ready``       worker → coo.  pull request: the worker wants a task
``task``        coo. → worker  one chunk task (``task_id``, ``attempt``, wire task)
``result``      worker → coo.  the task's outcome accumulators (``task_id``)
``task_error``  worker → coo.  the attempt raised (``error_type``, ``message``)
``heartbeat``   worker → coo.  liveness beacon, sent even while computing
``status``      probe → work.  status request (``repro workers``)
``status_reply`` worker →      status payload, connection then closes
``shutdown``    coo. → worker  drop the connection cleanly
==============  =============  ==================================================

:class:`MessageChannel` wraps a connected socket with the framing: writers
hold a lock (the worker's heartbeat thread and its task loop share one
socket), readers either block with a timeout (:meth:`MessageChannel.recv`,
the worker side) or drain whatever select() said is available
(:meth:`MessageChannel.pump`, the coordinator's dispatch loop).

Task and outcome payloads cross the wire as plain data only:
:func:`task_to_wire` ships exactly the picklable fields of a
:class:`~repro.scenarios.executors.PointTask` (never ``live_scenario``), and
:func:`outcome_to_wire` ships the outcome's *accumulators* — the link
configuration never travels, the coordinator rebuilds it from the scenario
and the point parameters exactly as the adaptive-checkpoint restore path
does.
"""

from __future__ import annotations

import json
import math
import socket
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.scenarios.executors import PointTask
from repro.scenarios.metrics import PointOutcome

#: Hard cap on one framed message (a 4096-channel outcome with per-channel
#: splits is ~50 KiB; anything near this bound is a protocol bug, not data).
MAX_MESSAGE_BYTES = 32 * 1024 * 1024

#: Read granularity of the channel buffer.
_RECV_BYTES = 1 << 16


class ChannelClosed(ConnectionError):
    """The peer hung up (EOF) or the socket failed mid-message."""


Address = Tuple[str, int]


def parse_address(value: Union[str, Address]) -> Address:
    """``"host:port"`` (or an ``(host, port)`` pair) → ``(host, port)``."""
    if isinstance(value, tuple):
        host, port = value
        return str(host), int(port)
    text = str(value).strip()
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"worker address must be host:port, got {value!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"worker address port must be an int, got {value!r}") from None


def parse_addresses(
    value: Union[str, Sequence[Union[str, Address]]]
) -> Tuple[Address, ...]:
    """A ``"host:port,host:port"`` string or sequence → address tuples."""
    if isinstance(value, str):
        parts: Sequence[Union[str, Address]] = [
            part for part in value.split(",") if part.strip()
        ]
    else:
        parts = list(value)
    if not parts:
        raise ValueError(f"no worker addresses in {value!r}")
    return tuple(parse_address(part) for part in parts)


def format_address(address: Address) -> str:
    return f"{address[0]}:{address[1]}"


class MessageChannel:
    """One connected socket, framed as newline-delimited JSON messages.

    Sends are serialised under a lock so concurrent writers (the worker's
    heartbeat thread alongside its task loop) never interleave frames.
    Reads are single-consumer by design — each side has exactly one reader.
    """

    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._buffer = bytearray()
        self._decoded: List[Dict[str, Any]] = []
        self._send_lock = threading.Lock()
        self.closed = False

    def fileno(self) -> int:
        return self._sock.fileno()

    @property
    def peer(self) -> str:
        try:
            return format_address(self._sock.getpeername()[:2])
        except OSError:
            return "<disconnected>"

    # -- writing ---------------------------------------------------------------
    def send(self, message: Dict[str, Any]) -> None:
        data = json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"
        try:
            with self._send_lock:
                self._sock.sendall(data)
        except OSError as error:
            self.close()
            raise ChannelClosed(f"send to {self.peer} failed: {error}") from error

    # -- reading ---------------------------------------------------------------
    def _decode_buffer(self) -> None:
        """Move every complete frame from the byte buffer to the decoded queue.

        A frame that is not a UTF-8 JSON object, or one over
        :data:`MAX_MESSAGE_BYTES` whether or not its newline has arrived,
        raises :class:`ChannelClosed`: the peer does not speak the protocol.
        """
        while True:
            newline = self._buffer.find(b"\n", 0, MAX_MESSAGE_BYTES + 1)
            if newline < 0:
                if len(self._buffer) > MAX_MESSAGE_BYTES:
                    raise ChannelClosed(f"{self.peer} sent an overlong message")
                return
            line = bytes(self._buffer[:newline])
            del self._buffer[: newline + 1]
            if line.strip():
                try:
                    message = json.loads(line.decode("utf-8"))
                except (ValueError, RecursionError):  # UTF-8, JSON, nesting
                    message = None
                if not isinstance(message, dict):
                    raise ChannelClosed(f"{self.peer} sent a frame that is not a JSON object")
                self._decoded.append(message)

    def recv(self, timeout: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """Blocking read of one message.

        Returns the message, or ``None`` when ``timeout`` elapsed with no
        complete frame (callers loop, checking their stop conditions).
        Raises :class:`ChannelClosed` on EOF or a dead socket.
        """
        while True:
            if self._decoded:
                return self._decoded.pop(0)
            try:
                self._sock.settimeout(timeout)
                chunk = self._sock.recv(_RECV_BYTES)
            except socket.timeout:
                return None
            except OSError as error:
                self.close()
                raise ChannelClosed(f"recv from {self.peer} failed: {error}") from error
            if not chunk:
                self.close()
                raise ChannelClosed(f"{self.peer} hung up")
            self._buffer.extend(chunk)
            self._decode_buffer()

    def pump(self) -> List[Dict[str, Any]]:
        """Non-blocking drain: every complete message currently available.

        Called by the coordinator after ``select()`` reported the socket
        readable.  Raises :class:`ChannelClosed` on EOF/socket death.
        """
        try:
            self._sock.settimeout(0.0)
            chunk = self._sock.recv(_RECV_BYTES)
        except (BlockingIOError, InterruptedError):
            chunk = None
        except OSError as error:
            self.close()
            raise ChannelClosed(f"recv from {self.peer} failed: {error}") from error
        if chunk == b"":
            self.close()
            raise ChannelClosed(f"{self.peer} hung up")
        if chunk:
            self._buffer.extend(chunk)
        self._decode_buffer()
        drained, self._decoded = self._decoded, []
        return drained

    def close(self) -> None:
        self.closed = True
        try:
            self._sock.close()
        except OSError:
            pass


def connect(address: Address, timeout: float = 5.0) -> MessageChannel:
    """Dial ``address`` and wrap the connection in a :class:`MessageChannel`."""
    sock = socket.create_connection(address, timeout=timeout)
    sock.settimeout(None)
    return MessageChannel(sock)


# -- task / outcome wire forms -------------------------------------------------
def task_to_wire(task: PointTask) -> Dict[str, Any]:
    """A :class:`PointTask` as plain JSON data (``live_scenario`` never ships)."""
    return {
        "scenario": dict(task.scenario),
        "parameters": dict(task.parameters),
        "seed": task.seed,
        "backend": task.backend,
        "chunk_symbols": task.chunk_symbols,
        "index": task.index,
        "start_symbol": task.start_symbol,
        "symbols": task.symbols,
    }


def _wire_int(mapping: Any, name: str, default: Any = None) -> int:
    """``mapping[name]`` as an int; a missing or non-integer field raises
    :class:`ValueError` naming it."""
    value = mapping.get(name, default) if isinstance(mapping, dict) else None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"task frame field {name!r} must be an integer, got {value!r}")
    return value


def task_from_wire(mapping: Dict[str, Any]) -> PointTask:
    """Rebuild the task worker-side (the ``live_scenario=None`` path of
    :func:`~repro.scenarios.executors.evaluate_task`); a missing or
    mistyped field raises :class:`ValueError` naming it."""
    for name, kind in (("scenario", dict), ("parameters", dict), ("backend", str)):
        if not isinstance(mapping, dict) or not isinstance(mapping.get(name), kind):
            raise ValueError(f"task frame field {name!r} must be a {kind.__name__}")
    return PointTask(
        scenario=mapping["scenario"],
        parameters=mapping["parameters"],
        seed=_wire_int(mapping, "seed"),
        backend=mapping["backend"],
        chunk_symbols=_wire_int(mapping, "chunk_symbols"),
        index=_wire_int(mapping, "index"),
        start_symbol=_wire_int(mapping, "start_symbol", 0),
        symbols=None if mapping.get("symbols") is None else _wire_int(mapping, "symbols"),
    )


def outcome_to_wire(outcome: PointOutcome) -> Dict[str, Any]:
    """Outcome accumulators as JSON data; the config never travels.

    NoC points additionally ship their bus counters — the one field
    :meth:`~repro.scenarios.metrics.PointOutcome.to_accumulator_mapping`
    omits (adaptive checkpoints never hold NoC points; the wire must).
    """
    mapping = outcome.to_accumulator_mapping()
    if outcome.noc is not None:
        mapping["noc"] = dict(outcome.noc)
    return mapping


#: What each checked outcome value must be, by the test that decides it
#: (``type(value) is int`` refuses bools, which JSON ``true`` decodes to).
_WIRE_KINDS: Dict[str, Callable[[Any], bool]] = {
    "a non-negative integer": lambda value: type(value) is int and value >= 0,
    "a finite float": lambda value: type(value) is float and math.isfinite(value),
    "a finite non-negative number": (
        lambda value: type(value) in (int, float) and 0 <= value < math.inf
    ),
}


def _check(value: Any, name: str, kind: str) -> None:
    if not _WIRE_KINDS[kind](value):
        raise ValueError(f"outcome field {name} must be {kind}, got {value!r}")


def _check_each(values: Any, name: str, container: type, kind: str) -> None:
    """``values`` is a ``container`` (list, or object keyed by strings) of ``kind``."""
    if not isinstance(values, container):
        raise ValueError(
            f"outcome field {name} must be a {container.__name__}, got {values!r}"
        )
    valid = _WIRE_KINDS[kind]
    for key, value in values.items() if container is dict else enumerate(values):
        if container is dict and not isinstance(key, str):
            raise ValueError(f"outcome field {name} has a key that is no string: {key!r}")
        if not valid(value):
            _check(value, f"{name}[{key!r}]", kind)


def outcome_from_wire(config: Any, mapping: Dict[str, Any]) -> PointOutcome:
    """Inverse of :func:`outcome_to_wire`, given the locally rebuilt config.

    A worker's outcome is untrusted input, so every value is checked before
    the outcome is rebuilt: counts are non-negative integers (never bools),
    mapping keys are strings, the weighted sums and strata are finite floats
    and the bus counters finite non-negative numbers.  A value that fails
    raises :class:`ValueError` naming its field, and an unknown field raises
    :class:`TypeError`.  Whether the outcome fits the task it answers is
    :func:`~repro.cluster.chunks.check_chunk_outcome`'s question.
    """
    if not isinstance(mapping, dict):
        raise ValueError(f"an outcome must be a JSON object, got {mapping!r}")
    for name in ("bits", "bit_errors", "symbols", "symbol_errors", "channels"):
        _check(mapping.get(name), name, "a non-negative integer")
    for name in ("channel_bits", "channel_bit_errors"):
        _check_each(mapping.get(name, []), name, list, "a non-negative integer")
    counts = mapping.get("detection_counts", {})
    _check_each(counts, "detection_counts", dict, "a non-negative integer")
    _check_each(mapping.get("error_strata", {}), "error_strata", dict, "a finite float")
    if mapping.get("noc") is not None:
        _check_each(mapping["noc"], "noc", dict, "a finite non-negative number")
    for name in (
        "weighted_error_sum",
        "weighted_error_sumsq",
        "weighted_symbol_error_sum",
        "weighted_symbol_error_sumsq",
    ):
        if mapping.get(name) is not None:
            _check(mapping[name], name, "a finite float")
    return PointOutcome.from_accumulator_mapping(config, mapping)
