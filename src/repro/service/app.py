"""The ``repro serve`` daemon: a stdlib-asyncio HTTP/1.1 experiment server.

No web framework and no new dependencies — :class:`ExperimentService` parses
HTTP/1.1 on ``asyncio`` streams directly, which the service can afford
because its protocol surface is tiny (JSON request/response bodies plus one
``text/event-stream`` endpoint, one request per connection).

The split of responsibilities:

* this module — transport: accept connections, parse requests, enforce
  limits/timeouts, serialise responses, and the server lifecycle
  (:meth:`ExperimentService.serve_forever` / :meth:`ExperimentService.shutdown`);
* :mod:`repro.service.routes` — the endpoint table and handlers;
* :mod:`repro.service.registry` — run state: in-flight dedupe, cache hits,
  SSE fan-out;
* :mod:`repro.frontdoor` — scenario resolution and cache keys, shared with
  the CLI.

Binding failures raise the typed :class:`ServiceBindError` so callers (the
CLI maps it to exit status 4) can tell "port already taken" from a crash.

>>> service = ExperimentService(store="artifacts")
>>> service.chunk_symbols
8192
"""

from __future__ import annotations

import asyncio
import json
import threading
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.scenarios.executors import WorkersArg
from repro.scenarios.runner import DEFAULT_CHUNK_SYMBOLS
from repro.scenarios.store import CorruptArtifactError, ReportStore
from repro.service.registry import RunRegistry
from repro.service.routes import (
    EventStreamResponse,
    HttpError,
    JsonResponse,
    match_route,
)
from repro.service.sse import encode_event
from urllib.parse import parse_qs, unquote

#: Seconds a client gets to deliver its request head and body.
REQUEST_TIMEOUT = 30.0

#: Largest accepted request body (scenario mappings are a few KiB).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Largest accepted request head, the request line and headers together.
MAX_HEAD_BYTES = 64 * 1024

#: After a 413 the server half-closes, then reads and drops the refused body,
#: at most this many bytes for at most :data:`DRAIN_SECONDS`, so that a client
#: still sending can finish and read the answer instead of a reset.
DRAIN_BYTES = 4 * MAX_BODY_BYTES
DRAIN_SECONDS = 2.0

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


class _BodyTooLarge(HttpError):
    """The 413 of a request whose declared body is over :data:`MAX_BODY_BYTES`."""

    def __init__(self, length: int) -> None:
        super().__init__(413, "request body too large")
        self.length = length


async def _drain_refused_body(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, length: int
) -> None:
    """Half-close after a 413, then read and drop up to ``length`` body bytes.

    At most :data:`DRAIN_BYTES` within :data:`DRAIN_SECONDS`; the client's
    EOF or either limit ends it, and the caller closes as for any response.
    """
    if writer.can_write_eof():
        writer.write_eof()
    remaining = min(length, DRAIN_BYTES)

    async def drain() -> None:
        nonlocal remaining
        while remaining > 0:
            chunk = await reader.read(min(remaining, 1 << 16))
            if not chunk:
                return
            remaining -= len(chunk)

    try:
        await asyncio.wait_for(drain(), DRAIN_SECONDS)
    except asyncio.TimeoutError:
        pass


async def _read_request(reader: asyncio.StreamReader) -> Optional[Tuple[str, str, Any]]:
    """``(method, target, body)`` of one request; ``None`` if the client
    closes before its request line.

    A request the server must refuse before routing raises
    :class:`~repro.service.routes.HttpError`: 400 for a malformed request
    line, a ``Content-Length`` that is no non-negative integer or a body
    that is not JSON, 413 for a body over :data:`MAX_BODY_BYTES` and 431 for
    a head over :data:`MAX_HEAD_BYTES` (a single line stops sooner, at the
    stream reader's 64 KiB limit).  A body cut short by the client raises
    :class:`asyncio.IncompleteReadError`.
    """
    head_bytes = 0
    too_large = f"request head over {MAX_HEAD_BYTES} bytes"

    async def head_line() -> bytes:
        nonlocal head_bytes
        try:
            line = await reader.readline()
        except ValueError:  # one line past the stream reader's own limit
            raise HttpError(431, too_large) from None
        head_bytes += len(line)
        if head_bytes > MAX_HEAD_BYTES:
            raise HttpError(431, too_large)
        return line

    request_line = await head_line()
    if not request_line:
        return None
    try:
        method, target, _version = request_line.decode("latin-1").split()
    except ValueError:
        raise HttpError(400, "malformed request line") from None
    headers: Dict[str, str] = {}
    while True:
        line = await head_line()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    text = headers.get("content-length") or "0"
    if not (text.isascii() and text.isdigit()):
        raise HttpError(400, f"Content-Length must be a non-negative integer, got {text!r}")
    length = int(text)
    if length > MAX_BODY_BYTES:
        raise _BodyTooLarge(length)
    body: Any = None
    if length:
        raw = await reader.readexactly(length)
        try:
            body = json.loads(raw)
        except (ValueError, RecursionError) as error:  # UTF-8, JSON, nesting
            raise HttpError(400, f"body is not valid JSON: {error}") from None
    return method, target, body


class ServiceBindError(OSError):
    """The server socket could not be bound (address in use, privileged port…)."""


class ExperimentService:
    """One experiment-serving daemon: HTTP front, registry + store behind.

    Parameters
    ----------
    store:
        Artefact store directory (or a :class:`ReportStore`) — the same
        store the CLI uses, so server and shell share one cache.
    executor / workers:
        How each simulation dispatches its grid points (the ordinary
        executor layer: a pool size for ``"process"``, worker addresses for
        ``"cluster"``); simulations themselves always run off the event
        loop, on worker threads.
    chunk_symbols:
        Default chunk size for requests that do not specify one.  Part of
        the cache key, so server and CLI must agree on the default — both
        use :data:`~repro.scenarios.runner.DEFAULT_CHUNK_SYMBOLS`.
    """

    def __init__(
        self,
        store: Union[str, Path, ReportStore] = "artifacts",
        executor: Optional[str] = None,
        workers: "WorkersArg" = None,
        chunk_symbols: int = DEFAULT_CHUNK_SYMBOLS,
    ) -> None:
        self.store = store if isinstance(store, ReportStore) else ReportStore(store)
        self.executor = executor
        self.workers = workers
        self.chunk_symbols = chunk_symbols
        self.registry: Optional[RunRegistry] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        #: Set when a threaded serve_forever died binding (see serve_app).
        self.startup_error: Optional[BaseException] = None

    # -- lifecycle -------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> asyncio.AbstractServer:
        """Bind and start serving on the running event loop.

        ``port=0`` binds an ephemeral port; read the actual one from
        ``self.port``.  Raises :class:`ServiceBindError` when the socket
        cannot be bound.
        """
        loop = asyncio.get_running_loop()
        self.registry = RunRegistry(
            self.store, loop, executor=self.executor, workers=self.workers
        )
        try:
            server = await asyncio.start_server(self._handle_connection, host, port)
        except OSError as error:
            raise ServiceBindError(
                f"cannot bind {host}:{port}: {error.strerror or error}"
            ) from error
        self.host = host
        self.port = server.sockets[0].getsockname()[1]
        self._loop = loop
        self._ready.set()
        return server

    def serve_forever(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        on_ready: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        """Run the server on a fresh event loop until :meth:`shutdown` (or Ctrl-C).

        ``on_ready(host, actual_port)`` fires once the socket is bound —
        after a ``port=0`` request it carries the ephemeral port the kernel
        picked.
        """

        async def _main() -> None:
            self._stop = asyncio.Event()
            server = await self.start(host, port)
            try:
                if on_ready is not None:
                    on_ready(host, self.port)
                await self._stop.wait()
            finally:
                server.close()
                await server.wait_closed()

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:
            pass
        except ServiceBindError as error:
            # Unblock wait_ready() callers (serve_app(block=False)) before
            # propagating, so they read the failure instead of timing out.
            self.startup_error = error
            self._ready.set()
            raise

    def shutdown(self) -> None:
        """Stop a :meth:`serve_forever` loop; safe to call from any thread."""
        loop, stop = self._loop, self._stop
        if loop is None or stop is None:
            return
        try:
            loop.call_soon_threadsafe(stop.set)
        except RuntimeError:
            pass  # loop already closed

    def wait_ready(self, timeout: Optional[float] = None) -> bool:
        """Block until the socket is bound (for serving from a thread)."""
        return self._ready.wait(timeout)

    # -- connection handling -----------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._handle_request(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to salvage
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await asyncio.wait_for(_read_request(reader), REQUEST_TIMEOUT)
        except asyncio.TimeoutError:
            await self._send_json(writer, 408, {"error": "request timed out"})
            return
        except HttpError as error:
            await self._send_json(writer, error.status, {"error": str(error)})
            if isinstance(error, _BodyTooLarge):
                await _drain_refused_body(reader, writer, error.length)
            return
        if request is None:
            return  # the client hung up before sending a request line
        method, target, body = request
        path, _, query_string = target.partition("?")
        path = unquote(path)
        query = {
            name: values[-1]
            for name, values in parse_qs(query_string, keep_blank_values=True).items()
        }
        await self._dispatch(writer, method.upper(), path, query, body)

    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: Dict[str, str],
        body: Any,
    ) -> None:
        handler, params, path_exists = match_route(method, path)
        if handler is None:
            if path_exists:
                await self._send_json(
                    writer, 405, {"error": f"{method} not allowed on {path}"}
                )
            else:
                await self._send_json(writer, 404, {"error": f"no route {method} {path}"})
            return
        try:
            response = handler(self, params, query, body)
        except HttpError as error:
            await self._send_json(writer, error.status, {"error": str(error)})
            return
        except CorruptArtifactError as error:
            await self._send_json(writer, 409, {"error": str(error)})
            return
        except FileNotFoundError as error:
            await self._send_json(writer, 404, {"error": str(error)})
            return
        except (KeyError, TypeError, ValueError) as error:
            message = error.args[0] if error.args else str(error)
            await self._send_json(writer, 400, {"error": str(message)})
            return
        if isinstance(response, EventStreamResponse):
            await self._send_events(writer, response)
        else:
            assert isinstance(response, JsonResponse)
            await self._send_json(writer, response.status, response.payload)

    # -- response writing --------------------------------------------------------
    async def _send_json(self, writer: asyncio.StreamWriter, status: int, payload: Any) -> None:
        # allow_nan=False: the HTTP surface carries strict JSON only, like
        # the artefact store (report mappings already encode NaN as null).
        body = (json.dumps(payload, allow_nan=False) + "\n").encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    async def _send_events(
        self, writer: asyncio.StreamWriter, response: EventStreamResponse
    ) -> None:
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        await writer.drain()
        async for event, data in response.handle.subscribe():
            writer.write(encode_event(event, data))
            await writer.drain()


def serve_app(
    host: str = "127.0.0.1",
    port: int = 8765,
    store: Union[str, Path, ReportStore] = "artifacts",
    executor: Optional[str] = None,
    workers: "WorkersArg" = None,
    chunk_symbols: int = DEFAULT_CHUNK_SYMBOLS,
    block: bool = True,
    on_ready: Optional[Callable[[str, int], None]] = None,
) -> ExperimentService:
    """Build (and by default run) an :class:`ExperimentService`.

    ``block=True`` serves on the calling thread until Ctrl-C /
    :meth:`ExperimentService.shutdown`; ``block=False`` serves from a daemon
    thread and returns once the socket is bound — the actual port is on the
    returned service (useful with ``port=0``).
    """
    service = ExperimentService(
        store=store, executor=executor, workers=workers, chunk_symbols=chunk_symbols
    )
    if block:
        service.serve_forever(host, port, on_ready=on_ready)
        return service
    def _run_in_thread() -> None:
        try:
            service.serve_forever(host, port, on_ready=on_ready)
        except ServiceBindError:
            pass  # recorded on service.startup_error by serve_forever

    thread = threading.Thread(target=_run_in_thread, name="repro-serve", daemon=True)
    thread.start()
    if not service.wait_ready(timeout=30):
        raise RuntimeError("experiment service failed to bind within 30s")
    if service.startup_error is not None:
        raise service.startup_error
    return service
