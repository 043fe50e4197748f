"""The run registry: in-flight dedupe, digest cache hits, and fan-out.

One :class:`RunRegistry` per service process.  Every run request resolves to
its :meth:`~repro.frontdoor.RunRequest.run_key` — the digest of everything a
report is deterministic in — and the registry guarantees, per key:

* **at most one simulation executes**, however many identical requests
  arrive while it runs (they all join the same :class:`RunHandle`);
* **a completed run never re-executes**: the store's run index
  (:meth:`~repro.scenarios.store.ReportStore.find_run`) makes repeats O(1)
  cache hits served straight from disk;
* **any number of subscribers fan out** from one run: the handle keeps an
  append-only event log (one ``point`` event per grid point, one terminal
  ``report``/``error`` event), so late subscribers replay the past and then
  follow live — every subscriber sees every event, in order.

Simulations execute on a worker thread through the request's own
:meth:`~repro.frontdoor.RunRequest.session` (and therefore through whatever
executor the service was configured with) —
the asyncio event loop only ever appends to event logs and wakes
subscribers, so it stays responsive however heavy the physics is.

Dedupe is race-free by construction: :meth:`RunRegistry.submit` only runs on
the event loop, so two concurrent identical HTTP requests cannot both miss
the registry.  ``RunRegistry.executions`` counts actual simulation starts —
the observable the dedupe tests (and ``GET /stats``) assert on.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, AsyncIterator, Dict, List, Optional, Tuple

from repro.frontdoor import RunRequest
from repro.scenarios.executors import WorkersArg, _looks_like_addresses
from repro.scenarios.store import ReportStore
from repro.service.sse import ERROR_EVENT, POINT_EVENT, REPORT_EVENT, TERMINAL_EVENTS

#: Lifecycle states a handle can report.
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: How a submit was satisfied (returned alongside the handle).
STARTED = "started"   # a new simulation was started for this request
JOINED = "joined"     # an identical simulation was already in flight
CACHED = "cached"     # a completed artefact was served from the store


class RunHandle:
    """One run's live state: an append-only event log plus wakeups.

    All mutation happens on the owning event loop (worker threads post
    through ``loop.call_soon_threadsafe``), so readers on the loop always
    see a consistent snapshot and subscribers never miss an event: they
    drain the log, then await the next-change future captured *before* the
    drain finished — an append in between resolves that same future.
    """

    def __init__(
        self,
        request: RunRequest,
        loop: asyncio.AbstractEventLoop,
        cached: bool = False,
    ) -> None:
        self.request = request
        self.run_key = request.run_key()
        self.cached = cached
        self.state = RUNNING
        self.artifact: Optional[str] = None
        self.error: Optional[Dict[str, Any]] = None
        self._loop = loop
        self._events: List[Tuple[str, Any]] = []
        self._next_change: "asyncio.Future[None]" = loop.create_future()

    # -- mutation (event loop only) --------------------------------------------
    def _append(self, event: str, data: Any) -> None:
        self._events.append((event, data))
        if event == REPORT_EVENT:
            self.state = DONE
            self.artifact = data.get("artifact")
        elif event == ERROR_EVENT:
            self.state = FAILED
            self.error = dict(data)
        waiter, self._next_change = self._next_change, self._loop.create_future()
        if not waiter.done():
            waiter.set_result(None)

    def post(self, event: str, data: Any) -> None:
        """Thread-safe append: worker threads deliver events through here."""
        self._loop.call_soon_threadsafe(self._append, event, data)

    # -- reading ---------------------------------------------------------------
    @property
    def points_done(self) -> int:
        return sum(1 for event, _data in self._events if event == POINT_EVENT)

    def snapshot(self) -> Dict[str, Any]:
        """The run's status as plain data (``GET /runs/{id}``)."""
        status = self.request.describe()
        status.update(
            {
                "state": self.state,
                "cached": self.cached,
                "points_done": self.points_done,
                "artifact": self.artifact,
            }
        )
        if self.error is not None:
            status["error"] = self.error
        return status

    async def subscribe(self) -> AsyncIterator[Tuple[str, Any]]:
        """Every event of this run, replay-then-live, ending on the terminal one.

        Each subscriber holds only its own read offset, so any number fan
        out from one simulation without coordinating with each other.
        """
        offset = 0
        while True:
            while offset < len(self._events):
                event, data = self._events[offset]
                offset += 1
                yield (event, data)
                if event in TERMINAL_EVENTS:
                    return
            waiter = self._next_change  # capture before awaiting: no lost wakeups
            await waiter


class RunRegistry:
    """Keyed run handles plus the policy of when to simulate at all."""

    def __init__(
        self,
        store: ReportStore,
        loop: asyncio.AbstractEventLoop,
        executor: Optional[str] = None,
        workers: "WorkersArg" = None,
    ) -> None:
        self.store = store
        self.executor = executor
        self.workers = workers
        self._loop = loop
        self._handles: Dict[str, RunHandle] = {}
        #: Simulations actually started (cache hits and joins excluded).
        self.executions = 0
        #: Aggregated executor telemetry across completed runs (cluster runs
        #: report workers connected, tasks stolen/requeued, fan-out, …).
        self._executor_stats: Dict[str, int] = {}
        self._executor_stats_lock = threading.Lock()

    # -- introspection ---------------------------------------------------------
    def get(self, run_key: str) -> Optional[RunHandle]:
        return self._handles.get(run_key)

    def runs(self) -> List[Dict[str, Any]]:
        """Status snapshots of every known run, newest submission last."""
        return [handle.snapshot() for handle in self._handles.values()]

    def stats(self) -> Dict[str, Any]:
        from repro.kernels import available_kernels

        states = [handle.state for handle in self._handles.values()]
        with self._executor_stats_lock:
            executor_stats = dict(self._executor_stats)
        return {
            "executions": self.executions,
            "runs": len(self._handles),
            "running": states.count(RUNNING),
            # A full scan on every call, on purpose: the CLI and other
            # processes write the same store, so a count kept here would miss
            # their artefacts, and directory mtimes are too coarse to notice
            # those writes.
            "artifacts": len(self.store.list()),
            "executor": {"name": self._executor_name(), **executor_stats},
            # The compute kernels this server can dispatch ("auto" resolves
            # to the fastest of these) — clients use it to decide whether a
            # kernel="cext" request is worth sending here.
            "kernels": list(available_kernels()),
        }

    def _executor_name(self) -> str:
        """The executor name this service dispatches runs with."""
        if self.executor is not None:
            return self.executor
        if self.workers is None:
            return "serial"
        return "cluster" if _looks_like_addresses(self.workers) else "process"

    def _record_executor_stats(self, snapshot: Dict[str, int]) -> None:
        """Fold one run's executor counters into the service totals.

        Counters sum across runs; gauges (``workers_connected``,
        ``max_fan_out``) keep the most recent / largest value seen — the
        shape ``GET /stats`` and ``repro workers`` report.
        """
        with self._executor_stats_lock:
            for key, value in snapshot.items():
                if key == "workers_connected":
                    self._executor_stats[key] = value
                elif key == "max_fan_out":
                    self._executor_stats[key] = max(
                        self._executor_stats.get(key, 0), value
                    )
                else:
                    self._executor_stats[key] = (
                        self._executor_stats.get(key, 0) + value
                    )

    # -- submission (event loop only) ------------------------------------------
    def submit(self, request: RunRequest) -> Tuple[RunHandle, str]:
        """Dedupe-or-start: returns ``(handle, STARTED | JOINED | CACHED)``.

        Must be called on the registry's event loop — that single-threaded
        discipline *is* the in-flight dedupe lock.
        """
        run_key = request.run_key()
        handle = self._handles.get(run_key)
        if handle is not None:
            if handle.state == RUNNING:
                return handle, JOINED
            if handle.state == DONE:
                return handle, CACHED
            # FAILED: fall through and start afresh (or hit the store if a
            # parallel CLI run completed it meanwhile).
        artifact = self.store.find_run(run_key)
        if artifact is not None:
            handle = self._cached_handle(request, artifact)
            self._handles[run_key] = handle
            return handle, CACHED
        handle = RunHandle(request, self._loop)
        self._handles[run_key] = handle
        self.executions += 1
        thread = threading.Thread(
            target=self._execute,
            args=(handle, request),
            name=f"repro-run-{run_key}",
            daemon=True,
        )
        thread.start()
        return handle, STARTED

    def _cached_handle(self, request: RunRequest, artifact: str) -> RunHandle:
        """A pre-completed handle whose event log replays the stored report.

        Subscribers to a cached run see exactly the stream a live run would
        have produced — one ``point`` event per grid point (grid order, the
        completion order of a serial run) and the terminal ``report`` event —
        so clients need no cached-versus-live special case.
        """
        report = self.store.load(artifact)
        handle = RunHandle(request, self._loop, cached=True)
        total = len(report.points)
        for index, point in enumerate(report.points):
            handle._append(
                POINT_EVENT,
                {
                    "index": index,
                    "completed": index + 1,
                    "total": total,
                    "point": point.to_mapping(),
                },
            )
        handle._append(
            REPORT_EVENT,
            {"artifact": artifact, "cached": True, "report": report.to_mapping()},
        )
        return handle

    # -- execution (worker thread) ---------------------------------------------
    def _execute(self, handle: RunHandle, request: RunRequest) -> None:
        try:
            # No store: a served run journals no checkpoint, so it never
            # removes one that a CLI run of the same request is writing.
            with request.session(executor=self.executor, workers=self.workers) as session:
                total = session.total_points
                for index, point in session.indexed():
                    handle.post(
                        POINT_EVENT,
                        {
                            "index": index,
                            "completed": session.completed_points,
                            "total": total,
                            "point": point.to_mapping(),
                        },
                    )
                report = session.report()
                self._record_executor_stats(session.executor_stats)
            path = self.store.save(report, run_key=handle.run_key)
            handle.post(
                REPORT_EVENT,
                {
                    "artifact": path.stem,
                    "cached": False,
                    "report": report.to_mapping(),
                },
            )
        except Exception as error:  # noqa: BLE001 - server: degrade to an event
            handle.post(
                ERROR_EVENT,
                {"type": type(error).__name__, "message": str(error)},
            )
