"""Streaming experiment execution: points as they complete.

:class:`ExperimentSession` replaces the run-then-return shape with a stream:
iterating the session yields one
:class:`~repro.scenarios.runner.ExperimentPoint` per completed grid point, in
*completion* order (which under a parallel executor is not grid order), and
:meth:`ExperimentSession.report` drains whatever is still outstanding and
assembles the grid-ordered
:class:`~repro.scenarios.runner.ExperimentReport` — the exact report a plain
``ExperimentRunner.run()`` would have returned, regardless of executor or
completion order.

Sessions are one-shot: each completed point is delivered exactly once, and
the assembled report is cached.  Progress callbacks are a thin adapter over
the stream (see :meth:`~repro.scenarios.runner.ExperimentRunner.run`).

>>> from repro.scenarios import ExperimentRunner, Scenario
>>> scenario = Scenario(name="doc", sweep_axes={"mean_detected_photons": (20.0, 80.0)},
...                     bits_per_point=64)
>>> session = ExperimentRunner(scenario, seed=1).session()
>>> session.total_points, session.completed_points
(2, 0)
>>> first = next(iter(session))
>>> session.completed_points
1
>>> len(session.report().points)  # drains the remaining point
2
"""

from __future__ import annotations

import dataclasses
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.scenarios.executors import Executor, PointTask
from repro.scenarios.faults import PointFailure
from repro.scenarios.metrics import PointOutcome, resolve_metric

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a runtime cycle
    from repro.scenarios.runner import ExperimentPoint, ExperimentReport, ExperimentRunner
    from repro.scenarios.store import RunCheckpoint


class ExperimentSession:
    """One streaming execution of a scenario on a chosen executor.

    Built by :meth:`ExperimentRunner.session`; not constructed directly.
    The session owns the executor stream and the completed points; the runner
    owns point semantics (seeds, metric evaluation, report assembly).

    With a ``checkpoint`` (see
    :meth:`~repro.scenarios.store.ReportStore.run_checkpoint`), points
    already recorded on disk are restored up front and *not* re-evaluated —
    the resume path — and every newly completed point is appended to the
    checkpoint before it is yielded, so a killed run loses at most the point
    that was in flight.

    Under an executor with ``failure_policy="continue"``, exhausted points
    arrive as :class:`~repro.scenarios.faults.PointFailure` records: they are
    collected (see :attr:`failed_points`), excluded from metrics, and the
    session keeps streaming the surviving points.
    """

    def __init__(
        self,
        runner: "ExperimentRunner",
        executor: Executor,
        checkpoint: Optional["RunCheckpoint"] = None,
    ) -> None:
        self._runner = runner
        self._executor = executor
        self._tasks: Sequence[PointTask] = runner.point_tasks()
        self._stream: Optional[Iterator[Tuple[int, Union[PointOutcome, PointFailure]]]] = None
        self._points: Dict[int, "ExperimentPoint"] = {}
        self._failures: Dict[int, Exception] = {}
        self._failed: Dict[int, PointFailure] = {}
        self._stream_error: Optional[Exception] = None
        self._closed = False
        self._report: Optional["ExperimentReport"] = None
        self._checkpoint = checkpoint
        self._last_index: Optional[int] = None
        self._resumed: Dict[int, "ExperimentPoint"] = {}
        # Adaptive-budget state (scenarios with a ci_target): the merged
        # outcome and finished-round count per unconverged point, plus the
        # continuation tasks queued for the next wave.
        self._adaptive = runner.scenario.ci_target is not None
        self._accumulated: Dict[int, PointOutcome] = {}
        self._rounds: Dict[int, int] = {}
        self._next_wave: List[PointTask] = []
        self._wave_started = False
        if checkpoint is not None:
            from repro.scenarios.runner import ExperimentPoint

            for index, mapping in checkpoint.load().items():
                if 0 <= index < len(self._tasks):
                    point = ExperimentPoint.from_mapping(mapping)
                    self._points[index] = point
                    self._resumed[index] = point
            if self._adaptive:
                for index, partial in checkpoint.load_partials().items():
                    if index in self._points or not 0 <= index < len(self._tasks):
                        continue
                    # A damaged partial is skipped, so its point runs from
                    # its first round, as an uninterrupted run's does.
                    outcome_mapping = partial.get("outcome")
                    rounds = partial.get("rounds", 1)
                    if not isinstance(outcome_mapping, Mapping) or not (
                        isinstance(rounds, int) and not isinstance(rounds, bool) and rounds > 0
                    ):
                        continue
                    task = self._tasks[index]
                    config, _channel = runner.scenario.config_for_point(
                        task.parameters
                    )
                    try:
                        outcome = PointOutcome.from_accumulator_mapping(config, outcome_mapping)
                    except (TypeError, ValueError):
                        continue
                    self._accumulated[index] = outcome
                    self._rounds[index] = rounds

    # -- introspection ---------------------------------------------------------
    @property
    def executor(self) -> Executor:
        return self._executor

    @property
    def executor_stats(self) -> Dict[str, int]:
        """A snapshot of the executor's telemetry counters.

        Every built-in executor exposes a ``stats`` dict (retries, failures;
        the cluster executor adds workers connected/lost, tasks dispatched/
        stolen/requeued and the chunk fan-out factor).  Executors without
        one — the protocol does not require it — snapshot as empty.
        """
        return dict(getattr(self._executor, "stats", None) or {})

    @property
    def total_points(self) -> int:
        return len(self._tasks)

    @property
    def completed_points(self) -> int:
        return len(self._points)

    @property
    def resumed_points(self) -> int:
        """Points restored from the checkpoint (not re-evaluated this run)."""
        return len(self._resumed)

    @property
    def failed_points(self) -> List[PointFailure]:
        """Exhausted points recorded so far (``"continue"`` policy), grid order."""
        return [self._failed[index] for index in sorted(self._failed)]

    def completed(self) -> List["ExperimentPoint"]:
        """Points completed so far, in grid order."""
        return [self._points[index] for index in sorted(self._points)]

    # -- streaming -------------------------------------------------------------
    def __iter__(self) -> "ExperimentSession":
        return self

    def __next__(self) -> "ExperimentPoint":
        while True:
            if self._closed:
                raise StopIteration
            if self._stream is None:
                wave = self._pending_wave()
                if not wave:
                    raise StopIteration
                self._stream = self._executor.map_tasks(wave)
            try:
                index, outcome = next(self._stream)
            except StopIteration:
                # Wave drained; continuation tasks (if any) form the next one.
                self._stream = None
                continue
            except Exception as error:
                # A point evaluation (or the pool itself) failed; the generator
                # is now closed.  Remember the cause so report() can re-raise it.
                self._stream_error = error
                raise
            if isinstance(outcome, PointFailure):
                # An exhausted point under failure_policy="continue": record
                # it and keep streaming the surviving points.
                self._failed[index] = outcome
                self._accumulated.pop(index, None)
                continue
            budget = None
            if self._adaptive:
                settled = self._settle(index, outcome)
                if settled is None:
                    continue
                outcome, budget = settled
            point = self._finish_point(index, outcome, budget=budget)
            if point is not None:
                return point

    def _finish_point(
        self,
        index: int,
        outcome: PointOutcome,
        budget: Optional[Mapping[str, Any]],
    ) -> Optional["ExperimentPoint"]:
        """Metric-evaluate a completed outcome and record the point.

        Returns ``None`` when metric evaluation failed under the
        ``"continue"`` policy (the point degraded to a structured failure);
        raises otherwise on metric errors, exactly as point delivery would.
        """
        try:
            # budget= is only passed when set, so substitute build_point
            # implementations (tests, subclasses) predating it keep working
            # on fixed-budget runs.
            if budget is None:
                point = self._runner.build_point(self._tasks[index].parameters, outcome)
            else:
                point = self._runner.build_point(
                    self._tasks[index].parameters, outcome, budget=budget
                )
        except Exception as error:
            if getattr(self._executor, "failure_policy", "fail_fast") == "continue":
                # Metric evaluation failed, but the run was asked to keep
                # going — degrade this point to a structured failure too.
                self._failed[index] = PointFailure(
                    index=index,
                    parameters=self._tasks[index].parameters,
                    error_type=type(error).__name__,
                    message=str(error),
                    attempts=1,
                    elapsed=0.0,
                )
                return None
            # The executor delivered the outcome; metric evaluation failed.
            # Remember why, so a later report() raises the real cause
            # instead of claiming the point was never delivered.
            self._failures[index] = error
            raise
        self._points[index] = point
        self._last_index = index
        if self._checkpoint is not None:
            self._checkpoint.append(index, point.to_mapping())
        return point

    # -- waves and adaptive budgets ---------------------------------------------
    def _half_width(self, outcome: PointOutcome) -> Tuple[Optional[str], Optional[float]]:
        """Name and 95 % half-width of the first confidence-bearing metric."""
        for name in self._runner.scenario.metrics:
            _function, ci = resolve_metric(name)
            if ci is None:
                continue
            half = ci(outcome)
            if half is not None:
                return name, float(half)
        return None, None

    def _continuation(self, task: PointTask, outcome: PointOutcome) -> PointTask:
        """The next-round installment for an unconverged point.

        Installments double the point's sample size (CI half-widths shrink
        as ``1/sqrt(n)``, so doubling overshoots the target by at most
        ``sqrt(2)``), clipped to any ``max_symbols`` cap.  The continuation
        starts at the absolute symbol offset already simulated, so chunk
        seeds — and hence the merged result — match a single longer run.
        """
        cap = self._runner.scenario.max_symbols
        installment = outcome.symbols
        if cap is not None:
            installment = min(installment, cap - outcome.symbols)
        return dataclasses.replace(
            task, start_symbol=outcome.symbols, symbols=max(1, installment)
        )

    def _initial_task(self, task: PointTask) -> PointTask:
        """The first-round installment, clipped to any ``max_symbols`` cap."""
        scenario = self._runner.scenario
        cap = scenario.max_symbols
        if cap is None:
            return task
        config, _channel = scenario.config_for_point(task.parameters)
        first = max(1, -(-scenario.bits_per_point // config.ppm_bits))
        if first <= cap:
            return task
        return dataclasses.replace(task, symbols=cap)

    def _pending_wave(self) -> List[PointTask]:
        """Tasks for the next wave: the outstanding grid, then continuations.

        A fixed budget is one wave; an adaptive one queues a continuation
        for each point still short of its ``ci_target``.
        """
        if not self._wave_started:
            self._wave_started = True
            wave: List[PointTask] = []
            for task in self._tasks:
                if task.index in self._points:
                    continue
                restored = self._accumulated.get(task.index)
                if restored is None:
                    wave.append(self._initial_task(task))
                else:
                    # A partial round restored from the checkpoint: continue
                    # from its absolute offset instead of re-simulating.
                    wave.append(self._continuation(task, restored))
            return wave
        wave, self._next_wave = self._next_wave, []
        return wave

    def _settle(
        self, index: int, outcome: PointOutcome
    ) -> Optional[Tuple[PointOutcome, Dict[str, Any]]]:
        """Merge an adaptive installment into its point's running outcome.

        Returns the merged outcome and its budget record once the point has
        converged or hit ``max_symbols``; otherwise queues the next
        installment for the following wave, checkpoints the partial and
        returns ``None``.
        """
        scenario = self._runner.scenario
        merged = outcome
        if index in self._accumulated:
            # Installments are disjoint continuations of one notional
            # longer run, so summed accumulators reproduce it exactly.
            merged = self._accumulated[index].merge(outcome)
        rounds = self._rounds.get(index, 0) + 1
        metric_name, half = self._half_width(merged)
        if metric_name is None:
            raise RuntimeError(
                f"scenario {scenario.name!r} declares ci_target="
                f"{scenario.ci_target} but none of its metrics reports a "
                f"confidence half-width to converge on"
            )
        converged = half <= scenario.ci_target
        capped = scenario.max_symbols is not None and merged.symbols >= scenario.max_symbols
        if not converged and not capped:
            self._accumulated[index] = merged
            self._rounds[index] = rounds
            self._next_wave.append(self._continuation(self._tasks[index], merged))
            if self._checkpoint is not None:
                partial = {"rounds": rounds, "outcome": merged.to_accumulator_mapping()}
                self._checkpoint.append_partial(index, partial)
            return None
        self._accumulated.pop(index, None)
        self._rounds.pop(index, None)
        budget = {
            "ci_target": scenario.ci_target,
            "metric": metric_name,
            "achieved": half,
            "rounds": rounds,
            "converged": bool(converged),
        }
        if scenario.max_symbols is not None:
            budget["max_symbols"] = scenario.max_symbols
        return merged, budget

    def indexed(self) -> Iterator[Tuple[int, "ExperimentPoint"]]:
        """Stream ``(grid_index, point)`` pairs as points complete.

        Completion order, like plain iteration — but each point arrives with
        its grid index, so streaming consumers (progress UIs, the experiment
        service's SSE feed) can label points without re-deriving the grid.
        Points restored from a checkpoint are not re-delivered, matching
        plain iteration.
        """
        for point in self:
            assert self._last_index is not None
            yield self._last_index, point

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Stop consuming the stream, cancelling work still queued behind it.

        Closing the executor stream runs its cleanup deterministically (for
        :class:`~repro.scenarios.executors.ProcessExecutor`, pending grid
        points are cancelled) instead of waiting for garbage collection, and
        closes an executor the runner built from a name or ``workers=`` (a
        passed-in one stays its owner's).  Idempotent; a closed, incomplete
        session cannot produce a report.
        """
        self._closed = True
        owned = self._executor if self._runner._owns_executor else None
        for resource in (self._stream, owned):
            close = getattr(resource, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "ExperimentSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- terminal --------------------------------------------------------------
    def report(self) -> "ExperimentReport":
        """Drain outstanding points and assemble the grid-ordered report.

        Idempotent: the report is assembled once and cached.
        """
        if self._report is None:
            try:
                for _point in self:
                    pass
            except BaseException:
                # A failed drain must not leave a process pool simulating the
                # rest of the grid in the background.
                self.close()
                raise
            missing = [
                i
                for i in range(len(self._tasks))
                if i not in self._points and i not in self._failed
            ]
            for index in missing:
                if index in self._failures:
                    raise self._failures[index]
            if missing and self._stream_error is not None:
                raise self._stream_error
            if missing and self._closed:
                raise RuntimeError(
                    f"session was closed with {len(missing)} point(s) outstanding"
                )
            if missing:  # pragma: no cover - executors deliver every task
                raise RuntimeError(f"executor never delivered point(s) {missing}")
            self._report = self._runner.assemble_report(
                [self._points[index] for index in sorted(self._points)],
                failures=self.failed_points,
            )
        return self._report

    def __repr__(self) -> str:
        return (
            f"ExperimentSession({self._runner.scenario.name!r}, "
            f"{self.completed_points}/{self.total_points} points, "
            f"executor={self._executor!r})"
        )
