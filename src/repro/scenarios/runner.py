"""Compiling scenarios onto the batch Monte-Carlo machinery.

:class:`ExperimentRunner` takes a declarative
:class:`~repro.scenarios.scenario.Scenario` and executes it: every grid point
becomes a self-contained :class:`~repro.scenarios.executors.PointTask` whose
seed is derived up front, dispatched through a pluggable
:class:`~repro.scenarios.executors.Executor` (serial in-process by default, a
process pool with ``executor="process"``), with each point a chunked
:meth:`~repro.simulation.montecarlo.MonteCarloRunner.run_batch` run in which
each Monte-Carlo trial is one PPM symbol pushed through a link built by the
backend registry (:func:`repro.core.backend.make_link`).

The result is a structured :class:`ExperimentReport`: one
:class:`ExperimentPoint` per grid point with metric values and 95 % confidence
half-widths, plus enough metadata (scenario mapping, backend, seed) to
reproduce the run bit for bit.  Because point seeds are derived before any
point runs, reports are **bit-identical across executors** — a process-pool
run equals a serial run, ``to_mapping()`` for ``to_mapping()``.

Streaming consumers use :meth:`ExperimentRunner.session` — an
:class:`~repro.scenarios.session.ExperimentSession` yields points as they
complete; :meth:`ExperimentRunner.run` is the run-to-completion adapter over
it.  Reports persist through :class:`~repro.scenarios.store.ReportStore`, and
``python -m repro run <scenario>`` drives all of this from the command line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.report import ReportTable
from repro.core.backend import backend_capabilities, resolve_backend
from repro.scenarios.executors import (
    Executor,
    PointTask,
    WorkersArg,
    make_point_tasks,
    resolve_executor,
)
from repro.scenarios.faults import PointFailure, RetryPolicy
from repro.scenarios.metrics import PointOutcome, evaluate_metrics, metric_allows_nan
from repro.scenarios.scenario import Scenario, require_positive_int
from repro.scenarios.session import ExperimentSession

if False:  # pragma: no cover - typing only, avoids a runtime cycle
    from repro.scenarios.store import RunCheckpoint

#: Default symbols per Monte-Carlo chunk.  Reports are deterministic in
#: ``(scenario, seed, chunk_symbols)``, so every front door (runner,
#: convenience function, CLI) must share this one value or their results
#: silently diverge.
DEFAULT_CHUNK_SYMBOLS = 8_192


def resolve_scenario_backend(scenario: Scenario, backend: Optional[str] = None) -> str:
    """The registered backend a run of ``scenario`` would use.

    ``backend`` overrides the scenario's own choice; aliases are normalised
    through the registry and the scenario's channel count is validated
    against the backend's capabilities.  This is the single place run
    front-doors (the runner, the CLI, the experiment service) resolve
    backends, so cache keys computed *before* running always match the
    backend the report will record.
    """
    resolved = resolve_backend(backend if backend is not None else scenario.backend)
    if scenario.channels > 1 and not backend_capabilities(resolved).supports_multichannel:
        raise ValueError(
            f"scenario {scenario.name!r} runs {scenario.channels} channels, "
            f"which backend {resolved!r} does not support"
        )
    return resolved


@dataclass(frozen=True)
class ExperimentPoint:
    """One evaluated grid point of a scenario experiment.

    ``budget`` is present only on adaptive-budget runs (scenarios with a
    ``ci_target``): a mapping recording the target, the metric it applied
    to, the achieved 95 % half-width, the number of simulation rounds, and
    whether the point converged before any ``max_symbols`` cap.  Fixed-budget
    points leave it ``None`` and serialise exactly as before.
    """

    parameters: Mapping[str, Any]
    metrics: Mapping[str, float]
    confidence: Mapping[str, Optional[float]]
    bits: int
    symbols: int
    detection_counts: Mapping[str, int] = field(default_factory=dict)
    budget: Optional[Mapping[str, Any]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "parameters", dict(self.parameters))
        object.__setattr__(self, "metrics", dict(self.metrics))
        object.__setattr__(self, "confidence", dict(self.confidence))
        object.__setattr__(self, "detection_counts", dict(self.detection_counts))
        if self.budget is not None:
            object.__setattr__(self, "budget", dict(self.budget))

    def metric(self, name: str) -> float:
        try:
            return self.metrics[name]
        except KeyError:
            known = ", ".join(sorted(self.metrics))
            raise KeyError(f"point has no metric {name!r}; available: {known}") from None

    def to_mapping(self) -> Dict[str, Any]:
        # NaN metric values (valid empty-point measurements of allow_nan
        # metrics) serialise as null: artefacts must stay *strict* JSON —
        # json.dumps would otherwise emit a bare `NaN` token that jq,
        # JSON.parse and most non-Python consumers reject.  from_mapping
        # restores them.
        mapping = {
            "parameters": dict(self.parameters),
            "metrics": {
                name: None if math.isnan(value) else value
                for name, value in self.metrics.items()
            },
            "confidence": dict(self.confidence),
            "bits": self.bits,
            "symbols": self.symbols,
            "detection_counts": dict(self.detection_counts),
        }
        if self.budget is not None:
            # Emitted only on adaptive runs: fixed-budget artefacts (and
            # their content digests) keep their historical shape.
            mapping["budget"] = dict(self.budget)
        return mapping

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "ExperimentPoint":
        """Inverse of :meth:`to_mapping` (artefact loading)."""
        data = dict(mapping)
        required = {"parameters", "metrics", "confidence", "bits", "symbols"}
        known = required | {"detection_counts", "budget"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown experiment-point key(s): {', '.join(unknown)}")
        missing = sorted(required - set(data))
        if missing:
            raise ValueError(f"experiment-point mapping lacks key(s): {', '.join(missing)}")
        data["metrics"] = {
            name: float("nan") if value is None else value
            for name, value in dict(data["metrics"]).items()
        }
        return cls(**data)


@dataclass(frozen=True)
class ExperimentReport:
    """Structured outcome of running one scenario end to end.

    ``failures`` is normally empty: under ``failure_policy="continue"`` it
    carries one :class:`~repro.scenarios.faults.PointFailure` per grid point
    that exhausted its retry budget (those points are absent from
    ``points``).  A report with no failures serialises exactly as before —
    the key is omitted — so fault tolerance never perturbs the content
    digest of a clean run.
    """

    scenario: Mapping[str, Any]
    backend: str
    seed: int
    points: Tuple[ExperimentPoint, ...]
    total_bits: int
    failures: Tuple[PointFailure, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenario", dict(self.scenario))
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "failures", tuple(self.failures))

    @property
    def name(self) -> str:
        return str(self.scenario.get("name", "experiment"))

    def metric_series(self, metric: str, axis: Optional[str] = None):
        """``(axis_values, metric_values)`` arrays along one sweep axis.

        ``axis`` defaults to the scenario's single sweep axis; it must be
        named explicitly for multi-axis grids.
        """
        axes = list(self.scenario.get("sweep_axes", {}))
        if axis is None:
            if len(axes) != 1:
                raise ValueError(
                    f"scenario has {len(axes)} sweep axes; pass axis= explicitly"
                )
            axis = axes[0]
        xs = np.asarray([point.parameters[axis] for point in self.points])
        ys = np.asarray([point.metric(metric) for point in self.points])
        return xs, ys

    def to_mapping(self) -> Dict[str, Any]:
        """Plain-data form of the report (JSON-serialisable).

        The ``failures`` key appears only when there are failures: clean
        reports keep their historical shape (and content digest).
        """
        mapping = {
            "scenario": dict(self.scenario),
            "backend": self.backend,
            "seed": self.seed,
            "total_bits": self.total_bits,
            "points": [point.to_mapping() for point in self.points],
        }
        if self.failures:
            mapping["failures"] = [failure.to_mapping() for failure in self.failures]
        return mapping

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "ExperimentReport":
        """Inverse of :meth:`to_mapping` — reports round-trip through JSON.

        >>> from repro.scenarios import ExperimentRunner, get_scenario
        >>> scenario = get_scenario("ber-vs-photons").with_budget(128)
        >>> report = ExperimentRunner(scenario, seed=1).run()
        >>> ExperimentReport.from_mapping(report.to_mapping()) == report
        True
        """
        data = dict(mapping)
        required = {"scenario", "backend", "seed", "total_bits", "points"}
        known = required | {"failures"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown experiment-report key(s): {', '.join(unknown)}")
        missing = sorted(required - set(data))
        if missing:
            raise ValueError(f"experiment-report mapping lacks key(s): {', '.join(missing)}")
        points = tuple(
            point if isinstance(point, ExperimentPoint) else ExperimentPoint.from_mapping(point)
            for point in data.pop("points", ())
        )
        failures = tuple(
            failure if isinstance(failure, PointFailure) else PointFailure.from_mapping(failure)
            for failure in data.pop("failures", ())
        )
        return cls(points=points, failures=failures, **data)

    def summary(self) -> str:
        """Aligned text table of every point (one row) and metric (one column)."""
        metric_names = list(self.scenario.get("metrics", []))
        axis_names = list(self.scenario.get("sweep_axes", {}))
        table = ReportTable(columns=axis_names + metric_names)
        for point in self.points:
            cells: List[str] = [str(point.parameters[name]) for name in axis_names]
            for name in metric_names:
                half = point.confidence.get(name)
                value = point.metric(name)
                cells.append(
                    f"{value:.3e}" if half is None else f"{value:.3e} ± {half:.1e}"
                )
            table.add_row(*cells)
        header = (
            f"scenario {self.name!r} — backend={self.backend}, seed={self.seed}, "
            f"{len(self.points)} point(s), {self.total_bits} bits"
        )
        if self.failures:
            lines = [
                f"  FAILED {dict(failure.parameters)!r}: {failure.error_type} "
                f"after {failure.attempts} attempt(s): {failure.message}"
                for failure in self.failures
            ]
            header += f", {len(self.failures)} failed point(s)\n" + "\n".join(lines)
        return f"{header}\n{table.render()}"


class ExperimentRunner:
    """Executes a :class:`Scenario` on the chunked batch Monte-Carlo machinery.

    Parameters
    ----------
    scenario:
        The declarative experiment to run.
    seed:
        Root seed of the run.  Per-point seeds are derived from it according
        to the scenario's ``seed_policy``; reports are deterministic in
        ``(scenario, seed, chunk_symbols)`` — and identical across executors.
    backend:
        Optional override of the scenario's link backend (by registered name).
    chunk_symbols:
        Symbols simulated per batch-transmission chunk; bounds peak memory and
        fixes the seeding layout.
    executor:
        How grid points are dispatched: ``None``/``"serial"`` evaluates them
        in-process, ``"process"`` fans them out over a
        :class:`~repro.scenarios.executors.ProcessExecutor` pool, and any
        :class:`~repro.scenarios.executors.Executor` instance is used as is.
    workers:
        Pool size for a named ``"process"`` executor, or cluster worker
        addresses (``"host:port,…"`` / a sequence) for ``"cluster"`` —
        either implies its executor when set without ``executor=``.
    retry:
        Optional :class:`~repro.scenarios.faults.RetryPolicy` applied to the
        resolved executor: failed/hung point attempts are retried with
        deterministic backoff, bit-identically to an unfailed run.
    failure_policy:
        ``"fail_fast"`` (default) or ``"continue"`` — whether an exhausted
        point aborts the run or lands in ``report.failures``.
    """

    def __init__(
        self,
        scenario: Scenario,
        seed: int = 0,
        backend: Optional[str] = None,
        chunk_symbols: int = DEFAULT_CHUNK_SYMBOLS,
        executor: Union[None, str, Executor] = None,
        workers: WorkersArg = None,
        retry: Optional[RetryPolicy] = None,
        failure_policy: Optional[str] = None,
    ) -> None:
        require_positive_int("chunk_symbols", chunk_symbols)
        self.scenario = scenario
        self.seed = seed
        self.backend = resolve_scenario_backend(scenario, backend)
        self.chunk_symbols = chunk_symbols
        self.executor = resolve_executor(executor, workers, retry, failure_policy)

    # -- point execution -------------------------------------------------------
    def point_tasks(self) -> List[PointTask]:
        """The run's grid-ordered, picklable work units (seeds pre-derived).

        Point execution has exactly one entry point —
        :func:`~repro.scenarios.executors.evaluate_point`, reached through
        these tasks whatever the executor — so serial and parallel runs
        cannot drift apart.
        """
        return make_point_tasks(
            self.scenario,
            seed=self.seed,
            backend=self.backend,
            chunk_symbols=self.chunk_symbols,
        )

    # -- report assembly -------------------------------------------------------
    def build_point(
        self,
        parameters: Mapping[str, Any],
        outcome: PointOutcome,
        budget: Optional[Mapping[str, Any]] = None,
    ) -> ExperimentPoint:
        """Evaluate the scenario's metrics on one point outcome.

        Metric functions (including user-registered ones) always run here, in
        the parent process — only plain-data outcomes cross executor
        boundaries.  Infinite values always raise; ``NaN`` raises unless the
        metric was registered with ``allow_nan=True`` (the NoC traffic
        metrics, whose ratios are legitimately undefined on an empty point).
        ``budget`` (adaptive runs only) is recorded on the point verbatim.
        """
        values, confidence = evaluate_metrics(self.scenario.metrics, outcome)
        for name, value in values.items():
            if math.isinf(value) or (math.isnan(value) and not metric_allows_nan(name)):
                raise ValueError(
                    f"metric {name!r} evaluated to {value} at point {dict(parameters)!r} "
                    f"of scenario {self.scenario.name!r}"
                )
        return ExperimentPoint(
            parameters=dict(parameters),
            metrics=values,
            confidence=confidence,
            bits=outcome.bits,
            symbols=outcome.symbols,
            detection_counts=outcome.detection_counts,
            budget=budget,
        )

    def assemble_report(
        self,
        points: Sequence[ExperimentPoint],
        failures: Sequence[PointFailure] = (),
    ) -> ExperimentReport:
        """Assemble grid-ordered points (and any failures) into the report."""
        return ExperimentReport(
            scenario=self.scenario.to_mapping(),
            backend=self.backend,
            seed=self.seed,
            points=tuple(points),
            total_bits=sum(point.bits for point in points),
            failures=tuple(failures),
        )

    # -- experiment execution ------------------------------------------------------
    def session(
        self,
        executor: Union[None, str, Executor] = None,
        workers: WorkersArg = None,
        checkpoint: Optional["RunCheckpoint"] = None,
    ) -> ExperimentSession:
        """Start a streaming :class:`ExperimentSession` for this run.

        ``executor``/``workers`` override the runner's dispatch for this
        session only; iterate the session for points as they complete and
        call :meth:`ExperimentSession.report` for the assembled report.
        ``checkpoint`` (see
        :meth:`~repro.scenarios.store.ReportStore.run_checkpoint`) enables
        incremental crash recovery: previously recorded points are restored
        instead of re-evaluated, and new points are appended as they land.
        """
        if executor is None and workers is None:
            chosen = self.executor
        else:
            chosen = resolve_executor(executor, workers)
        return ExperimentSession(self, chosen, checkpoint=checkpoint)

    def run(
        self,
        progress: Optional[Callable[[int, int], None]] = None,
        executor: Union[None, str, Executor] = None,
        workers: WorkersArg = None,
    ) -> ExperimentReport:
        """Evaluate every grid point and assemble the structured report.

        A thin adapter over :meth:`session`: ``progress`` (optional) is called
        with ``(points_done, points_total)`` as each point completes.
        """
        session = self.session(executor, workers)
        try:
            done = 0
            for _point in session:
                done += 1
                if progress is not None:
                    progress(done, session.total_points)
            return session.report()
        finally:
            # On an error (e.g. a non-finite metric) a process pool would
            # otherwise keep simulating the remaining grid points until GC.
            session.close()


def run_scenario(
    scenario: Scenario,
    seed: int = 0,
    backend: Optional[str] = None,
    chunk_symbols: int = DEFAULT_CHUNK_SYMBOLS,
    executor: Union[None, str, Executor] = None,
    workers: WorkersArg = None,
    store: Union[None, str, "ReportStore"] = None,  # noqa: F821 - forward ref
    retry: Optional[RetryPolicy] = None,
    failure_policy: Optional[str] = None,
    resume: bool = False,
) -> ExperimentReport:
    """One-call convenience: build an :class:`ExperimentRunner` and run it.

    Exposes the runner's full determinism contract — reports are a function
    of ``(scenario, seed, chunk_symbols)``, whatever ``executor``/``workers``
    dispatch them — and optionally persists the report into a
    :class:`~repro.scenarios.store.ReportStore` (a store instance or a
    directory path).

    With a store, completed points are checkpointed incrementally; pass
    ``resume=True`` to pick up a killed run's checkpoint, re-evaluating only
    the points it had not finished (the final report — and its content
    digest — equals an uninterrupted run's).  Without ``resume`` any stale
    checkpoint for the same run is discarded first.  The checkpoint is
    removed once the report is safely saved.
    """
    runner = ExperimentRunner(
        scenario,
        seed=seed,
        backend=backend,
        chunk_symbols=chunk_symbols,
        executor=executor,
        workers=workers,
        retry=retry,
        failure_policy=failure_policy,
    )
    if resume and store is None:
        raise ValueError("resume=True needs a store to read the checkpoint from")
    checkpoint = None
    report_store = None
    if store is not None:
        from repro.scenarios.store import ReportStore

        report_store = store if isinstance(store, ReportStore) else ReportStore(store)
        checkpoint = report_store.run_checkpoint(
            scenario.to_mapping(), runner.backend, seed, chunk_symbols
        )
        if not resume:
            checkpoint.discard()
    session = runner.session(checkpoint=checkpoint)
    try:
        report = session.report()
    finally:
        session.close()
    if report_store is not None:
        # The checkpoint key *is* the run key: recording it indexes the
        # finished artefact for O(1) cache probes (store.find_run / the
        # experiment service's dedupe path).
        report_store.save(report, run_key=checkpoint.run_key)
        if checkpoint is not None:
            checkpoint.discard()
    return report
