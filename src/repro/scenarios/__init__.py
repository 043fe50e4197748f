"""Declarative scenario/experiment layer — how the package is driven.

The paper's figures are *experiments*: sweeps of error rate and throughput
over operating points.  This subsystem makes them first-class:

* :mod:`repro.scenarios.scenario` — the frozen, JSON-round-trippable
  :class:`Scenario` value object (link overrides, sweep axes, metrics, trial
  budget, backend, seed policy).
* :mod:`repro.scenarios.metrics` — the registry of named figures of merit
  evaluated per grid point.
* :mod:`repro.scenarios.library` — named paper scenarios
  (``ber-vs-photons``, ``ber-vs-range``, ``design-space-grid``,
  ``multi-chip-bus``, ``spad-array-imager``, ``crosstalk-vs-pitch``,
  ``ppm-order-sweep``).
* :mod:`repro.scenarios.executors` — pluggable grid-point dispatch:
  :class:`SerialExecutor` (in-process), :class:`ThreadExecutor` (thread
  pool, GIL-free with the native compute kernels), :class:`ProcessExecutor`
  (process pool), and the cluster executor (:mod:`repro.cluster`, socket
  fleet) — all bit-identical to each other by construction.
* :mod:`repro.scenarios.faults` — fault tolerance: :class:`RetryPolicy`
  (retries/timeouts/deterministic backoff), :class:`PointFailure` records,
  and the seeded :class:`ChaosSchedule`/:class:`ChaosExecutor` fault-
  injection harness.
* :mod:`repro.scenarios.session` — :class:`ExperimentSession`, the streaming
  execution shape: points are yielded as they complete.
* :mod:`repro.scenarios.runner` — :class:`ExperimentRunner`, which compiles a
  scenario into picklable point tasks, dispatches them through an executor,
  and returns a structured :class:`ExperimentReport`.
* :mod:`repro.scenarios.store` — :class:`ReportStore`, content-addressed JSON
  artefacts of experiment reports (save/load/latest/compare).
* :mod:`repro.scenarios.smoke` — tiny-budget execution of the whole library.

Everything here is also drivable without writing Python:
``python -m repro run ber-vs-photons`` (see :mod:`repro.cli`).

Quickstart
----------

>>> from repro.scenarios import ExperimentRunner, get_scenario
>>> scenario = get_scenario("ber-vs-photons").with_budget(512)
>>> report = ExperimentRunner(scenario, seed=1).run()
>>> len(report.points)
6
"""

from repro import _lazy

__getattr__, __dir__ = _lazy.exports(__name__, {
    ".metrics": (
        "PointOutcome", "available_metrics", "register_metric", "resolve_metric",
    ),
    ".scenario": ("SPECIAL_PARAMETERS", "Scenario"),
    ".library": ("get_scenario", "named_scenarios", "register_scenario"),
    ".executors": (
        "Executor", "PointTask", "ProcessExecutor", "SerialExecutor", "ThreadExecutor",
        "WorkerCountError", "available_executors", "evaluate_point", "make_point_tasks",
        "resolve_executor",
    ),
    ".faults": (
        "ChaosExecutor", "ChaosSchedule", "PointFailure", "PointTimeoutError",
        "RetryPolicy", "WorkerLostError",
    ),
    ".session": ("ExperimentSession",),
    ".runner": (
        "ExperimentPoint", "ExperimentReport", "ExperimentRunner", "run_scenario",
    ),
    ".store": (
        "CorruptArtifactError", "ReportStore", "RunCheckpoint", "artifact_id",
        "run_digest",
    ),
    ".smoke": ("SmokeFailure", "run_smoke"),
})

__all__ = [
    "Scenario",
    "SPECIAL_PARAMETERS",
    "PointOutcome",
    "register_metric",
    "resolve_metric",
    "available_metrics",
    "register_scenario",
    "named_scenarios",
    "get_scenario",
    "Executor",
    "PointTask",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "available_executors",
    "resolve_executor",
    "evaluate_point",
    "make_point_tasks",
    "RetryPolicy",
    "PointFailure",
    "PointTimeoutError",
    "WorkerCountError",
    "WorkerLostError",
    "ChaosSchedule",
    "ChaosExecutor",
    "ExperimentSession",
    "ExperimentPoint",
    "ExperimentReport",
    "ExperimentRunner",
    "run_scenario",
    "ReportStore",
    "RunCheckpoint",
    "CorruptArtifactError",
    "artifact_id",
    "run_digest",
    "SmokeFailure",
    "run_smoke",
]
