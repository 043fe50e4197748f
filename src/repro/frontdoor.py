"""The shared run/list/show/compare front door.

``python -m repro`` (:mod:`repro.cli`) and the experiment service
(:mod:`repro.service`) are two thin consumers of one layer: this module.  It
owns the policy both must agree on —

* **scenario resolution** (:func:`resolve_scenario`): a library name, a JSON
  mapping, or a file on disk (bare scenario mapping *or* a stored artefact
  envelope), with an optional per-point bit-budget override;
* **the machine-readable catalogue** (:func:`scenario_catalogue`): the one
  format ``repro list --json`` prints and ``GET /scenarios`` serves;
* **run requests** (:class:`RunRequest`): the resolved, cache-keyable form of
  "execute this experiment" — scenario, resolved backend, seed and chunk
  size, i.e. exactly the inputs a report is deterministic in.  The request's
  :meth:`~RunRequest.run_key` is computable *before* running anything, which
  is what makes completed runs O(1) cache hits and identical in-flight
  requests coalescible;
* **cache probes** (:func:`probe`): "has this exact run already been
  simulated?" without simulating it (``repro probe``, server dedupe).

Every run executes a request: :meth:`RunRequest.session` opens the streaming
session (journalling to the run's resume checkpoint when given a store) and
:meth:`RunRequest.save` stores the report under the run key.  ``repro run``
and :func:`~repro.scenarios.runner.run_scenario` use both; the service opens
its sessions without a store, so it never touches a checkpoint that a CLI
run of the same request may be writing.

>>> request = RunRequest.build("ber-vs-photons", seed=3)
>>> request.scenario.name, request.backend, request.seed
('ber-vs-photons', 'batch', 3)
>>> len(request.run_key())
12
>>> request.run_key() == RunRequest.build("ber-vs-photons", seed=3).run_key()
True
>>> request.run_key() == RunRequest.build("ber-vs-photons", seed=4).run_key()
False
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.scenarios.executors import Executor, WorkersArg
from repro.scenarios.faults import RetryPolicy
from repro.scenarios.library import get_scenario, named_scenarios
from repro.scenarios.runner import (
    DEFAULT_CHUNK_SYMBOLS,
    ExperimentReport,
    ExperimentRunner,
    resolve_scenario_backend,
)
from repro.scenarios.scenario import Scenario, require_positive_int
from repro.scenarios.session import ExperimentSession
from repro.scenarios.store import ReportStore, RunCheckpoint, run_digest


def resolve_scenario(
    name: Optional[str] = None,
    file: Optional[str] = None,
    mapping: Optional[Mapping[str, Any]] = None,
    bits: Optional[int] = None,
    trial_mode: Optional[str] = None,
    ci_target: Optional[float] = None,
    max_symbols: Optional[int] = None,
) -> Scenario:
    """Resolve exactly one scenario source into a :class:`Scenario`.

    ``name`` looks up the library; ``mapping`` builds from a JSON mapping
    (``Scenario.from_mapping``); ``file`` loads a JSON file holding either a
    bare scenario mapping or a stored report artefact (whose
    ``report.scenario`` is extracted) — a previous run's artefact is itself
    a runnable scenario description.  ``bits`` overrides the per-point
    bit budget (``Scenario.with_budget``); ``trial_mode``/``ci_target``/
    ``max_symbols`` override the rare-event estimator settings
    (``Scenario.with_trial_mode``).
    """
    sources = [source for source in (name, file, mapping) if source is not None]
    if len(sources) != 1:
        raise ValueError(
            "pass exactly one of a scenario name or --file PATH (see `repro list`)"
        )
    if name is not None:
        try:
            scenario = get_scenario(name)
        except KeyError as error:
            # The curated library message, rethrown as the domain error it is.
            raise ValueError(error.args[0]) from None
    elif mapping is not None:
        scenario = Scenario.from_mapping(_unwrap_scenario_mapping(mapping))
    else:
        try:
            with open(file, encoding="utf-8") as handle:
                data = json.load(handle)
        except json.JSONDecodeError as error:
            raise ValueError(f"scenario file {file!r} is not valid JSON: {error}") from error
        except UnicodeDecodeError as error:
            # Carries no filename (an OSError does, for the CLI to report).
            raise ValueError(f"scenario file {file!r} is not UTF-8 text: {error.reason}") from error
        if not isinstance(data, dict):
            raise ValueError(f"scenario file {file!r} must hold a JSON object")
        scenario = Scenario.from_mapping(_unwrap_scenario_mapping(data))
    if bits is not None:
        scenario = scenario.with_budget(bits)
    scenario = _apply_trial_overrides(scenario, trial_mode, ci_target, max_symbols)
    return scenario


def _apply_trial_overrides(
    scenario: Scenario,
    trial_mode: Optional[str],
    ci_target: Optional[float],
    max_symbols: Optional[int],
) -> Scenario:
    """Apply rare-event overrides to a resolved scenario (no-op when unset)."""
    if trial_mode is None and ci_target is None and max_symbols is None:
        return scenario
    return scenario.with_trial_mode(
        trial_mode if trial_mode is not None else scenario.trial_mode,
        ci_target=ci_target,
        max_symbols=max_symbols,
    )


def _unwrap_scenario_mapping(data: Mapping[str, Any]) -> Mapping[str, Any]:
    """Accept a bare scenario mapping or a stored artefact envelope."""
    if "report" in data and isinstance(data["report"], dict):
        data = data["report"]
    if "scenario" in data and isinstance(data["scenario"], dict):
        data = data["scenario"]
    return data


def scenario_entry(scenario: Scenario) -> Dict[str, Any]:
    """One scenario's catalogue row (the shared machine-readable shape)."""
    return {
        "name": scenario.name,
        "description": scenario.description,
        "points": scenario.point_count(),
        "backend": scenario.backend,
        "channels": scenario.channels,
        "bits_per_point": scenario.bits_per_point,
    }


def scenario_catalogue() -> List[Dict[str, Any]]:
    """The named-scenario catalogue, one :func:`scenario_entry` per scenario.

    This is the *single* machine-readable catalogue format: ``repro list
    --json`` prints it and the service's ``GET /scenarios`` returns it, so
    scripts and service clients parse one shape.
    """
    return [scenario_entry(get_scenario(name)) for name in named_scenarios()]


@dataclass(frozen=True)
class RunRequest:
    """A fully resolved request to execute one experiment.

    Carries exactly the inputs a report is deterministic in — the scenario,
    the *resolved* backend name, the root seed and the chunk size — never
    how it is dispatched (executor, workers, retries).  Two requests with
    equal :meth:`run_key` produce bit-identical reports, which is the
    contract behind both cache hits and in-flight dedupe.
    """

    scenario: Scenario
    backend: str
    seed: int
    chunk_symbols: int

    @classmethod
    def build(
        cls,
        scenario: Union[str, Scenario, Mapping[str, Any]],
        seed: int = 0,
        backend: Optional[str] = None,
        chunk_symbols: int = DEFAULT_CHUNK_SYMBOLS,
        bits: Optional[int] = None,
        file: Optional[str] = None,
        trial_mode: Optional[str] = None,
        ci_target: Optional[float] = None,
        max_symbols: Optional[int] = None,
    ) -> "RunRequest":
        """Resolve loose inputs (CLI flags, HTTP body fields) into a request."""
        if isinstance(scenario, Scenario):
            if file is not None:
                raise ValueError("pass exactly one of a scenario and --file PATH")
            resolved = scenario if bits is None else scenario.with_budget(bits)
            resolved = _apply_trial_overrides(
                resolved, trial_mode, ci_target, max_symbols
            )
        elif isinstance(scenario, str) or scenario is None:
            # resolve_scenario enforces the exactly-one-source rule.
            resolved = resolve_scenario(
                name=scenario,
                file=file,
                bits=bits,
                trial_mode=trial_mode,
                ci_target=ci_target,
                max_symbols=max_symbols,
            )
        elif isinstance(scenario, Mapping):
            if file is not None:
                raise ValueError("pass exactly one of a scenario and --file PATH")
            resolved = resolve_scenario(
                mapping=scenario,
                bits=bits,
                trial_mode=trial_mode,
                ci_target=ci_target,
                max_symbols=max_symbols,
            )
        else:
            raise ValueError(
                f"scenario must be a name, a Scenario or a mapping, got {scenario!r}"
            )
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError(f"seed must be an int, got {seed!r}")
        require_positive_int("chunk_symbols", chunk_symbols)
        return cls(
            scenario=resolved,
            backend=resolve_scenario_backend(resolved, backend),
            seed=seed,
            chunk_symbols=chunk_symbols,
        )

    def run_key(self) -> str:
        """The request's cache key (see :func:`repro.scenarios.store.run_digest`)."""
        return run_digest(self.scenario, self.backend, self.seed, self.chunk_symbols)

    def runner(
        self,
        executor: Union[None, str, Executor] = None,
        workers: WorkersArg = None,
        retry: Optional[RetryPolicy] = None,
        failure_policy: Optional[str] = None,
    ) -> ExperimentRunner:
        """An :class:`ExperimentRunner` executing exactly this request."""
        return ExperimentRunner(
            self.scenario,
            seed=self.seed,
            backend=self.backend,
            chunk_symbols=self.chunk_symbols,
            executor=executor,
            workers=workers,
            retry=retry,
            failure_policy=failure_policy,
        )

    def session(
        self,
        store: Optional[ReportStore] = None,
        resume: bool = False,
        executor: Union[None, str, Executor] = None,
        workers: WorkersArg = None,
        retry: Optional[RetryPolicy] = None,
        failure_policy: Optional[str] = None,
    ) -> ExperimentSession:
        """Start a streaming :class:`ExperimentSession` executing this request.

        With a ``store``, completed points are journalled to the run's
        checkpoint as they land.  ``resume`` restores the points a killed
        run had already journalled instead of re-evaluating them; without
        it any stale checkpoint of the same run is discarded first.  Without
        a store nothing is journalled, and no checkpoint is read or removed.
        """
        if resume and store is None:
            raise ValueError("resume=True needs a store to read the checkpoint from")
        runner = self.runner(executor, workers, retry, failure_policy)
        checkpoint = None
        if store is not None:
            checkpoint = self._checkpoint(store)
            if not resume:
                checkpoint.discard()
        return runner.session(checkpoint=checkpoint)

    def save(self, store: ReportStore, report: ExperimentReport) -> Path:
        """Store ``report`` under :meth:`run_key`, then discard the checkpoint.

        The run-index entry makes the completed run an O(1) cache hit
        (:meth:`ReportStore.find_run`, :func:`probe`).  Returns the
        artefact path.
        """
        path = store.save(report, run_key=self.run_key())
        self._checkpoint(store).discard()
        return path

    def _checkpoint(self, store: ReportStore) -> RunCheckpoint:
        return store.run_checkpoint(
            self.scenario.to_mapping(), self.backend, self.seed, self.chunk_symbols
        )

    def describe(self) -> Dict[str, Any]:
        """The request's identifying fields as plain data (status payloads)."""
        return {
            "scenario": self.scenario.name,
            "backend": self.backend,
            "seed": self.seed,
            "chunk_symbols": self.chunk_symbols,
            "points": self.scenario.point_count(),
            "run": self.run_key(),
        }


def probe(store: ReportStore, request: RunRequest) -> Dict[str, Any]:
    """Cache-probe a run request against a store *without* running it.

    Returns the shared probe shape: ``state`` is ``"hit"`` (a completed
    artefact exists for this exact run — ``artifact`` names it) or
    ``"pending"`` (it would have to be simulated).  ``kernels`` reports the
    compute kernels available in *this* interpreter
    (:func:`repro.kernels.available_kernels`) — what ``$REPRO_KERNEL``, or
    its ``"auto"`` default, selects from here.  The kernel is never part of
    the request: every tier produces the same report.
    """
    from repro.kernels import available_kernels

    key = request.run_key()
    artifact = store.find_run(key)
    result = request.describe()
    result["state"] = "hit" if artifact is not None else "pending"
    result["artifact"] = artifact
    result["kernels"] = list(available_kernels())
    return result
