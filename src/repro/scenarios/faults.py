"""Fault tolerance for the execution fabric: retries, failures, chaos.

Grid-point evaluation is a *pure function* of its :class:`PointTask` — the
point seed is derived in the parent before any point runs, and
``evaluate_point`` touches no mutable state — so re-executing a task after a
crash, hang or lost result is always safe: the retried attempt produces a
**bit-identical** outcome.  This module packages that observation into the
pieces the executors build on:

* :class:`RetryPolicy` — how many attempts a point gets, the per-task
  timeout, and an exponential backoff whose jitter is *deterministic*
  (derived from the task seed via
  :func:`~repro.simulation.randomness.split_seed`), so retry schedules are
  reproducible run to run.
* :class:`PointFailure` — the structured record a point leaves in the report
  when every attempt is exhausted under the ``"continue"`` failure policy
  (exception type, message, attempts, elapsed wall time), instead of
  aborting the whole run.
* :class:`AttemptQueue` — the one retry rule: every executor (serial,
  thread, process pool, cluster) queues its pending attempts there and
  settles each failed attempt through :meth:`AttemptQueue.failed`, so a
  point retries, fails and is reported the same way whatever runs it.
  How a failure is *detected* stays with each executor: a post-hoc timeout
  in-process, a killed pool, a lost or silent cluster worker.
* :class:`ChaosSchedule` / :class:`ChaosExecutor` — deterministic fault
  injection: crashes, delays and corrupted results are injected from a
  seeded schedule keyed on ``(task seed, attempt)``, either by wrapping any
  executor in :class:`ChaosExecutor` or by exporting the schedule through
  the ``REPRO_CHAOS`` environment variable (which worker subprocesses
  inherit).  Attempts past ``max_faulty_attempts`` are never faulted, so a
  retry budget larger than that bound is *guaranteed* to converge — the
  chaos test suite proves every recovery path yields reports bit-identical
  to a fault-free serial run.

>>> policy = RetryPolicy(max_attempts=3, backoff=0.5)
>>> policy.delay(seed=7, attempt=1) == policy.delay(seed=7, attempt=1)
True
>>> schedule = ChaosSchedule(seed=1, crash_rate=0.5, max_faulty_attempts=2)
>>> schedule.fault_for(task_seed=42, attempt=3) is None  # past the bound
True
>>> schedule.fault_for(task_seed=42, attempt=1) == schedule.fault_for(42, 1)
True
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.simulation.randomness import split_seed

#: Environment variable carrying a JSON :meth:`ChaosSchedule.to_mapping` —
#: the subprocess hook: worker processes (and ``python -m repro`` runs under
#: test) read it at every attempt, so faults inject identically whether the
#: evaluation happens in-process or across a process boundary.
CHAOS_ENV = "REPRO_CHAOS"

#: Valid failure policies: ``"fail_fast"`` aborts the run on the first
#: exhausted point; ``"continue"`` records a :class:`PointFailure` in the
#: report and keeps going (metrics skip the failed point).
FAILURE_POLICIES: Tuple[str, ...] = ("fail_fast", "continue")


def validate_failure_policy(policy: str) -> str:
    if policy not in FAILURE_POLICIES:
        raise ValueError(
            f"failure_policy must be one of {FAILURE_POLICIES}, got {policy!r}"
        )
    return policy


class PointTimeoutError(RuntimeError):
    """A point evaluation exceeded its :attr:`RetryPolicy.timeout`."""


class WorkerLostError(RuntimeError):
    """A worker died (or vanished) while its task was in flight.

    The distributed analogue of ``BrokenProcessPool``: the
    :class:`~repro.cluster.executor.ClusterExecutor` raises it against the
    in-flight chunk of a worker whose connection dropped or whose heartbeats
    stopped, charging that chunk one attempt before requeueing it on a
    surviving worker — the same semantics the process pool applies to a dead
    pool member.
    """


class InjectedWorkerCrash(RuntimeError):
    """A :class:`ChaosSchedule` crash fault, raised on the in-process path.

    In a worker *process* the same fault calls ``os._exit`` instead, so the
    parent sees a broken pool — the real failure mode being rehearsed.
    """


class InjectedCorruption(RuntimeError):
    """A :class:`ChaosSchedule` corrupt-result fault (a poisoned pickle)."""


@dataclass(frozen=True)
class RetryPolicy:
    """How the executors treat a failing or hung point evaluation.

    Attributes
    ----------
    max_attempts:
        Total attempts a point gets (1 = no retry).
    timeout:
        Per-attempt wall-clock budget in seconds, or ``None`` for no limit.
        :class:`~repro.scenarios.executors.ProcessExecutor` *enforces* it —
        a worker still running past the deadline is killed and its task
        requeued; :class:`~repro.scenarios.executors.SerialExecutor` cannot
        pre-empt the evaluation, so it applies the budget after the fact
        (an overlong attempt is discarded and retried).
    backoff:
        Base delay in seconds before retry ``n`` (0 = retry immediately).
        The delay grows as ``backoff * backoff_factor**(attempt-1)``, capped
        at ``max_backoff``.
    backoff_factor:
        Exponential growth factor (>= 1).
    max_backoff:
        Upper bound on any single delay, in seconds.

    The jitter applied on top of the exponential curve is **deterministic**:
    it is derived from ``split_seed(task_seed, f"retry:{attempt}")``, so two
    runs of the same experiment back off identically — reproducibility
    extends to the retry schedule itself.
    """

    max_attempts: int = 3
    timeout: Optional[float] = None
    backoff: float = 0.0
    backoff_factor: float = 2.0
    max_backoff: float = 30.0

    def __post_init__(self) -> None:
        def finite(value: Any) -> bool:  # a real number, not a bool; NaN and inf fail
            real = isinstance(value, (int, float)) and not isinstance(value, bool)
            return real and math.isfinite(value)

        if type(self.max_attempts) is not int or self.max_attempts < 1:
            raise ValueError(f"max_attempts must be a positive int, got {self.max_attempts!r}")
        if self.timeout is not None and not (finite(self.timeout) and self.timeout > 0):
            raise ValueError(f"timeout must be finite and > 0 (or None), got {self.timeout!r}")
        if not (finite(self.backoff) and self.backoff >= 0):
            raise ValueError(f"backoff must be finite and non-negative, got {self.backoff!r}")
        if not (finite(self.backoff_factor) and self.backoff_factor >= 1.0):
            raise ValueError(f"backoff_factor must be finite and >= 1, got {self.backoff_factor!r}")
        if not (finite(self.max_backoff) and self.max_backoff >= 0):
            raise ValueError(f"max_backoff must be finite and >= 0, got {self.max_backoff!r}")

    def delay(self, seed: int, attempt: int) -> float:
        """Seconds to wait before re-dispatching ``attempt + 1``.

        Exponential in the attempt number, with a deterministic jitter in
        ``[0.5, 1.0)`` of the base value derived from the task seed — no
        wall-clock or global RNG state is consulted.
        """
        if self.backoff <= 0:
            return 0.0
        base = min(self.backoff * self.backoff_factor ** (attempt - 1), self.max_backoff)
        fraction = split_seed(seed, f"retry:{attempt}") % 1_000_000 / 1_000_000.0
        return base * (0.5 + 0.5 * fraction)


@dataclass(frozen=True)
class PointFailure:
    """One grid point that exhausted every attempt (``"continue"`` policy).

    Carries enough structure to diagnose the failure without a debugger —
    the point's swept parameters, the final exception type and message, how
    many attempts were made and the elapsed wall time — and serialises into
    the report artefact next to the successful points.
    """

    index: int
    parameters: Mapping[str, Any]
    error_type: str
    message: str
    attempts: int
    elapsed: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "parameters", dict(self.parameters))

    def to_mapping(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "parameters": dict(self.parameters),
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "elapsed": self.elapsed,
        }

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "PointFailure":
        data = dict(mapping)
        known = {"index", "parameters", "error_type", "message", "attempts", "elapsed"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown point-failure key(s): {', '.join(unknown)}")
        missing = sorted(known - set(data))
        if missing:
            raise ValueError(f"point-failure mapping lacks key(s): {', '.join(missing)}")
        return cls(**data)


class AttemptQueue:
    """The attempts an executor still owes, and the rule for a failed one.

    Pending attempts wait here: each point's first attempt, attempts
    requeued uncharged (a task a broken pool never ran, a lost cluster
    worker's queue) and retries, which :meth:`take` hands out once their
    :meth:`RetryPolicy.delay` has passed.  :meth:`failed` is the one retry
    rule; a point it closes out takes no further attempt and is never
    charged again, so a cluster point's other chunks drop out by themselves.

    ``bump`` counts ``"retries"`` and ``"failures"`` into the executor's
    ``stats`` (the thread executor passes a lock-guarded one).  Tasks are
    :class:`~repro.scenarios.executors.PointTask` values or cluster chunks
    of one, keyed by ``index``.
    """

    def __init__(
        self,
        retry: Optional[RetryPolicy],
        failure_policy: str,
        bump: Callable[[str], None],
    ) -> None:
        self.policy = retry or RetryPolicy(max_attempts=1)
        self.failure_policy = failure_policy
        self._bump = bump
        self._heap: List[Tuple[float, int, Any, int]] = []  # (due, order, task, attempt)
        self._order = itertools.count()
        self._closed: Set[int] = set()

    def __len__(self) -> int:
        return len(self._heap)

    def put(self, task: Any, attempt: int = 1, delay: float = 0.0) -> None:
        """Queue ``attempt`` of ``task``, due ``delay`` seconds from now."""
        due = time.monotonic() + delay
        heapq.heappush(self._heap, (due, next(self._order), task, attempt))

    def take(self) -> Optional[Tuple[Any, int]]:
        """The earliest due ``(task, attempt)`` of an open point, or ``None``."""
        now = time.monotonic()
        while self._heap and self._heap[0][0] <= now:
            _due, _order, task, attempt = heapq.heappop(self._heap)
            if task.index not in self._closed:
                return task, attempt
        return None

    def wait(self, limit: float) -> None:
        """Sleep until the earliest queued attempt is due, at most ``limit`` s."""
        if self._heap:
            time.sleep(max(0.0, min(self._heap[0][0] - time.monotonic(), limit)))

    def failed(
        self, task: Any, attempt: int, error: Exception, started: float
    ) -> Optional[PointFailure]:
        """Settle a failed attempt: queue a retry, or close the point out.

        While attempts remain, queues the next one after the policy's delay
        and returns ``None`` (as it does for a point closed before).  Once
        they are exhausted it returns the point's :class:`PointFailure`
        under ``"continue"`` and re-raises ``error`` under ``"fail_fast"``.
        ``started`` is when the point's first attempt began.  A worker's
        error re-raised here (:class:`~repro.cluster.ClusterTaskError`) is
        recorded under the type name and message the worker reported.
        """
        if task.index in self._closed:
            return None
        if attempt < self.policy.max_attempts:
            self._bump("retries")
            self.put(task, attempt + 1, self.policy.delay(task.seed, attempt))
            return None
        self._bump("failures")
        self._closed.add(task.index)
        if self.failure_policy == "fail_fast":
            raise error
        remote_type = getattr(error, "error_type", None)  # a ClusterTaskError
        return PointFailure(
            index=task.index,
            parameters=task.parameters,
            error_type=remote_type or type(error).__name__,
            message=error.message if remote_type else str(error),
            attempts=self.policy.max_attempts,
            elapsed=time.monotonic() - started,
        )


#: Fault kinds a :class:`ChaosSchedule` injects.
FAULT_KINDS: Tuple[str, ...] = ("crash", "delay", "corrupt")


@dataclass(frozen=True)
class ChaosSchedule:
    """A seeded, deterministic schedule of injected faults.

    For every ``(task seed, attempt)`` pair the schedule decides — by
    hashing, never by sampling shared RNG state — whether that attempt
    crashes the worker, sleeps past the retry timeout, or returns a
    corrupted result.  The decision is a pure function of the schedule, so
    a chaos run is exactly reproducible, and because attempts beyond
    ``max_faulty_attempts`` are never faulted, any retry budget larger than
    that bound converges to the fault-free result.
    """

    seed: int = 0
    crash_rate: float = 0.0
    delay_rate: float = 0.0
    delay_seconds: float = 0.25
    corrupt_rate: float = 0.0
    max_faulty_attempts: int = 2

    def __post_init__(self) -> None:
        for name in ("crash_rate", "delay_rate", "corrupt_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value!r}")
        total = self.crash_rate + self.delay_rate + self.corrupt_rate
        if total > 1.0:
            raise ValueError(f"fault rates must sum to <= 1, got {total}")
        if self.delay_seconds < 0:
            raise ValueError(f"delay_seconds must be non-negative, got {self.delay_seconds!r}")
        if self.max_faulty_attempts < 0:
            raise ValueError(
                f"max_faulty_attempts must be non-negative, got {self.max_faulty_attempts!r}"
            )

    def fault_for(self, task_seed: int, attempt: int) -> Optional[str]:
        """The fault injected into this ``(task, attempt)``, or ``None``.

        Deterministic: the same pair always yields the same decision, and
        attempts past ``max_faulty_attempts`` are always clean.
        """
        if attempt > self.max_faulty_attempts:
            return None
        draw = split_seed(self.seed, f"chaos:{task_seed}:{attempt}") % 1_000_000 / 1_000_000.0
        if draw < self.crash_rate:
            return "crash"
        if draw < self.crash_rate + self.delay_rate:
            return "delay"
        if draw < self.crash_rate + self.delay_rate + self.corrupt_rate:
            return "corrupt"
        return None

    # -- serialisation (for the REPRO_CHAOS environment hook) -------------------
    def to_mapping(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "crash_rate": self.crash_rate,
            "delay_rate": self.delay_rate,
            "delay_seconds": self.delay_seconds,
            "corrupt_rate": self.corrupt_rate,
            "max_faulty_attempts": self.max_faulty_attempts,
        }

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "ChaosSchedule":
        data = dict(mapping)
        known = {f.name for f in __import__("dataclasses").fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown chaos-schedule key(s): {', '.join(unknown)}")
        return cls(**data)


def active_chaos() -> Optional[ChaosSchedule]:
    """The schedule exported through ``REPRO_CHAOS``, or ``None``.

    Read at every attempt, in the parent and in worker processes alike (a
    worker inherits the environment of the parent that created its pool),
    so one hook covers both executors and subprocess CLI tests.
    """
    raw = os.environ.get(CHAOS_ENV)
    if not raw:
        return None
    try:
        mapping = json.loads(raw)
    except json.JSONDecodeError as error:
        raise ValueError(f"{CHAOS_ENV} is not valid JSON: {error}") from error
    if not isinstance(mapping, dict):
        raise ValueError(f"{CHAOS_ENV} must hold a JSON object")
    return ChaosSchedule.from_mapping(mapping)


def inject_fault(schedule: ChaosSchedule, task_seed: int, attempt: int) -> None:
    """Apply the schedule's fault for this attempt, if any.

    ``crash`` raises :class:`InjectedWorkerCrash` in the parent process but
    calls ``os._exit`` inside a worker process — the pool sees a genuinely
    dead worker, exactly like a segfault or OOM kill.  ``delay`` sleeps
    (tripping per-task timeouts); ``corrupt`` raises
    :class:`InjectedCorruption` (a poisoned result crossing the boundary).
    """
    fault = schedule.fault_for(task_seed, attempt)
    if fault is None:
        return
    if fault == "crash":
        if multiprocessing.parent_process() is not None:
            os._exit(113)  # hard death inside a pool worker: no traceback, no result
        raise InjectedWorkerCrash(
            f"chaos: injected worker crash (task seed {task_seed}, attempt {attempt})"
        )
    if fault == "delay":
        time.sleep(schedule.delay_seconds)
        return
    raise InjectedCorruption(
        f"chaos: injected corrupted result (task seed {task_seed}, attempt {attempt})"
    )


class ChaosExecutor:
    """Wrap any executor so its point evaluations run under a fault schedule.

    The schedule is exported through :data:`CHAOS_ENV` for the duration of
    the stream, which is what makes one wrapper serve both executors: the
    serial path reads it in-process at each attempt, and a process pool's
    workers inherit it when the pool is created (which happens while the
    stream — and hence the environment override — is live).

    ``retry`` and ``failure_policy`` proxy to the wrapped executor, so the
    runner can configure a chaos-wrapped executor exactly like a bare one.
    """

    def __init__(self, inner: Any, schedule: ChaosSchedule) -> None:
        if not hasattr(inner, "map_tasks"):
            raise TypeError(f"not an executor: {inner!r}")
        self.inner = inner
        self.schedule = schedule

    @property
    def retry(self) -> Optional[RetryPolicy]:
        return getattr(self.inner, "retry", None)

    @retry.setter
    def retry(self, policy: Optional[RetryPolicy]) -> None:
        self.inner.retry = policy

    @property
    def failure_policy(self) -> str:
        return getattr(self.inner, "failure_policy", "fail_fast")

    @failure_policy.setter
    def failure_policy(self, policy: str) -> None:
        self.inner.failure_policy = validate_failure_policy(policy)

    @property
    def stats(self) -> Dict[str, int]:
        return getattr(self.inner, "stats", {})

    def map_tasks(self, tasks: Sequence[Any]) -> Iterator[Tuple[int, Any]]:
        previous = os.environ.get(CHAOS_ENV)
        os.environ[CHAOS_ENV] = json.dumps(self.schedule.to_mapping(), sort_keys=True)
        try:
            yield from self.inner.map_tasks(tasks)
        finally:
            if previous is None:
                os.environ.pop(CHAOS_ENV, None)
            else:
                os.environ[CHAOS_ENV] = previous

    def __repr__(self) -> str:
        return f"ChaosExecutor({self.inner!r}, {self.schedule!r})"
