"""repro.cluster — distributed chunk-level execution over a socket fleet.

The cluster subsystem has three layers, stacked on the same contracts the
serial and process executors already share:

* :mod:`repro.cluster.protocol` — newline-delimited JSON over TCP, the
  zero-dependency wire format (tasks and outcome accumulators as plain
  data; floats round-trip exactly).
* :mod:`repro.cluster.chunks` — chunk-level fan-out: compiling one grid
  point into chunk-aligned sub-tasks (absolute-offset chunk seeds make
  them independent) and folding partial outcomes back in symbol order.
* :mod:`repro.cluster.worker` / :mod:`repro.cluster.executor` — the
  ``repro worker --listen host:port`` process and the coordinator-side
  :class:`ClusterExecutor`, which dials those workers, with pull-based work
  stealing, heartbeats, per-task timeouts, and requeue-on-worker-death.
  Failed attempts are settled by the retry rule every executor shares
  (:class:`~repro.scenarios.faults.AttemptQueue`).

The headline invariant: reports are a function of ``(scenario, seed,
chunk_symbols)`` — never of the executor, the fleet size, worker deaths,
or retries.  ``--executor cluster`` changes wall-clock, not content.
"""

from repro import _lazy

__getattr__, __dir__ = _lazy.exports(__name__, {
    ".chunks": (
        "fan_out_eligible", "merge_chunk_outcomes", "split_point_task", "task_symbols",
    ),
    ".executor": ("ClusterExecutor", "ClusterTaskError"),
    ".protocol": (
        "Address", "ChannelClosed", "MessageChannel", "connect", "format_address",
        "outcome_from_wire", "outcome_to_wire", "parse_address", "parse_addresses",
        "task_from_wire", "task_to_wire",
    ),
    ".worker": ("ClusterWorker", "WorkerDeath", "probe_worker"),
})

__all__ = [
    "Address",
    "ChannelClosed",
    "ClusterExecutor",
    "ClusterTaskError",
    "ClusterWorker",
    "MessageChannel",
    "WorkerDeath",
    "connect",
    "fan_out_eligible",
    "format_address",
    "merge_chunk_outcomes",
    "outcome_from_wire",
    "outcome_to_wire",
    "parse_address",
    "parse_addresses",
    "probe_worker",
    "split_point_task",
    "task_from_wire",
    "task_symbols",
    "task_to_wire",
]
