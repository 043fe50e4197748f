"""``python -m repro`` — drive the experiment layer without writing Python.

Eight subcommands cover the run/inspect/serve loop:

* ``repro list`` — catalogue the named library scenarios (``--json`` prints
  the shared machine-readable catalogue,
  :func:`repro.frontdoor.scenario_catalogue` — the same payload the service
  serves on ``GET /scenarios``);
* ``repro run <scenario>`` — execute a scenario (choosing backend, executor,
  worker count, seed, per-point bit budget and chunk size), stream per-point
  progress, print the report table and persist the artefact into a
  :class:`~repro.scenarios.store.ReportStore`; ``repro run --file
  scenario.json`` runs a custom scenario mapping
  (:meth:`~repro.scenarios.scenario.Scenario.from_mapping`) — or a stored
  artefact — without registering it;
* ``repro probe <scenario>`` — compute the run's artefact cache key
  (:meth:`~repro.frontdoor.RunRequest.run_key`) *without running anything*
  and say whether the store already holds the completed artefact: exits 0
  on a cache hit, :data:`EXIT_CACHE_MISS` (4) when the run is still pending
  — scripts can gate expensive simulations on it.  ``run`` and ``probe``
  share one set of request flags, so a stored ``repro run`` probes as a hit
  under the same flags;
* ``repro show <artefact>`` — reload a stored artefact (by id or path) and
  print its report (``--json`` prints the report mapping, the same shape
  the service client's ``report()`` returns);
* ``repro compare <a> <b> --metric ber`` — per-point metric deltas between
  two artefacts, for longitudinal figure tracking;
* ``repro serve`` — boot the :mod:`repro.service` HTTP daemon on the same
  store: completed runs become O(1) cache hits, identical in-flight
  requests coalesce, and progress streams as server-sent events;
* ``repro worker --listen host:port`` — join the distributed fleet: await a
  coordinator that dials this address (port 0 for ephemeral; prints a
  machine-parseable ``worker listening on host:port`` line);
* ``repro workers <addrs>`` — probe a fleet's workers and list their status.

Distributed runs reuse the ordinary run surface: ``repro run <scenario>
--executor cluster --workers host:port,host:port`` dispatches chunk tasks
over the fleet — ``--workers`` accepts either a process-pool size (an int)
or cluster worker addresses, and implies the matching executor.

Determinism carries through unchanged: ``repro run`` output is a function of
``(scenario, seed, chunk size)`` only — never of the executor, the worker
count or fleet, and never of how many retries (``--retry``) a faulty
machine needed.
Exit status is 0 on success, 2 for usage errors (argparse), 1 for domain
errors (unknown scenario, missing artefact), 3 for a corrupt artefact
(:class:`~repro.scenarios.store.CorruptArtifactError` — the file exists but
fails digest/format verification), 4 for ``probe`` misses and — typed as
:data:`EXIT_PORT_BIND`, also 4 — a ``serve`` or ``worker`` socket that
cannot be bound (port in use, privileged port); messages go to stderr.

Fault tolerance: ``repro run --retry N [--retry-timeout S]`` retries failing
or hung points deterministically; ``--failure-policy continue`` records
exhausted points in the report instead of aborting; completed points are
checkpointed incrementally whenever the run stores artefacts, so a killed
run resumes with ``repro run ... --resume`` re-evaluating only the missing
points (the final artefact digest equals an uninterrupted run's).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from repro import frontdoor
from repro.analysis.report import ReportTable
from repro.core.backend import available_backends
from repro.scenarios import (
    CorruptArtifactError,
    ReportStore,
    RetryPolicy,
    available_executors,
)
from repro.scenarios.runner import DEFAULT_CHUNK_SYMBOLS

#: Exit status for artefacts that exist but fail verification — distinct
#: from 1 (domain errors) so calling scripts can trigger quarantine/re-run.
EXIT_CORRUPT_ARTIFACT = 3

#: Exit status of ``repro probe`` when the run has no completed artefact yet
#: — a grep-style "no match", not an error.
EXIT_CACHE_MISS = 4

#: Exit status of ``repro serve`` and ``repro worker`` when the socket cannot
#: be bound (port in use, privileged port): typed so supervisors can tell it
#: from a crash.
EXIT_PORT_BIND = 4

DEFAULT_STORE = "artifacts"

DEFAULT_SERVE_HOST = "127.0.0.1"
DEFAULT_SERVE_PORT = 8765


def _format_parameters(parameters) -> str:
    """One grid point's swept values as a display label."""
    return ", ".join(f"{k}={v}" for k, v in parameters.items()) or "<single point>"


def _status(message: str) -> None:
    """Progress/status line to stderr.

    A consumer that closed stderr (``repro run ... 2>&1 | head``) must cost
    us the progress lines, never the simulation or its artefact.
    """
    try:
        print(message, file=sys.stderr)
    except BrokenPipeError:
        pass


def _workers_arg(value: str):
    """``--workers`` accepts a pool size (int) or cluster addresses.

    ``"4"`` → 4 (process pool); ``"host:port[,host:port…]"`` passes through
    as a string for the cluster executor to parse.  The distinction drives
    executor inference when ``--executor`` is omitted.
    """
    if ":" in value:
        return value
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a pool size or host:port addresses, got {value!r}"
        ) from None


def _request_flags() -> argparse.ArgumentParser:
    """The run-request flags ``run`` and ``probe`` share (an argparse parent).

    Every one of them is an input of :meth:`frontdoor.RunRequest.build`, so
    a stored ``repro run`` probes as a hit under the same flags.
    """
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("scenario", nargs="?", default=None,
                       help="library scenario name (see `list`)")
    flags.add_argument("--file", default=None, metavar="PATH",
                       help="a scenario from a JSON mapping or a stored artefact "
                            "(Scenario.from_mapping; no registration needed)")
    # Not argparse choices=: aliases ("fast", "array") and backends registered
    # at runtime must stay usable, so validation happens in resolve_backend.
    flags.add_argument("--backend", default=None,
                       help=f"link backend override ({', '.join(available_backends())})")
    flags.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    flags.add_argument("--bits", type=int, default=None,
                       help="payload bits per grid point (default: the scenario's budget)")
    flags.add_argument("--chunk-symbols", type=int, default=DEFAULT_CHUNK_SYMBOLS,
                       help="symbols per Monte-Carlo chunk (fixes the seeding layout)")
    flags.add_argument("--trial-mode", default=None, choices=("naive", "importance"),
                       help="estimator: plain Monte-Carlo (naive, default) or "
                            "importance sampling with likelihood weighting")
    flags.add_argument("--ci-target", type=float, default=None, metavar="HALF_WIDTH",
                       help="adaptive budget: simulate each point until its 95%% "
                            "CI half-width reaches this target")
    flags.add_argument("--max-symbols", type=int, default=None,
                       help="hard per-point symbol cap for --ci-target runs")
    flags.add_argument("--store", default=DEFAULT_STORE,
                       help=f"artefact store directory (default {DEFAULT_STORE!r})")
    flags.add_argument("--json", action="store_true",
                       help="machine-readable output (run: the report mapping)")
    return flags


def _request(args: argparse.Namespace) -> frontdoor.RunRequest:
    """The run request the shared request flags describe."""
    return frontdoor.RunRequest.build(
        args.scenario,
        file=args.file,
        seed=args.seed,
        backend=args.backend,
        chunk_symbols=args.chunk_symbols,
        bits=args.bits,
        trial_mode=args.trial_mode,
        ci_target=args.ci_target,
        max_symbols=args.max_symbols,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run, store and compare the paper's scenario experiments.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_cmd = commands.add_parser("list", help="catalogue the named scenarios")
    list_cmd.add_argument("--json", action="store_true", help="machine-readable output")

    request_flags = _request_flags()
    run_cmd = commands.add_parser(
        "run", parents=[request_flags],
        help="execute one scenario (named or from a file)",
    )
    run_cmd.add_argument("--executor", default=None, choices=available_executors(),
                         help="grid-point dispatch (default: serial)")
    run_cmd.add_argument("--workers", type=_workers_arg, default=None,
                         help="process-pool size (implies --executor process) or "
                              "cluster worker addresses host:port,… (implies "
                              "--executor cluster)")
    run_cmd.add_argument("--no-store", action="store_true",
                         help="do not persist the report artefact")
    run_cmd.add_argument("--quiet", action="store_true",
                         help="suppress per-point progress lines")
    run_cmd.add_argument("--retry", type=int, default=None, metavar="N",
                         help="attempts per grid point (default 1: no retry)")
    run_cmd.add_argument("--retry-timeout", type=float, default=None, metavar="SECONDS",
                         help="per-attempt wall-clock budget (hung points are "
                              "killed and retried; needs --retry)")
    run_cmd.add_argument("--retry-backoff", type=float, default=None, metavar="SECONDS",
                         help="base delay before a retry, growing exponentially "
                              "with deterministic jitter (needs --retry)")
    run_cmd.add_argument("--failure-policy", default=None,
                         choices=("fail_fast", "continue"),
                         help="what an exhausted point does: abort the run "
                              "(fail_fast, default) or land in the report as a "
                              "structured failure (continue)")
    run_cmd.add_argument("--resume", action="store_true",
                         help="pick up a killed run's checkpoint from the store, "
                              "re-evaluating only the missing points")

    commands.add_parser(
        "probe", parents=[request_flags],
        help="cache-probe a run (compute its artefact key without running)",
    )

    show_cmd = commands.add_parser("show", help="print a stored report artefact")
    show_cmd.add_argument("artifact", help="artefact id or path")
    show_cmd.add_argument("--store", default=DEFAULT_STORE,
                          help=f"artefact store directory (default {DEFAULT_STORE!r})")
    show_cmd.add_argument("--json", action="store_true",
                          help="print the report mapping as JSON instead of the table")

    compare_cmd = commands.add_parser(
        "compare", help="per-point metric deltas between two artefacts"
    )
    compare_cmd.add_argument("artifact_a", help="baseline artefact id or path")
    compare_cmd.add_argument("artifact_b", help="candidate artefact id or path")
    compare_cmd.add_argument("--metric", required=True, help="metric name to diff")
    compare_cmd.add_argument("--store", default=DEFAULT_STORE,
                             help=f"artefact store directory (default {DEFAULT_STORE!r})")
    compare_cmd.add_argument("--json", action="store_true",
                             help="machine-readable output")

    serve_cmd = commands.add_parser(
        "serve", help="boot the experiment service (HTTP + SSE) on this store"
    )
    serve_cmd.add_argument("--host", default=DEFAULT_SERVE_HOST,
                           help=f"bind address (default {DEFAULT_SERVE_HOST})")
    serve_cmd.add_argument("--port", type=int, default=DEFAULT_SERVE_PORT,
                           help=f"TCP port; 0 picks an ephemeral one "
                                f"(default {DEFAULT_SERVE_PORT})")
    serve_cmd.add_argument("--store", default=DEFAULT_STORE,
                           help=f"artefact store directory (default {DEFAULT_STORE!r})")
    serve_cmd.add_argument("--executor", default=None, choices=available_executors(),
                           help="grid-point dispatch for served runs (default: serial)")
    serve_cmd.add_argument("--workers", type=_workers_arg, default=None,
                           help="process-pool size or cluster worker addresses "
                                "host:port,… (implies the matching executor)")
    serve_cmd.add_argument("--chunk-symbols", type=int, default=DEFAULT_CHUNK_SYMBOLS,
                           help="default chunk size for requests that omit one")

    worker_cmd = commands.add_parser(
        "worker", help="join the distributed execution fleet"
    )
    worker_cmd.add_argument("--listen", required=True, metavar="HOST:PORT",
                            help="bind and await the coordinator, which dials "
                                 "it (`repro run --executor cluster --workers "
                                 "host:port,…`); port 0 picks an ephemeral "
                                 "one, and the bound address is printed on stdout; "
                                 "an address that cannot be bound exits 4")
    worker_cmd.add_argument("--name", default=None,
                            help="display name for telemetry (default worker-<pid>)")
    worker_cmd.add_argument("--heartbeat", type=float, default=None, metavar="SECONDS",
                            help="liveness frame interval while attached")

    workers_cmd = commands.add_parser(
        "workers", help="probe a fleet's workers and list their status"
    )
    workers_cmd.add_argument("addresses", metavar="HOST:PORT[,HOST:PORT…]",
                             help="comma-separated worker addresses to probe")
    workers_cmd.add_argument("--json", action="store_true",
                             help="machine-readable output")
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    # One catalogue format for every consumer: --json prints exactly what
    # the experiment service serves on GET /scenarios.
    catalogue = frontdoor.scenario_catalogue()
    if args.json:
        print(json.dumps(catalogue, indent=2))
        return 0
    table = ReportTable(columns=["scenario", "points", "backend", "channels", "bits/point"])
    for entry in catalogue:
        table.add_row(
            entry["name"],
            entry["points"],
            entry["backend"],
            entry["channels"],
            entry["bits_per_point"],
        )
    print(table.render())
    return 0


def _retry_policy(args: argparse.Namespace) -> Optional[RetryPolicy]:
    if args.retry is None:
        if args.retry_timeout is not None or args.retry_backoff is not None:
            raise ValueError("--retry-timeout/--retry-backoff need --retry N")
        return None
    return RetryPolicy(
        max_attempts=args.retry,
        timeout=args.retry_timeout,
        backoff=args.retry_backoff if args.retry_backoff is not None else 0.0,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    if args.resume and args.no_store:
        raise ValueError("--resume reads the checkpoint from the store; drop --no-store")
    request = _request(args)
    # Storing runs always checkpoint: a killed run can resume instead of
    # starting over.
    store = None if args.no_store else ReportStore(args.store)
    with request.session(
        store, args.resume, executor=args.executor, workers=args.workers,
        retry=_retry_policy(args), failure_policy=args.failure_policy,
    ) as session:
        if not args.quiet:
            _status(
                f"running {request.scenario.name!r}: {session.total_points} point(s), "
                f"backend={request.backend}, executor={session.executor!r}"
            )
            if session.resumed_points:
                _status(
                    f"resuming: {session.resumed_points} of {session.total_points} "
                    f"point(s) restored from checkpoint"
                )
        for point in session:
            if not args.quiet:
                shown = _format_parameters(point.parameters)
                _status(f"  [{session.completed_points}/{session.total_points}] {shown}")
        report = session.report()
        stats = session.executor_stats
        if not args.quiet and "tasks_stolen" in stats:
            _status(
                f"cluster: {stats.get('chunk_tasks', 0)} chunk task(s), "
                f"fan-out ≤{stats.get('max_fan_out', 1)}, "
                f"{stats.get('tasks_stolen', 0)} stolen, "
                f"{stats.get('tasks_requeued', 0)} requeued, "
                f"{stats.get('workers_lost', 0)} worker(s) lost"
            )
        for failure in session.failed_points:
            _status(
                f"  FAILED {_format_parameters(failure.parameters)}: "
                f"{failure.error_type} after {failure.attempts} attempt(s)"
            )
    # Persist before printing: a closed stdout pipe must never cost the
    # artefact of a completed simulation.
    if store is not None:
        _status(f"artefact: {request.save(store, report)}")
    if args.json:
        print(json.dumps(report.to_mapping(), indent=2))
    else:
        print(report.summary())
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    """Cache-probe: the run's artefact key and hit/pending state, no simulation."""
    result = frontdoor.probe(ReportStore(args.store), _request(args))
    if args.json:
        print(json.dumps(result, indent=2))
    elif result["state"] == "hit":
        print(f"HIT {result['artifact']} (run {result['run']})")
    else:
        print(
            f"PENDING run {result['run']} "
            f"({result['scenario']}, backend={result['backend']}, seed={result['seed']})"
        )
    return 0 if result["state"] == "hit" else EXIT_CACHE_MISS


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ExperimentService, ServiceBindError

    service = ExperimentService(
        store=args.store,
        executor=args.executor,
        workers=args.workers,
        chunk_symbols=args.chunk_symbols,
    )

    def _ready(host: str, port: int) -> None:
        # Machine-parseable readiness line on stdout (the smoke harness and
        # supervisors scrape it for the ephemeral port); detail on stderr.
        print(f"serving http://{host}:{port}", flush=True)
        _status(
            f"experiment service on http://{host}:{port} — store={args.store!r}, "
            f"endpoints: POST /runs, GET /runs/{{id}}[/events], /scenarios, "
            f"/probe, /artifacts, /compare, /stats (Ctrl-C to stop)"
        )

    try:
        service.serve_forever(args.host, args.port, on_ready=_ready)
    except ServiceBindError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_PORT_BIND
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    store = ReportStore(args.store)
    report = store.load(args.artifact, paths=True)
    if args.json:
        print(json.dumps(report.to_mapping(), indent=2))
    else:
        print(report.summary())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    store = ReportStore(args.store)
    try:
        comparison = store.compare(args.artifact_a, args.artifact_b, args.metric, paths=True)
    except KeyError as error:  # point.metric: unknown metric name
        raise ValueError(error.args[0]) from None
    if args.json:
        print(json.dumps(comparison, indent=2))
        return 0
    table = ReportTable(columns=["parameters", "a", "b", "delta"])
    for row in comparison["points"]:
        table.add_row(_format_parameters(row["parameters"]), row["a"], row["b"], row["delta"])
    print(f"metric {args.metric!r}: {args.artifact_a} -> {args.artifact_b}")
    print(table.render())
    for side, key in (("a", "only_a"), ("b", "only_b")):
        if comparison[key]:
            print(f"points only in {side}: {comparison[key]}")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterWorker, format_address

    kwargs = {}
    if args.heartbeat is not None:
        kwargs["heartbeat_interval"] = args.heartbeat
    worker = ClusterWorker(listen=args.listen, name=args.name, **kwargs)

    def _ready(host: str, port: int) -> None:
        # Machine-parseable readiness line on stdout (the cluster smoke
        # harness scrapes it for the ephemeral port); detail on stderr.
        print(f"worker listening on {host}:{port}", flush=True)
        _status(f"cluster worker {worker.name!r} awaiting a coordinator (Ctrl-C to stop)")

    try:
        worker.serve_forever(on_ready=_ready)
    except KeyboardInterrupt:
        worker.stop()
    except OSError as error:
        if worker.bound_address is not None:
            raise  # the socket was bound: not a bind failure
        where = format_address(worker.listen_address)
        print(f"error: cannot bind {where}: {error.strerror or error}", file=sys.stderr)
        return EXIT_PORT_BIND
    return 0


def _cmd_workers(args: argparse.Namespace) -> int:
    from repro.cluster import parse_addresses, probe_worker

    rows = [probe_worker(address) for address in parse_addresses(args.addresses)]
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    table = ReportTable(columns=["address", "name", "state", "tasks done", "uptime"])
    for row in rows:
        table.add_row(
            row.get("address", "?"),
            row.get("name", "-"),
            row.get("state", "?"),
            row.get("tasks_done", "-"),
            row.get("uptime", "-"),
        )
    print(table.render())
    # Like `repro probe`: an all-dead fleet is a distinct, scriptable status.
    return 0 if any(row.get("state") != "unreachable" for row in rows) else 1


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "probe": _cmd_probe,
    "show": _cmd_show,
    "compare": _cmd_compare,
    "serve": _cmd_serve,
    "worker": _cmd_worker,
    "workers": _cmd_workers,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return _COMMANDS[args.command](args)
    except CorruptArtifactError as error:
        # The artefact exists but is damaged (truncated, digest mismatch):
        # a distinct status so callers can quarantine/re-run mechanically.
        print(f"error: {error.args[0] if error.args else error}", file=sys.stderr)
        if error.path is not None:
            print(
                f"hint: move it aside with ReportStore.quarantine({str(error.path)!r}) "
                f"and re-run the scenario",
                file=sys.stderr,
            )
        return EXIT_CORRUPT_ARTIFACT
    except ValueError as error:
        # Domain errors (unknown scenario/metric, bad values) — not
        # tracebacks.  KeyError is deliberately absent: curated lookups
        # convert theirs at the call site, so an internal KeyError anywhere
        # else surfaces as a real traceback instead of `error: 'somekey'`.
        message = error.args[0] if error.args else error
        print(f"error: {message}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream closed the pipe (`repro run ... | head`): exit quietly.
        # Redirect stdout to devnull so the interpreter's shutdown flush
        # does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except OSError as error:
        if error.filename is not None:
            # A file boundary (a missing or directory --file, a --store path
            # through a regular file): name the path, not args[0], the errno.
            message = f"{error.filename!r}: {error.strerror}"
        elif isinstance(error, FileNotFoundError):
            message = error.args[0]  # an unknown artefact, raised with a message
        else:
            raise
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(main())
