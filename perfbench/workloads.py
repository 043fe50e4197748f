"""The benchmark's four workloads (see ``README.md`` for why each exists).

Three simulation workloads drive a named scenario through the public run
path — :meth:`RunRequest.build` → :meth:`RunRequest.runner` →
:meth:`ExperimentRunner.run` → :meth:`ReportStore.save`, what ``repro run
--store`` does — and after every run time the front door's cache-hit path
(resolve the request, find its run key, load the artefact) and its status
query (:func:`repro.frontdoor.probe`, what ``repro probe`` prints).
``service-mix`` boots a real ``repro serve`` subprocess and drives it with
one closed-loop client.

Every workload returns a :class:`Outcome`: per-operation latency samples,
attempted/failed counts and fingerprints.  Workload inputs are a function of
the seed only; every repetition of a simulation run within one invocation
uses the same seed, so each must reproduce the first run's report digest.
"""

from __future__ import annotations

import os
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import check

HERE = Path(__file__).resolve().parent

#: Host seconds :func:`host_slowdown`'s loop takes when this 2-core guest runs
#: at full speed.  The guest alternates between that and states up to ~2x
#: slower, for seconds to minutes at a time; every timing is divided by the
#: slowdown measured just before it (README, "Host-speed scaling").
CALIBRATION_REFERENCE_S = 0.0125

_CALIBRATION_BITS = np.random.default_rng(0).integers(0, 2, size=200_000)


def host_slowdown() -> float:
    """How many times slower than full speed the host runs right now.

    Times a fixed loop with the simulator's mix of work — interpreter
    arithmetic, an array → list → array round trip, a NumPy reduction —
    that no change to the simulator can alter.
    """
    began = time.perf_counter()
    total = 0
    for value in range(60_000):
        total += value * value
    np.count_nonzero(np.asarray(_CALIBRATION_BITS.tolist()) != 1)
    return (time.perf_counter() - began) / CALIBRATION_REFERENCE_S


#: Seconds a fresh interpreter takes to import NumPy on the reference host.
IMPORT_REFERENCE_S = 0.1

_IMPORT_PROBE = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"


def import_slowdown() -> float:
    """How many times slower than the reference a fresh interpreter imports NumPy now.

    Set-up (process start, imports, shared-library loads) is file-system and
    page-fault work that tracks :func:`host_slowdown` poorly: over five
    minutes in which that loop's time swung between 2.1x and 4.4x, set-up
    drifted by only 0.52-0.70 s, so dividing by it added spread rather than
    removing it.  A reference interpreter importing NumPy — work no change to
    the simulator can alter — tracks set-up better.
    """
    completed = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True, timeout=60, check=True
    )
    return float(completed.stdout) / IMPORT_REFERENCE_S


def scaled_median(samples: List[Tuple[float, float]]) -> float:
    """Seconds at reference speed from ``(raw seconds, slowdown)`` pairs.

    The median raw time over the median slowdown: one slowdown reading is as
    noisy as the sample it would scale, so samples are not divided one by one.
    """
    return median(raw for raw, _ in samples) / median(slow for _, slow in samples)


#: Seconds a server gets to print its ready line.
BOOT_TIMEOUT = 60.0
#: Runs made at least, however long they take (a median needs three).
MIN_RUNS = 3
#: Cache hits and status probes timed after every simulation run.
HITS_PER_RUN = 25
#: Hit/probe pairs timed per host-slowdown reading.
PAIRS_PER_READING = 5
#: The service's fixed request interleave, repeated until time (or hits) run out.
SERVICE_CYCLE = ("miss", "stats", "hit")
#: Request cycles a service phase makes at least.
MIN_CYCLES = 3
#: Prefilled runs per second of timed service loop (one hit each; a cycle
#: takes about 1/9 s, so the loop runs out of time before it runs out of hits).
PREFILL_PER_SECOND = 20
#: Seconds between polls of the child processes' peak memory.
RSS_POLL_S = 0.05


@dataclass(frozen=True)
class SimWorkload:
    """A named scenario run repeatedly through the public run path."""

    name: str
    scenario: str
    bits: int
    executor: Optional[str] = None
    workers: Optional[int] = None


@dataclass(frozen=True)
class ServiceWorkload:
    """A ``repro serve`` subprocess driven by one closed-loop client."""

    name: str
    scenario: str
    #: Per-point budget of the miss requests (simulated on the server).
    bits: int
    #: Per-point budget of the prefilled runs the hit requests read back.
    hit_bits: int


WORKLOADS: Dict[str, Any] = {
    "link-grid": SimWorkload("link-grid", "design-space-grid", bits=400_000),
    "imager-process": SimWorkload(
        "imager-process", "spad-array-imager", bits=4_194_304, executor="process", workers=2
    ),
    "noc-load": SimWorkload("noc-load", "noc-load-latency", bits=100_000),
    "service-mix": ServiceWorkload("service-mix", "ber-vs-photons", bits=16_384, hit_bits=64),
}


@dataclass
class Outcome:
    """What one workload phase measured."""

    #: Raw host milliseconds per operation kind.
    latencies_ms: Dict[str, List[float]] = field(default_factory=dict)
    #: The same operations divided by the host slowdown current at the time.
    scaled_ms: Dict[str, List[float]] = field(default_factory=dict)
    slowdown: float = 1.0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    offered_bits_per_run: int = 0
    digests: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: Loop iterations timed: simulation runs, or service request cycles.
    cycles: int = 0
    retries: int = 0
    #: Artefacts the service store holds after this phase.
    stored: int = 0

    def sample(self, kind: str, seconds: float) -> None:
        self.latencies_ms.setdefault(kind, []).append(seconds * 1e3)
        self.scaled_ms.setdefault(kind, []).append(seconds * 1e3 / self.slowdown)

    def absorb(self, other: "Outcome") -> None:
        """Add another phase's correctness tally (not its latencies) to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)
        self.digests.extend(other.digests)

    def judge(self, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


# -- memory --------------------------------------------------------------------


def _status_kb(pid: Any, field_name: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field_name + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _child_pids() -> List[int]:
    pids: List[int] = []
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        except OSError:
            continue
    return pids


class PeakRss:
    """Peak resident memory of this process plus its live child processes.

    Self is read from ``VmHWM``; children — process-pool workers — are
    polled every 50 ms and the sum of their own ``VmHWM`` peaks maximised
    (a peak is kept by the kernel, so a poll after it still sees it).
    """

    def __init__(self) -> None:
        self.children_peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _poll(self) -> None:
        while not self._stop.wait(RSS_POLL_S):
            total = sum(_status_kb(pid, "VmHWM") for pid in _child_pids())
            self.children_peak_kb = max(self.children_peak_kb, total)

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def megabytes(self) -> float:
        return (_status_kb("self", "VmHWM") + self.children_peak_kb) / 1024.0


# -- simulation workloads ---------------------------------------------------------


def run_simulation(
    workload: SimWorkload,
    seed: int,
    seconds: float,
    store_dir: Path,
    recorder: Any = None,
) -> Outcome:
    """Repeat one scenario run for ``seconds``, with hits and listings between.

    With a span ``recorder``, spans of the untimed warm-up are discarded so
    the recording covers exactly the timed cycles.
    """
    from repro.frontdoor import RunRequest, probe
    from repro.scenarios.store import ReportStore

    reference = check.load_reference(workload.scenario, workload.bits)
    shutil.rmtree(store_dir, ignore_errors=True)
    store = ReportStore(store_dir)
    request = RunRequest.build(workload.scenario, seed=seed, bits=workload.bits)
    outcome = Outcome(
        offered_bits_per_run=workload.bits * request.scenario.point_count()
    )

    def simulate():
        runner = request.runner(executor=workload.executor, workers=workload.workers)
        report = runner.run()
        store.save(report, run_key=request.run_key())
        outcome.retries += runner.executor.stats.get("retries", 0)
        return report

    # Warm-up, untimed: lazy caches (TDC tap tables, crosstalk matrices,
    # kernel libraries) fill here, as they would for any long-lived user.
    expected = check.digest(simulate().to_mapping())
    outcome.retries = 0
    if recorder is not None:
        recorder.reset()
    deadline = time.perf_counter() + seconds
    runs = 0
    with PeakRss() as rss:
        while runs < MIN_RUNS or time.perf_counter() < deadline:
            outcome.slowdown = host_slowdown()
            began = time.perf_counter()
            report = simulate()
            outcome.sample("miss", time.perf_counter() - began)
            runs += 1
            mapping = report.to_mapping()
            found = check.digest(mapping)
            outcome.digests.append(found)
            problems = check.check_report(mapping, reference)
            if found != expected:
                problems.append(f"run digest {found} differs from the first run's {expected}")
            outcome.judge(problems)
            # The cache-hit path (what a repeated ``repro run`` resolves to)
            # and the status query (``repro probe``), spread over the whole
            # loop so that one slow second of the host cannot skew them all.
            # Every few pairs get a fresh slowdown reading: the one taken
            # before the run is a second stale, and averaging several
            # readings per run damps the noise of any one of them.
            for pair in range(HITS_PER_RUN):
                if pair % PAIRS_PER_READING == 0:
                    outcome.slowdown = host_slowdown()
                began = time.perf_counter()
                hit = RunRequest.build(workload.scenario, seed=seed, bits=workload.bits)
                artifact = store.find_run(hit.run_key())
                loaded = store.load(artifact) if artifact is not None else None
                outcome.sample("hit", time.perf_counter() - began)
                outcome.judge(
                    [] if loaded is not None and check.digest(loaded.to_mapping()) == expected
                    else ["cache hit did not return the stored report"]
                )
                began = time.perf_counter()
                status = probe(store, request)
                outcome.sample("stats", time.perf_counter() - began)
                outcome.judge([] if status["state"] == "hit" else [f"probe says {status['state']}"])
    outcome.peak_rss_mb = rss.megabytes()
    outcome.cycles = runs
    return outcome


# -- the service workload -----------------------------------------------------------


class Server:
    """One ``repro serve`` subprocess on an ephemeral loopback port."""

    def __init__(self, store_dir: Path, trace_file: Optional[Path] = None) -> None:
        serve_args = ["--host", "127.0.0.1", "--port", "0", "--store", str(store_dir)]
        if trace_file is None:
            command = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            command = [sys.executable, str(HERE / "traced_serve.py"), str(trace_file), *serve_args]
        began = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        ready, _, _ = select.select([self.process.stdout], [], [], BOOT_TIMEOUT)
        line = self.process.stdout.readline() if ready else ""
        self.boot_s = time.perf_counter() - began
        if not line.startswith("serving http://"):
            self.stop()
            raise RuntimeError(f"repro serve did not report ready (got {line!r})")
        self.port = int(line.strip().rsplit(":", 1)[1])

    def peak_rss_kb(self) -> int:
        return _status_kb(self.process.pid, "VmHWM")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def boot_times(store_dir: Path, boots: int) -> List[Tuple[float, float]]:
    """``(seconds, import slowdown)`` from spawning ``repro serve`` to its ready line, ``boots`` times."""
    samples = []
    for _ in range(boots):
        slowdown = import_slowdown()
        server = Server(store_dir)
        samples.append((server.boot_s, slowdown))
        server.stop()
    return samples


def prefill_store(
    workload: ServiceWorkload, seeds: List[int], store_dir: Path
) -> List[Tuple[int, str]]:
    """Store one completed run per seed (untimed); returns (seed, digest) pairs."""
    from repro.frontdoor import RunRequest
    from repro.scenarios.store import ReportStore

    shutil.rmtree(store_dir, ignore_errors=True)
    store = ReportStore(store_dir)
    digests = []
    for seed in seeds:
        request = RunRequest.build(workload.scenario, seed=seed, bits=workload.hit_bits)
        report = request.runner().run()
        store.save(report, run_key=request.run_key())
        digests.append((seed, check.digest(report.to_mapping())))
    return digests


def run_service(
    workload: ServiceWorkload,
    server: Server,
    hits: List[Tuple[int, str]],
    misses: List[int],
    seconds: float,
    stored: int,
    min_cycles: int = MIN_CYCLES,
) -> Outcome:
    """Drive the fixed interleave against ``server`` for ``seconds``.

    ``hits`` holds (prefilled seed, stored report digest) pairs and
    ``misses`` seeds never stored; each is requested once, popped from its
    list.  ``stored`` is the number of artefacts in the store.
    """
    from repro.service.client import ServiceClient

    references = {
        "hit": check.load_reference(workload.scenario, workload.hit_bits),
        "miss": check.load_reference(workload.scenario, workload.bits),
    }
    client = ServiceClient("127.0.0.1", server.port, timeout=60.0)
    outcome = Outcome(offered_bits_per_run=workload.bits * _point_count(workload))
    deadline = time.perf_counter() + seconds
    cycles = 0
    while cycles < min_cycles or time.perf_counter() < deadline:
        if len(hits) < SERVICE_CYCLE.count("hit") or len(misses) < SERVICE_CYCLE.count("miss"):
            break
        outcome.slowdown = host_slowdown()
        for kind in SERVICE_CYCLE:
            if kind == "stats":
                began = time.perf_counter()
                stats = client.stats()
                outcome.sample("stats", time.perf_counter() - began)
                outcome.judge(
                    [] if stats.get("artifacts") == stored
                    else [f"GET /stats counts {stats.get('artifacts')} artefacts, expected {stored}"]
                )
                continue
            if kind == "hit":
                (seed, expected), bits = hits.pop(0), workload.hit_bits
            else:
                seed, expected, bits = misses.pop(0), None, workload.bits
            began = time.perf_counter()
            status = client.submit_run(workload.scenario, seed=seed, bits=bits)
            posted = time.perf_counter()
            report = None
            for event, data in client.events(status["run"]):
                if event == "report":
                    report = data["report"]
            ended = time.perf_counter()
            outcome.sample(kind, ended - began)
            outcome.sample(f"{kind}_post", posted - began)
            outcome.sample(f"{kind}_stream", ended - posted)
            if report is None:
                outcome.judge([f"{kind} request for seed {seed} ended without a report"])
                continue
            problems = check.check_report(report, references[kind])
            how = "cached" if kind == "hit" else "started"
            if status.get("status") != how:
                problems.append(f"{kind} request was {status.get('status')!r}, expected {how!r}")
            found = check.digest(report)
            if expected is not None and found != expected:
                problems.append(f"hit for seed {seed} returned digest {found}, stored {expected}")
            if kind == "miss":
                stored += 1
                outcome.digests.append(found)
            outcome.judge(problems)
        cycles += 1
    outcome.cycles = cycles
    outcome.stored = stored
    return outcome


def _point_count(workload: ServiceWorkload) -> int:
    from repro.scenarios.library import get_scenario

    return get_scenario(workload.scenario).point_count()

