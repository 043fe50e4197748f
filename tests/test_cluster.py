"""Tier-1 tests of repro.cluster — distributed chunk-level execution.

The contracts under test, in the order the subsystem sells them:

* **chunk fan-out is exact** — splitting any eligible point into K chunk
  tasks (absolute-offset chunk seeds), evaluating them in any order and
  folding them back yields outcomes *bit-identical* to the unsplit run,
  for both backends and both seed policies;
* **the wire changes nothing** — tasks and outcome accumulators round-trip
  the newline-delimited JSON protocol exactly (floats via repr);
* **cluster == serial** — a real socket fleet (in-process ``ClusterWorker``
  threads on ephemeral localhost ports) produces reports byte-identical to
  :class:`SerialExecutor` for every named scenario, including ``spad-array-
  imager`` with a fan-out factor > 1;
* **failure semantics mirror the process pool** — a worker killed mid-task
  has its chunk requeued elsewhere (one charged attempt, report unchanged),
  retryable errors replay bit-identically, exhausted points re-raise under
  ``fail_fast`` and land as :class:`PointFailure` under ``continue``, and a
  hung chunk trips ``retry.timeout``;
* **shared validation** — the process pool's worker count and the cluster's
  fan-out reject bad values with the same typed :class:`WorkerCountError`.

Socket-driving tests carry the ``cluster`` marker, and the retry, worker-death
and timeout tests also the ``chaos`` marker; the chunk/wire layers are plain
unit tests.
"""

import gc
import json
import random
import select
import socket
import threading
import time
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ChannelClosed,
    ClusterExecutor,
    ClusterTaskError,
    ClusterWorker,
    MessageChannel,
    WorkerDeath,
    connect,
    fan_out_eligible,
    merge_chunk_outcomes,
    outcome_from_wire,
    outcome_to_wire,
    parse_address,
    parse_addresses,
    probe_worker,
    split_point_task,
    task_from_wire,
    task_to_wire,
)
from repro.scenarios import (
    PointFailure,
    ProcessExecutor,
    RetryPolicy,
    Scenario,
    SerialExecutor,
    WorkerCountError,
    get_scenario,
    named_scenarios,
    run_scenario,
)
from repro.scenarios.executors import (
    evaluate_task,
    make_point_tasks,
    resolve_executor,
    validate_worker_count,
)
from repro.cluster import protocol
from repro.scenarios.faults import WorkerLostError


def small_scenario(seed_policy="per-point", channels=1):
    return Scenario(
        name="cluster-unit",
        link_overrides={"ppm_bits": 2},
        sweep_axes={"mean_detected_photons": (20.0, 45.0)},
        bits_per_point=2048,
        channels=channels,
        backend="multichannel" if channels > 1 else "batch",
        seed_policy=seed_policy,
    )


# -- chunk fan-out (no sockets) ------------------------------------------------
class TestChunkSplit:
    def test_chunks_partition_the_symbol_range_on_chunk_boundaries(self):
        scenario = small_scenario()
        (task, _other) = make_point_tasks(scenario, seed=3, backend="batch",
                                          chunk_symbols=64)[:2]
        chunks = split_point_task(scenario, task, fan_out=5)
        assert len(chunks) == 5
        cursor = task.start_symbol
        for chunk in chunks:
            assert chunk.start_symbol == cursor
            assert chunk.start_symbol % task.chunk_symbols == 0
            cursor += chunk.symbols
        assert cursor - task.start_symbol == 1024  # 2048 bits / 2 bits-per-symbol

    def test_fan_out_is_capped_by_the_chunk_count(self):
        scenario = small_scenario()
        task = make_point_tasks(scenario, seed=3, backend="batch",
                                chunk_symbols=512)[0]
        # 1024 symbols / 512 per chunk = 2 chunks; fan-out cannot exceed it.
        chunks = split_point_task(scenario, task, fan_out=16)
        assert len(chunks) == 2

    def test_fan_out_of_one_and_importance_points_stay_unsplit(self):
        scenario = small_scenario()
        task = make_point_tasks(scenario, seed=3, backend="batch",
                                chunk_symbols=64)[0]
        assert split_point_task(scenario, task, fan_out=1) == [task]
        weighted = small_scenario().with_trial_mode("importance")
        wtask = make_point_tasks(weighted, seed=3, backend="batch",
                                 chunk_symbols=64)[0]
        assert not fan_out_eligible(weighted, wtask)
        assert split_point_task(weighted, wtask, fan_out=8) == [wtask]

    def test_noc_points_stay_unsplit(self):
        scenario = get_scenario("noc-load-latency").with_budget(2048)
        task = make_point_tasks(scenario, seed=3, backend=scenario.backend,
                                chunk_symbols=64)[0]
        assert not fan_out_eligible(scenario, task)

    @pytest.mark.parametrize("backend,channels", [("batch", 1), ("multichannel", 4)])
    @pytest.mark.parametrize("seed_policy", ["shared", "per-point"])
    def test_shuffled_chunk_merge_is_bit_identical_to_the_unsplit_run(
        self, backend, channels, seed_policy
    ):
        scenario = small_scenario(seed_policy=seed_policy, channels=channels)
        for task in make_point_tasks(scenario, seed=11, backend=backend,
                                     chunk_symbols=64):
            unsplit = evaluate_task(task)
            chunks = split_point_task(scenario, task, fan_out=4)
            assert len(chunks) == 4
            shuffled = list(chunks)
            random.Random(task.index).shuffle(shuffled)
            parts = {}
            for position, chunk in enumerate(shuffled):
                # "Worker death" mid-run: the first chunk's first attempt is
                # discarded and the chunk re-evaluated — determinism makes
                # the requeued attempt indistinguishable.
                if position == 0:
                    evaluate_task(chunk)
                parts[chunk.start_symbol] = evaluate_task(chunk)
            merged = merge_chunk_outcomes(parts)
            assert merged.to_accumulator_mapping() == unsplit.to_accumulator_mapping()
            assert merged.detection_counts == unsplit.detection_counts

    def test_merge_refuses_an_empty_part_set(self):
        with pytest.raises(ValueError, match="no chunk outcomes"):
            merge_chunk_outcomes({})


# -- the wire (no sockets) -----------------------------------------------------
class TestWireFormats:
    def test_task_round_trips_as_plain_data(self):
        scenario = small_scenario()
        task = make_point_tasks(scenario, seed=5, backend="batch",
                                chunk_symbols=64)[1]
        rebuilt = task_from_wire(task_to_wire(task))
        assert rebuilt.live_scenario is None
        assert rebuilt.seed == task.seed and rebuilt.index == task.index
        assert rebuilt.parameters == dict(task.parameters)
        out_a = evaluate_task(task)
        out_b = evaluate_task(rebuilt)
        assert out_a.to_accumulator_mapping() == out_b.to_accumulator_mapping()

    def test_outcome_round_trips_bit_for_bit(self):
        scenario = small_scenario(channels=4)
        task = make_point_tasks(scenario, seed=5, backend="multichannel",
                                chunk_symbols=64)[0]
        outcome = evaluate_task(task)
        wired = outcome_from_wire(outcome.config, outcome_to_wire(outcome))
        assert wired.to_accumulator_mapping() == outcome.to_accumulator_mapping()
        assert wired.detection_counts == outcome.detection_counts

    def test_noc_outcome_carries_its_bus_counters(self):
        scenario = get_scenario("noc-load-latency").with_budget(2048)
        task = make_point_tasks(scenario, seed=5, backend=scenario.backend,
                                chunk_symbols=256)[0]
        outcome = evaluate_task(task)
        assert outcome.noc is not None
        wired = outcome_from_wire(outcome.config, outcome_to_wire(outcome))
        assert wired.noc == outcome.noc

    def test_address_parsing(self):
        assert parse_address("somehost:70") == ("somehost", 70)
        assert parse_addresses("a:1, b:2") == (("a", 1), ("b", 2))
        assert parse_addresses([("c", 3)]) == (("c", 3),)
        with pytest.raises(ValueError, match="host:port"):
            parse_address("no-port")
        with pytest.raises(ValueError, match="no worker addresses"):
            parse_addresses("")


# -- shared worker-count validation (satellite: typed errors) -------------------
class TestWorkerCountValidation:
    def test_process_executor_rejects_non_positive_counts(self):
        with pytest.raises(WorkerCountError, match="positive int"):
            ProcessExecutor(workers=0)
        with pytest.raises(WorkerCountError, match="positive int"):
            ProcessExecutor(workers=-2)

    def test_bools_and_non_ints_are_rejected(self):
        with pytest.raises(WorkerCountError):
            validate_worker_count(True)
        with pytest.raises(WorkerCountError):
            validate_worker_count(2.0)
        assert validate_worker_count(None) is None
        assert validate_worker_count(3) == 3

    def test_cluster_executor_rejects_a_pool_size(self):
        with pytest.raises(WorkerCountError, match="addresses"):
            ClusterExecutor(workers=4)

    def test_cluster_fan_out_shares_the_validation(self):
        with pytest.raises(WorkerCountError, match="positive int"):
            ClusterExecutor(workers="h:1", fan_out=0)

    def test_resolver_routes_by_workers_shape(self):
        assert isinstance(resolve_executor(None, workers=2), ProcessExecutor)
        cluster = resolve_executor(None, workers="127.0.0.1:1")
        assert isinstance(cluster, ClusterExecutor)
        cluster.close()
        with pytest.raises(WorkerCountError, match="pool size"):
            resolve_executor("process", workers="127.0.0.1:1")


# -- real sockets --------------------------------------------------------------
@pytest.fixture()
def fleet():
    """Two live listen-mode workers on ephemeral localhost ports."""
    workers = [ClusterWorker(listen="127.0.0.1:0", name=f"w{i}") for i in range(2)]
    addresses = [worker.start() for worker in workers]
    yield addresses
    for worker in workers:
        worker.stop()


@pytest.mark.cluster
class TestClusterExecutor:
    def test_cluster_report_is_bit_identical_to_serial(self, fleet):
        scenario = small_scenario(channels=1)
        serial = run_scenario(scenario, seed=9, chunk_symbols=64)
        with ClusterExecutor(workers=fleet, fan_out=4) as executor:
            clustered = run_scenario(scenario, seed=9, chunk_symbols=64,
                                     executor=executor)
            assert executor.stats["chunk_tasks"] > len(serial.points)
        assert clustered.to_mapping() == serial.to_mapping()

    def test_run_scenario_accepts_address_workers(self, fleet):
        scenario = small_scenario()
        addresses = ",".join(f"{host}:{port}" for host, port in fleet)
        serial = run_scenario(scenario, seed=2, chunk_symbols=64)
        clustered = run_scenario(scenario, seed=2, chunk_symbols=64,
                                 workers=addresses)
        assert clustered.to_mapping() == serial.to_mapping()

    def test_malformed_task_frames_get_task_error_and_keep_the_connection(self, fleet):
        task = task_to_wire(
            make_point_tasks(small_scenario(), seed=5, backend="batch", chunk_symbols=64)[0]
        )
        without_seed = {key: value for key, value in task.items() if key != "seed"}
        frames = [
            (1, without_seed, "seed"),
            (2, {**task, "chunk_symbols": "x"}, "chunk_symbols"),
            (3, {**task, "symbols": "x"}, "symbols"),
            # Off the grid: a value of the wrong type, the right number
            # spelled as another label (another chunk seed), a missing axis
            # and a name that is no axis.
            (4, {**task, "parameters": {"mean_detected_photons": "lots"}},
             "mean_detected_photons"),
            (5, {**task, "parameters": {"mean_detected_photons": 20}}, "mean_detected_photons"),
            (6, {**task, "parameters": {}}, "mean_detected_photons"),
            (7, {**task, "parameters": {**task["parameters"], "ppm_bits": 4}}, "ppm_bits"),
            (8, task, None),
        ]
        channel = connect(fleet[0])
        try:
            assert channel.recv(timeout=5.0)["type"] == "hello"
            channel.send({"type": "attach"})

            def next_reply():
                while True:
                    message = channel.recv(timeout=10.0)
                    if message is not None and message["type"] != "heartbeat":
                        return message

            assert next_reply()["type"] == "ready"
            for task_id, frame, field in frames:
                channel.send({"type": "task", "task_id": task_id, "task": frame, "attempt": 1})
                reply = next_reply()
                assert reply["task_id"] == task_id
                if field is None:
                    assert reply["type"] == "result"
                else:
                    assert reply["type"] == "task_error" and field in reply["message"]
                assert next_reply()["type"] == "ready"
        finally:
            channel.close()

    def test_run_scenario_closes_the_fleet_it_built(self):
        # The coordinator's sockets close because the run ends (no
        # "unclosed socket" warning when the executor is reclaimed), not
        # because garbage collection happens to reclaim the executor.
        workers = [ClusterWorker(listen="127.0.0.1:0", name=f"w{i}") for i in range(2)]
        addresses = [worker.start() for worker in workers]
        gc.disable()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                run_scenario(small_scenario(), seed=2, chunk_symbols=64, workers=addresses)
            assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
            deadline = time.monotonic() + 2.0
            while any(worker._channels for worker in workers) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(worker._channels for worker in workers)
        finally:
            gc.enable()
            for worker in workers:
                worker.stop()

    @pytest.mark.chaos
    def test_worker_death_mid_run_requeues_and_stays_bit_identical(self):
        died = threading.Event()

        class DoomedWorker(ClusterWorker):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                self.fuse = 1  # die on the first task, work normally never

            def evaluate(self, task, attempt):
                if self.fuse:
                    self.fuse -= 1
                    died.set()
                    raise WorkerDeath("simulated SIGKILL")
                return super().evaluate(task, attempt)

        class PatientWorker(ClusterWorker):
            def evaluate(self, task, attempt):
                # Hold every chunk until the doomed worker has died: idle
                # healthy workers steal, and could otherwise drain the doomed
                # worker's queue before its handshake completes.
                died.wait(timeout=30.0)
                return super().evaluate(task, attempt)

        doomed = DoomedWorker(listen="127.0.0.1:0", name="doomed")
        healthy = [PatientWorker(listen="127.0.0.1:0", name=f"patient{i}") for i in range(2)]
        address = doomed.start()
        fleet = [worker.start() for worker in healthy]
        try:
            scenario = small_scenario()
            serial = run_scenario(scenario, seed=4, chunk_symbols=64)
            retry = RetryPolicy(max_attempts=2)
            with ClusterExecutor(workers=[address, *fleet], fan_out=4,
                                 retry=retry, heartbeat_timeout=5.0) as executor:
                clustered = run_scenario(scenario, seed=4, chunk_symbols=64,
                                         executor=executor)
                assert executor.stats["tasks_requeued"] >= 1
                assert executor.stats["workers_lost"] >= 1
            assert clustered.to_mapping() == serial.to_mapping()
        finally:
            doomed.stop()
            for worker in healthy:
                worker.stop()

    @pytest.mark.chaos
    def test_retryable_worker_errors_replay_bit_identically(self, fleet):
        class FlakyWorker(ClusterWorker):
            def evaluate(self, task, attempt):
                if attempt == 1:
                    raise ValueError("transient fault")
                return super().evaluate(task, attempt)

        flaky = FlakyWorker(listen="127.0.0.1:0", name="flaky")
        address = flaky.start()
        try:
            scenario = small_scenario()
            tasks = make_point_tasks(scenario, seed=6, backend="batch",
                                     chunk_symbols=64)
            serial = dict(SerialExecutor().map_tasks(tasks))
            with ClusterExecutor(workers=[address],
                                 retry=RetryPolicy(max_attempts=2)) as executor:
                clustered = dict(executor.map_tasks(tasks))
                assert executor.stats["retries"] >= len(tasks)
            for index, outcome in serial.items():
                assert (clustered[index].to_accumulator_mapping()
                        == outcome.to_accumulator_mapping())
        finally:
            flaky.stop()

    @pytest.mark.chaos
    def test_exhausted_points_fail_fast_or_continue(self, fleet):
        class BrokenWorker(ClusterWorker):
            def evaluate(self, task, attempt):
                raise ValueError("permanent fault")

        broken = BrokenWorker(listen="127.0.0.1:0", name="broken")
        address = broken.start()
        try:
            scenario = small_scenario()
            tasks = make_point_tasks(scenario, seed=6, backend="batch",
                                     chunk_symbols=64)
            with ClusterExecutor(workers=[address]) as executor:
                with pytest.raises(ClusterTaskError, match="permanent fault") as info:
                    list(executor.map_tasks(tasks))
                assert info.value.error_type == "ValueError"
            with ClusterExecutor(workers=[address],
                                 failure_policy="continue") as executor:
                results = dict(executor.map_tasks(tasks))
            assert len(results) == len(tasks)
            for failure in results.values():
                assert isinstance(failure, PointFailure)
                assert failure.error_type == "ValueError"
        finally:
            broken.stop()

    @pytest.mark.chaos
    def test_hung_chunks_trip_the_retry_timeout(self, fleet):
        class HungWorker(ClusterWorker):
            def evaluate(self, task, attempt):
                time.sleep(5.0)
                return super().evaluate(task, attempt)

        hung = HungWorker(listen="127.0.0.1:0", name="hung",
                          heartbeat_interval=0.1)
        address = hung.start()
        try:
            scenario = small_scenario()
            tasks = make_point_tasks(scenario, seed=6, backend="batch",
                                     chunk_symbols=64)[:1]
            retry = RetryPolicy(max_attempts=1, timeout=0.4)
            with ClusterExecutor(workers=[address], retry=retry) as executor:
                started = time.monotonic()
                with pytest.raises(Exception) as info:
                    list(executor.map_tasks(tasks))
                assert time.monotonic() - started < 4.0
            assert type(info.value).__name__ in ("PointTimeoutError", "WorkerLostError")
        finally:
            hung.stop()

    def test_no_reachable_workers_is_a_typed_startup_error(self):
        scenario = small_scenario()
        tasks = make_point_tasks(scenario, seed=6, backend="batch",
                                 chunk_symbols=64)
        with ClusterExecutor(workers="127.0.0.1:9",
                             connect_timeout=0.3) as executor:
            with pytest.raises(RuntimeError, match="no cluster workers reachable"):
                list(executor.map_tasks(tasks))

    def test_probe_worker_reports_status_and_unreachable(self, fleet):
        row = probe_worker(fleet[0])
        assert row["name"] == "w0"
        assert row["state"] in ("idle", "busy")
        assert "pid" in row and "uptime" in row
        dead = probe_worker("127.0.0.1:9", timeout=0.3)
        assert dead["state"] == "unreachable"

    def test_subclassed_scenarios_refuse_the_wire(self, fleet):
        class CustomScenario(Scenario):
            pass

        scenario = CustomScenario(name="custom", bits_per_point=64)
        tasks = make_point_tasks(scenario, seed=1, backend="batch",
                                 chunk_symbols=64)
        with ClusterExecutor(workers=fleet) as executor:
            with pytest.raises(TypeError, match="cluster wire"):
                list(executor.map_tasks(tasks))


@pytest.mark.cluster
class TestFleetWideBitIdentity:
    def test_every_named_scenario_matches_serial_over_the_fleet(self, fleet):
        with ClusterExecutor(workers=fleet, fan_out=3) as executor:
            for name in named_scenarios():
                scenario = get_scenario(name).with_budget(128)
                serial = run_scenario(scenario, seed=1, chunk_symbols=64)
                clustered = run_scenario(scenario, seed=1, chunk_symbols=64,
                                         executor=executor)
                assert clustered.to_mapping() == serial.to_mapping(), name

    def test_spad_array_imager_fans_out_and_stays_identical(self, fleet):
        scenario = get_scenario("spad-array-imager").with_budget(8192)
        serial = run_scenario(scenario, seed=13, chunk_symbols=256)
        with ClusterExecutor(workers=fleet, fan_out=4) as executor:
            clustered = run_scenario(scenario, seed=13, chunk_symbols=256,
                                     executor=executor)
            assert executor.stats["max_fan_out"] > 1
        assert clustered.to_mapping() == serial.to_mapping()

    def test_adaptive_budget_waves_reuse_the_fleet(self, fleet):
        scenario = small_scenario().with_trial_mode(
            "naive", ci_target=2e-2, max_symbols=4096
        )
        serial = run_scenario(scenario, seed=21, chunk_symbols=64)
        with ClusterExecutor(workers=fleet, fan_out=2) as executor:
            clustered = run_scenario(scenario, seed=21, chunk_symbols=64,
                                     executor=executor)
        assert clustered.to_mapping() == serial.to_mapping()


# -- hostile frames ------------------------------------------------------------
class FrameSender:
    """A fake listening worker that answers its first task with a bad frame.

    ``frame`` is the raw bytes to send, or a callable of the task id giving
    them.  The sender then waits for the coordinator to hang up.
    """

    def __init__(self, frame):
        self.frame = frame
        self.sent = threading.Event()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(10.0)
        self.address = self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        try:
            conn, _ = self._listener.accept()
        except OSError:
            return
        channel = MessageChannel(conn)
        try:
            channel.send({"type": "hello", "name": "sender", "pid": 0})
            while True:
                message = channel.recv(timeout=10.0)
                if message is None:
                    return
                if message["type"] == "attach":
                    channel.send({"type": "ready"})
                elif message["type"] == "task" and not self.sent.is_set():
                    frame = self.frame
                    conn.sendall(frame(message["task_id"]) if callable(frame) else frame)
                    self.sent.set()
        except ChannelClosed:
            pass
        finally:
            channel.close()

    def close(self):
        self._listener.close()
        self._thread.join(timeout=10.0)


def _bad_result(task_id):
    frame = {"type": "result", "task_id": task_id, "outcome": {"no_such_field": 1}}
    return json.dumps(frame).encode() + b"\n"


BAD_FRAMES = {
    "garbage": b"not json at all\n",
    "json-array": b"[1, 2, 3]\n",
    "not-utf8": b"\xff\xfe{}\n",
    "result-that-does-not-rebuild": _bad_result,
    # Answers no task in flight: ignored, the sender then falls silent.
    "unhashable-task-id": b'{"type": "result", "task_id": [1], "outcome": {}}\n',
}


def _loopback_channel():
    """A raw writer socket and a :class:`MessageChannel` reading from it over TCP."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        writer = socket.create_connection(listener.getsockname()[:2])
        conn, _ = listener.accept()
    return writer, MessageChannel(conn)


def _until_closed(channel):
    """Read a channel until it closes, skipping heartbeats; fail on silence."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        message = channel.recv(timeout=10.0)
        assert message is None or message["type"] in ("hello", "ready", "heartbeat")


@pytest.mark.cluster
class TestHostileFrames:
    @pytest.mark.chaos
    @pytest.mark.parametrize("frame", list(BAD_FRAMES.values()), ids=list(BAD_FRAMES))
    def test_a_bad_frame_costs_the_worker_and_the_run_completes(self, frame):
        sender = FrameSender(frame)

        class PatientWorker(ClusterWorker):
            def evaluate(self, task, attempt):
                # Busy until the sender has answered, so it cannot steal the
                # sender's queue before its first task goes out.
                sender.sent.wait(timeout=30.0)
                return super().evaluate(task, attempt)

        patient = PatientWorker(listen="127.0.0.1:0", name="patient", heartbeat_interval=0.2)
        address = patient.start()
        try:
            scenario = small_scenario()
            serial = run_scenario(scenario, seed=4, chunk_symbols=64)
            with ClusterExecutor(workers=[sender.address, address], fan_out=4,
                                 retry=RetryPolicy(max_attempts=3),
                                 heartbeat_timeout=2.0) as executor:
                clustered = run_scenario(scenario, seed=4, chunk_symbols=64,
                                         executor=executor)
                assert sender.sent.is_set()
                assert executor.stats["workers_lost"] == 1
                assert executor.stats["retries"] == 1
            assert clustered.to_mapping() == serial.to_mapping()
        finally:
            patient.stop()
            sender.close()

    @pytest.mark.chaos
    @pytest.mark.parametrize("frame", list(BAD_FRAMES.values()), ids=list(BAD_FRAMES))
    def test_with_no_attempt_left_a_bad_frame_is_a_lost_worker(self, frame):
        sender = FrameSender(frame)
        tasks = make_point_tasks(small_scenario(), seed=6, backend="batch", chunk_symbols=64)
        try:
            with ClusterExecutor(workers=[sender.address], heartbeat_timeout=2.0) as executor:
                with pytest.raises(WorkerLostError,
                                   match="JSON object|does not rebuild|heartbeating"):
                    list(executor.map_tasks(tasks))
        finally:
            sender.close()

    @pytest.mark.parametrize(
        "line", [b"not json\n", b"[1, 2]\n", b"\xff\n", b"7\n", b"[" * 100_000 + b"\n"],
        ids=["garbage", "json-array", "not-utf8", "json-scalar", "deep-nesting"],
    )
    def test_a_bad_line_closes_only_its_connection(self, monkeypatch, line):
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        worker = ClusterWorker(listen="127.0.0.1:0", name="w")
        address = worker.start()
        channels = [connect(address) for _ in range(3)]
        healthy, opening, attached = channels
        try:
            for channel in (healthy, attached):
                assert channel.recv(timeout=5.0)["type"] == "hello"
                channel.send({"type": "attach"})
            opening._sock.sendall(line)  # the connection's first message
            attached._sock.sendall(line)  # a message of the task loop
            for channel in (opening, attached):
                with pytest.raises(ChannelClosed):
                    _until_closed(channel)
            task = make_point_tasks(small_scenario(), seed=5, backend="batch",
                                    chunk_symbols=64)[0]
            healthy.send({"type": "task", "task_id": 1, "task": task_to_wire(task)})
            while (reply := healthy.recv(timeout=10.0))["type"] != "result":
                assert reply["type"] in ("ready", "heartbeat")
            deadline = time.monotonic() + 5.0
            while len(worker._channels) > 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert len(worker._channels) == 1
        finally:
            for channel in channels:
                channel.close()
            worker.stop()
        assert hooked == []

    def test_an_overlong_framed_line_closes_the_channel(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", 1024)
        at_cap = json.dumps({"type": "x", "pad": "y" * 1000}).encode()
        at_cap = at_cap.replace(b'"y', b'"' + b"y" * (1024 - len(at_cap)) + b"y")
        assert len(at_cap) == 1024
        writer, reader = _loopback_channel()
        try:
            writer.sendall(at_cap + b"\n")
            assert reader.recv(timeout=5.0)["type"] == "x"
            overlong = json.dumps({"type": "x", "pad": "y" * 5000}).encode()
            writer.sendall(overlong + b"\n")
            with pytest.raises(ChannelClosed, match="overlong"):
                reader.recv(timeout=5.0)
        finally:
            writer.close()
            reader.close()

    def test_start_on_an_occupied_port_raises_at_once(self, monkeypatch):
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        with socket.create_server(("127.0.0.1", 0)) as blocker:
            worker = ClusterWorker(listen=blocker.getsockname()[:2], name="late")
            started = time.monotonic()
            with pytest.raises(OSError):
                worker.start()
            assert time.monotonic() - started < 2.0
            worker._thread.join(timeout=5.0)
        assert hooked == []


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=6,
)
_ENCODED = _JSON_VALUES.map(lambda value: json.dumps(value).encode())
#: One line's bytes: garbage, JSON (objects, arrays, scalars), truncated JSON,
#: and runs past the small cap the property patches in.
_LINES = st.one_of(
    st.binary(max_size=40),
    _ENCODED,
    st.tuples(_ENCODED, st.integers(0, 30)).map(lambda pair: pair[0][: pair[1]]),
    st.binary(min_size=200, max_size=400),
)
_CAP = 256


def _expected_messages(data):
    """The messages a channel must yield from ``data``, and whether it may
    yield them all (no frame in it closes the channel)."""
    messages = []
    for line in data.split(b"\n")[:-1]:
        if len(line) > _CAP:
            return messages, False
        if not line.strip():
            continue
        try:
            message = json.loads(line.decode("utf-8"))
        except ValueError:
            return messages, False
        if not isinstance(message, dict):
            return messages, False
        messages.append(message)
    return messages, len(data.rsplit(b"\n", 1)[-1]) <= _CAP


@pytest.mark.cluster
@settings(max_examples=150, deadline=None)
@given(lines=st.lists(st.tuples(_LINES, st.booleans()), max_size=8), pump=st.booleans())
def test_a_channel_yields_json_objects_or_closes(lines, pump):
    # Framed or not, whatever the peer sends, each read yields dict
    # messages or raises ChannelClosed, and nothing else.
    data = b"".join(line + (b"\n" if framed else b"") for line, framed in lines)
    received = []
    writer, reader = _loopback_channel()
    try:
        writer.sendall(data)
        writer.shutdown(socket.SHUT_WR)
        with mock.patch.object(protocol, "MAX_MESSAGE_BYTES", _CAP):
            with pytest.raises(ChannelClosed):
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if pump:
                        select.select([reader], [], [], 1.0)
                        received += reader.pump()
                    else:
                        message = reader.recv(timeout=1.0)
                        if message is not None:
                            received.append(message)
    finally:
        writer.close()
        reader.close()
    assert all(isinstance(message, dict) for message in received)
    expected, complete = _expected_messages(data)
    assert json.dumps(received) == json.dumps(expected[: len(received)])
    if complete:
        assert len(received) == len(expected)
