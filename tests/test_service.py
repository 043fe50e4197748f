"""Tier-1 tests of the experiment service (``repro serve``).

The contracts under test, in the order the subsystem sells them:

* **bit-identity** — the report served over HTTP equals ``repro run`` /
  :func:`repro.scenarios.run_scenario` for the same scenario/backend/seed,
  mapping for mapping;
* **in-flight dedupe** — two concurrent identical run requests execute the
  simulation exactly once (asserted on ``RunRegistry.executions``);
* **digest cache hits** — a repeated completed request is served straight
  from the :class:`~repro.scenarios.store.ReportStore` without re-running,
  including across a service restart (the run index lives on disk);
* **SSE fan-out** — every point of a run streams to ≥ 2 simultaneous
  subscribers, terminated by exactly one final ``report`` event, and late
  subscribers replay the same stream;
* **shared formats** — ``GET /scenarios`` is byte-for-byte ``repro list
  --json``; artefact reports match ``repro show --json``;
* **typed failure** — binding an occupied port raises
  :class:`~repro.service.ServiceBindError` (CLI exit 4).

The server under test is real: bound to an ephemeral localhost port, spoken
to through :class:`~repro.service.ServiceClient` over actual sockets.
"""

import json
import logging
import select
import shutil
import socket
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import frontdoor, run_scenario
from repro.cli import EXIT_PORT_BIND, main as cli_main
from repro.scenarios import ReportStore, get_scenario
from repro.service import (
    ExperimentService,
    ServiceBindError,
    ServiceClient,
    ServiceError,
    serve_app,
)
from repro.service import app as app_module

#: Small but real: 6 grid points of the BER waterfall.
SCENARIO = "ber-vs-photons"
BITS = 128


@pytest.fixture()
def service(tmp_path):
    instance = serve_app(port=0, store=tmp_path / "store", block=False)
    yield instance
    instance.shutdown()


@pytest.fixture()
def client(service):
    return ServiceClient(port=service.port)


class TestSharedFormats:
    def test_scenarios_endpoint_is_the_cli_catalogue(self, client, capsys):
        assert cli_main(["list", "--json"]) == 0
        cli_catalogue = json.loads(capsys.readouterr().out)
        assert client.scenarios() == cli_catalogue == frontdoor.scenario_catalogue()

    def test_artifact_report_is_the_show_json_mapping(self, service, client, capsys):
        report = client.run_and_wait(SCENARIO, seed=5, bits=BITS)
        (artifact,) = client.artifacts()
        assert cli_main(
            ["show", artifact, "--store", str(service.store.root), "--json"]
        ) == 0
        assert client.report(artifact) == json.loads(capsys.readouterr().out) == report

    def test_probe_endpoint_matches_cli_probe(self, service, client, capsys):
        http_probe = client.probe(SCENARIO, seed=5, bits=BITS)
        code = cli_main(
            ["probe", SCENARIO, "--seed", "5", "--bits", str(BITS),
             "--store", str(service.store.root), "--json"]
        )
        cli_probe = json.loads(capsys.readouterr().out)
        assert http_probe == cli_probe
        assert http_probe["state"] == "pending" and code == 4


class TestRunLifecycle:
    def test_served_report_is_bit_identical_to_a_direct_run(self, client):
        served = client.run_and_wait(SCENARIO, seed=3, bits=BITS)
        direct = run_scenario(get_scenario(SCENARIO).with_budget(BITS), seed=3)
        assert served == direct.to_mapping()

    def test_submit_then_status_then_artifact(self, service, client):
        status = client.submit_run(SCENARIO, seed=3, bits=BITS)
        assert status["status"] == "started"
        assert status["scenario"] == SCENARIO
        assert status["backend"] == "batch"
        assert status["points"] == 6
        # Drain to completion via the event stream, then re-read the status.
        events = list(client.events(status["run"]))
        final = client.run(status["run"])
        assert final["state"] == "done"
        assert final["points_done"] == 6
        assert final["artifact"] in client.artifacts()
        assert any(run["run"] == status["run"] for run in client.runs())
        # The artefact on disk verifies and carries the same report.
        envelope = client.artifact(final["artifact"])
        assert envelope["report"] == events[-1][1]["report"]

    def test_scenario_mapping_body_runs_unregistered_scenarios(self, client):
        mapping = {
            "name": "custom-over-http",
            "link_overrides": {"ppm_bits": 4, "mean_detected_photons": 40.0},
            "sweep_axes": {"spad_dead_time": [16e-9, 48e-9]},
            "metrics": ["ber"],
            "bits_per_point": BITS,
        }
        report = client.run_and_wait(mapping)
        assert report["scenario"]["name"] == "custom-over-http"
        assert len(report["points"]) == 2

    def test_stats_counts_runs_and_artifacts(self, service, client):
        from repro.kernels import available_kernels

        assert client.stats() == {
            "executions": 0,
            "runs": 0,
            "running": 0,
            "artifacts": 0,
            "executor": {"name": "serial"},
            "kernels": list(available_kernels()),
        }
        client.run_and_wait(SCENARIO, seed=3, bits=BITS)
        stats = client.stats()
        assert stats["executions"] == 1 and stats["artifacts"] == 1
        # Serial runs still surface their executor telemetry on /stats.
        assert stats["executor"]["name"] == "serial"
        assert stats["executor"]["failures"] == 0

    def test_stats_counts_artifacts_another_store_wrote(self, service, client):
        # /stats rescans the store, so a CLI run (another process, another
        # ReportStore on the same root) shows up on the next request.
        before = client.stats()["artifacts"]
        other = ReportStore(service.store.root)
        other.save(run_scenario(get_scenario(SCENARIO).with_budget(BITS), seed=4))
        assert client.stats()["artifacts"] == before + 1


class TestDedupe:
    def test_repeated_completed_request_is_a_cache_hit(self, service, client):
        first = client.run_and_wait(SCENARIO, seed=3, bits=BITS)
        again = client.submit_run(SCENARIO, seed=3, bits=BITS)
        assert again["status"] == "cached"
        assert again["state"] == "done"
        assert service.registry.executions == 1
        # The cached stream still replays every point plus the report.
        events = list(client.events(again["run"]))
        assert [event for event, _ in events] == ["point"] * 6 + ["report"]
        assert events[-1][1]["report"] == first

    def test_concurrent_identical_requests_execute_once(self, service, client):
        # A heavier budget keeps the first request in flight while the
        # second arrives; the executions counter is the ground truth either
        # way (a lost race shows up as "cached", never as a second run).
        bits = 16_384
        statuses, reports = [], []

        def submit_and_wait():
            status = client.submit_run(SCENARIO, seed=11, bits=bits)
            statuses.append(status["status"])
            for event, data in client.events(status["run"]):
                if event == "report":
                    reports.append(data["report"])

        threads = [threading.Thread(target=submit_and_wait) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert service.registry.executions == 1
        assert sorted(statuses) != ["started", "started"]
        assert len(reports) == 2 and reports[0] == reports[1]

    def test_cache_survives_a_service_restart(self, service, client, tmp_path):
        client.run_and_wait(SCENARIO, seed=3, bits=BITS)
        service.shutdown()
        reborn = serve_app(port=0, store=service.store.root, block=False)
        try:
            status = ServiceClient(port=reborn.port).submit_run(SCENARIO, seed=3, bits=BITS)
            assert status["status"] == "cached"
            assert reborn.registry.executions == 0
        finally:
            reborn.shutdown()

    def test_cli_run_is_a_service_cache_hit_and_vice_versa(self, service, client, capsys):
        # Shell and daemon share one store *and* one cache-key policy.
        store = str(service.store.root)
        assert cli_main(["run", SCENARIO, "--bits", str(BITS), "--seed", "8",
                         "--quiet", "--store", store]) == 0
        capsys.readouterr()
        status = client.submit_run(SCENARIO, seed=8, bits=BITS)
        assert status["status"] == "cached"
        assert service.registry.executions == 0
        # And a served run probes as a hit from the shell.
        client.run_and_wait(SCENARIO, seed=9, bits=BITS)
        assert cli_main(["probe", SCENARIO, "--seed", "9", "--bits", str(BITS),
                         "--store", store]) == 0

    def test_served_run_writes_no_checkpoint(self, service, client):
        client.run_and_wait(SCENARIO, seed=3, bits=BITS)
        checkpoints = service.store.root / "checkpoints"
        assert not checkpoints.exists() or not any(checkpoints.iterdir())

    def test_served_run_leaves_a_cli_checkpoint_alone(self, service, client):
        # A CLI run of the same request may be journalling it right now.
        request = frontdoor.RunRequest.build(SCENARIO, seed=3, bits=BITS)
        checkpoint = service.store.run_checkpoint(
            request.scenario.to_mapping(), request.backend, 3, request.chunk_symbols
        )
        checkpoint.append_partial(0, {"rounds": 1})
        client.run_and_wait(SCENARIO, seed=3, bits=BITS)
        assert checkpoint.load_partials() == {0: {"rounds": 1}}

    def test_different_inputs_do_not_dedupe(self, service, client):
        client.run_and_wait(SCENARIO, seed=3, bits=BITS)
        other = client.submit_run(SCENARIO, seed=4, bits=BITS)
        assert other["status"] == "started"
        list(client.events(other["run"]))
        assert service.registry.executions == 2


class TestEventStream:
    def test_two_simultaneous_subscribers_see_every_point(self, client):
        status = client.submit_run(SCENARIO, seed=21, bits=4_096)
        streams = {}

        def subscribe(label):
            streams[label] = list(client.events(status["run"]))

        threads = [
            threading.Thread(target=subscribe, args=(label,)) for label in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert set(streams) == {"a", "b"}
        for events in streams.values():
            kinds = [event for event, _ in events]
            assert kinds == ["point"] * 6 + ["report"]
            indices = sorted(data["index"] for event, data in events if event == "point")
            assert indices == list(range(6))
            assert all(data["total"] == 6 for event, data in events if event == "point")
        # Both subscribers saw the identical stream, frame for frame.
        assert streams["a"] == streams["b"]

    def test_late_subscriber_replays_the_finished_stream(self, client):
        report = client.run_and_wait(SCENARIO, seed=22, bits=BITS)
        run_key = client.submit_run(SCENARIO, seed=22, bits=BITS)["run"]
        events = list(client.events(run_key))
        assert [event for event, _ in events] == ["point"] * 6 + ["report"]
        assert events[-1][1]["report"] == report

    def test_point_events_carry_the_point_mappings(self, client):
        status = client.submit_run(SCENARIO, seed=23, bits=BITS)
        events = list(client.events(status["run"]))
        report = events[-1][1]["report"]
        streamed = {data["index"]: data["point"] for event, data in events if event == "point"}
        assert list(streamed) and len(streamed) == len(report["points"])
        for index, point in streamed.items():
            assert point == report["points"][index]


class TestRetiredScalarBackend:
    """A stored ``scalar`` artefact still serves; a ``scalar`` run is a 400."""

    LEGACY = Path(__file__).resolve().parent / "legacy_artifacts"

    @pytest.fixture()
    def legacy_service(self, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        for artifact in self.LEGACY.glob("*.json"):
            shutil.copy(artifact, store)
        instance = serve_app(port=0, store=store, block=False)
        yield instance
        instance.shutdown()

    def test_a_stored_scalar_artefact_is_listed_and_served(self, legacy_service):
        client = ServiceClient(port=legacy_service.port)
        keys = sorted(path.stem for path in self.LEGACY.glob("*.json"))
        assert client.artifacts() == keys
        assert client.report(keys[0])["backend"] == "scalar"

    def test_a_scalar_run_field_is_a_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit_run(SCENARIO, backend="scalar", bits=BITS)
        assert excinfo.value.status == 400
        assert "unknown link backend 'scalar'" in str(excinfo.value)


class TestErrors:
    def test_unknown_scenario_is_a_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit_run("no-such-scenario", bits=BITS)
        assert excinfo.value.status == 400
        assert "unknown scenario" in str(excinfo.value)

    def test_unknown_run_and_artifact_are_404(self, client):
        for call in (lambda: client.run("feedbeefcafe"),
                     lambda: list(client.events("feedbeefcafe")),
                     lambda: client.artifact("missing")):
            with pytest.raises(ServiceError) as excinfo:
                call()
            assert excinfo.value.status == 404

    def test_unknown_route_404_and_wrong_method_405(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/no/such/route")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/scenarios")
        assert excinfo.value.status == 405

    def test_malformed_body_and_missing_compare_params_are_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/runs", body={"scenario": SCENARIO, "bogus": 1})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/compare?a=x")
        assert excinfo.value.status == 400

    def test_a_kernel_field_is_a_400_naming_it(self, client):
        # The server's $REPRO_KERNEL picks the kernel; a request cannot.
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/runs", body={"scenario": SCENARIO, "kernel": "cext"})
        assert excinfo.value.status == 400
        assert "unknown run field(s): kernel" in str(excinfo.value)
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", f"/probe?scenario={SCENARIO}&kernel=cext")
        assert excinfo.value.status == 400
        assert "unknown run field(s): kernel" in str(excinfo.value)

    @pytest.mark.parametrize(
        "field, value", [("bits", True), ("bits", float("nan")), ("chunk_symbols", True)]
    )
    def test_non_int_budget_is_a_400(self, client, field, value):
        # All three used to be accepted; the bits ran a 1-symbol budget.
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/runs", body={"scenario": SCENARIO, field: value})
        assert excinfo.value.status == 400
        assert "must be a positive int" in str(excinfo.value)

    @pytest.mark.parametrize("value", [True, float("inf")], ids=["bool", "inf"])
    def test_non_finite_or_bool_ci_target_is_a_400(self, client, value):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/runs", body={"scenario": SCENARIO, "ci_target": value})
        assert excinfo.value.status == 400
        assert "ci_target must be a positive finite number" in str(excinfo.value)

    def test_keys_resolve_inside_the_store_only(self, service, client, tmp_path,
                                                monkeypatch, capsys, caplog):
        # A key used to be tried as a path from the server's working
        # directory first: a JSON file there answered 409, not 404, and a
        # name too long for the file system dropped the connection.
        outside = tmp_path / "cwd"
        outside.mkdir()
        (outside / "BENCHMARK.json").write_text('{"workloads": []}')
        (outside / "setup.py").write_text("print('hello')\n")
        monkeypatch.chdir(outside)
        caplog.set_level(logging.ERROR, logger="asyncio")
        client.run_and_wait(SCENARIO, seed=5, bits=BITS)
        (artifact,) = client.artifacts()
        for key in ("BENCHMARK.json", "BENCHMARK", "setup.py", "../cwd/BENCHMARK.json",
                    str(outside / "BENCHMARK.json"), "a" * 300):
            for call in (lambda: client.artifact(key),
                         lambda: client.compare(key, artifact, "ber"),
                         lambda: client.compare(artifact, key, "ber")):
                with pytest.raises(ServiceError) as excinfo:
                    call()
                assert excinfo.value.status == 404, key
        assert client.compare(artifact, artifact, "ber")["points"]
        assert _unhandled(caplog) == []
        # The shell still takes a path.
        store = service.store.root
        assert cli_main(["show", str(store / f"{artifact}.json"), "--store", "elsewhere"]) == 0
        assert "ber-vs-photons" in capsys.readouterr().out

    @pytest.mark.parametrize("damage", ["invalid-utf8", "nested-too-deep"])
    def test_a_damaged_artifact_is_a_409(self, service, client, caplog, damage):
        caplog.set_level(logging.ERROR, logger="asyncio")
        client.run_and_wait(SCENARIO, seed=5, bits=BITS)
        (artifact,) = client.artifacts()
        path = service.store.root / f"{artifact}.json"
        text = path.read_bytes()
        if damage == "invalid-utf8":
            path.write_bytes(text.replace(b'"format"', b'"form\xffat"', 1))
        else:
            path.write_bytes(b"[" * 100_000 + text)
        for call in (lambda: client.artifact(artifact),
                     lambda: client.compare(artifact, artifact, "ber")):
            with pytest.raises(ServiceError) as excinfo:
                call()
            assert excinfo.value.status == 409
        assert _unhandled(caplog) == []

    def test_an_oversized_body_gets_its_413_while_still_sending(self, client, caplog):
        # The server used to close with the body unread, so a client still
        # sending got a reset (BrokenPipeError) instead of the answer.
        caplog.set_level(logging.ERROR, logger="asyncio")
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/runs", body={"scenario": "x" * 9_000_000})
        assert excinfo.value.status == 413
        assert client.stats()["runs"] == 0
        assert _unhandled(caplog) == []

    def test_bind_failure_is_typed_and_maps_to_exit_4(self, tmp_path, capsys):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            with pytest.raises(ServiceBindError):
                ExperimentService(store=tmp_path).serve_forever("127.0.0.1", port)
            code = cli_main(["serve", "--port", str(port), "--store", str(tmp_path)])
            assert code == EXIT_PORT_BIND == 4
            assert "cannot bind" in capsys.readouterr().err
        finally:
            blocker.close()


def _raw_exchange(port, data):
    """Send ``data`` as the whole request, then read until the server closes.

    The write half is shut after ``data``, so a head without its blank line
    or a body shorter than its ``Content-Length`` ends at the client's EOF
    instead of the request deadline.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=30.0) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        try:
            while chunk := sock.recv(1 << 16):
                reply += chunk
        except ConnectionResetError:
            pass  # closed with part of an over-long head unread: the reply came first
    return reply


def _status_and_payload(reply):
    head, _, body = reply.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
    version, status, _reason = status_line.split(" ", 2)
    assert version == "HTTP/1.1"
    return int(status), json.loads(body)


def _unhandled(caplog):
    return [record.getMessage() for record in caplog.records
            if record.name == "asyncio" and record.levelno >= logging.ERROR]


#: Request heads (and bodies) the server must answer before routing.
MALFORMED_REQUESTS = {
    "length-not-a-number": (b"POST /runs HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
    "negative-length": (b"POST /runs HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
    "header-line-over-64-kib": (
        b"GET /stats HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n", 431),
    "request-line-over-64-kib": (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 431),
    "head-over-64-kib-in-short-lines": (
        b"GET /stats HTTP/1.1\r\n" + b"X-Pad: aaaaaaaaaa\r\n" * 4_000 + b"\r\n", 431),
    "body-not-utf8": (b"POST /runs HTTP/1.1\r\nContent-Length: 3\r\n\r\n\xff\xfe{", 400),
    "body-nested-too-deep": (
        b"POST /runs HTTP/1.1\r\nContent-Length: 100000\r\n\r\n" + b"[" * 100_000, 400),
}


class TestMalformedRequests:
    @pytest.mark.parametrize("request_bytes, status", list(MALFORMED_REQUESTS.values()),
                             ids=list(MALFORMED_REQUESTS))
    def test_each_gets_its_status_and_the_next_request_is_served(
        self, service, client, caplog, request_bytes, status
    ):
        caplog.set_level(logging.ERROR, logger="asyncio")
        answered, payload = _status_and_payload(_raw_exchange(service.port, request_bytes))
        assert answered == status
        assert isinstance(payload["error"], str) and payload["error"]
        assert client.stats()["runs"] == 0
        assert _unhandled(caplog) == []

    def test_one_deadline_covers_the_whole_head(self, service, monkeypatch, caplog):
        # A client trickling header lines used to get a fresh deadline per
        # line, so it could hold the connection forever; now the head and
        # the body share one deadline.
        caplog.set_level(logging.ERROR, logger="asyncio")
        monkeypatch.setattr(app_module, "REQUEST_TIMEOUT", 0.5)
        with socket.create_connection(("127.0.0.1", service.port), timeout=10.0) as sock:
            sock.sendall(b"GET /stats HTTP/1.1\r\n")
            started = time.monotonic()
            while time.monotonic() - started < 10.0:
                if select.select([sock], [], [], 0.1)[0]:
                    break
                try:
                    sock.sendall(b"X-Trickle: 1\r\n")
                except OSError:
                    break
            answered_after = time.monotonic() - started
            reply = b""
            try:
                while chunk := sock.recv(1 << 16):
                    reply += chunk
            except ConnectionResetError:
                pass
        assert answered_after < 3.0
        assert _status_and_payload(reply)[0] == 408
        assert _unhandled(caplog) == []


_REQUEST_LINES = st.sampled_from([
    b"GET /stats HTTP/1.1", b"GET /scenarios HTTP/1.1", b"POST /runs HTTP/1.1",
    b"GET /runs/abc HTTP/1.1", b"GET /runs/abc/events HTTP/1.1",
    b"GET /artifacts/%00 HTTP/1.1", b"GET /compare?a=x&b=y&metric=ber HTTP/1.1",
    b"GET /probe?scenario=no-such HTTP/1.1", b"DELETE /stats HTTP/1.1", b"GET HTTP/1.1",
])
_HEADER_LINES = st.one_of(
    st.binary(max_size=40),
    st.binary(max_size=8).map(lambda value: b"Content-Length: " + value),
    st.integers(-5, 40).map(lambda value: b"Content-Length: %d" % value),
    st.sampled_from([b"Host: x", b": empty name", b"No-Colon", b"X-Tab:\tvalue"]),
)
_HEADS = st.tuples(
    st.one_of(_REQUEST_LINES, st.binary(max_size=40)),
    st.lists(_HEADER_LINES, max_size=5),
    st.sampled_from([b"\r\n", b"\n"]),
    st.booleans(),
    st.binary(max_size=40),
).map(lambda parts: parts[2].join([parts[0], *parts[1]])
      + (parts[2] * 2 if parts[3] else b"") + parts[4])


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(request_bytes=_HEADS)
def test_any_head_gets_a_response_or_a_clean_close(service, caplog, request_bytes):
    # The server stays up across every example: nothing a client sends may
    # end in a traceback or leave the next client unserved.
    caplog.set_level(logging.ERROR, logger="asyncio")
    reply = _raw_exchange(service.port, request_bytes)
    if reply:
        status, payload = _status_and_payload(reply)
        assert 200 <= status < 600
        if status >= 400:
            assert isinstance(payload["error"], str)
    assert _unhandled(caplog) == []
    assert _status_and_payload(_raw_exchange(service.port, b"GET /stats HTTP/1.1\r\n\r\n"))[0] == 200
