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
import socket
import threading

import pytest

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
