"""Tier-1 CLI tests: the ``python -m repro`` front door stays drivable.

Most tests call :func:`repro.cli.main` in-process (fast, assertable); one
smoke test runs the real ``python -m repro`` subprocess end to end and checks
that it exits 0 and leaves a loadable artefact behind — the contract the
README quickstart sells.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import EXIT_CORRUPT_ARTIFACT, main
from repro.scenarios import ExperimentRunner, ReportStore, get_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
SCRIPTS = REPO_ROOT / "scripts"


def run_cli(*argv):
    return main(list(argv))


class TestList:
    def test_lists_every_named_scenario(self, capsys):
        assert run_cli("list") == 0
        out = capsys.readouterr().out
        for name in ("ber-vs-photons", "design-space-grid", "spad-array-imager"):
            assert name in out

    def test_json_catalogue(self, capsys):
        assert run_cli("list", "--json") == 0
        catalogue = json.loads(capsys.readouterr().out)
        entry = {item["name"]: item for item in catalogue}["design-space-grid"]
        assert entry["points"] == 9
        assert entry["backend"] == "batch"


class TestRun:
    def test_run_streams_progress_and_stores_artifact(self, capsys, tmp_path):
        store_dir = tmp_path / "artifacts"
        code = run_cli(
            "run", "ber-vs-photons", "--bits", "256", "--seed", "3",
            "--store", str(store_dir),
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "scenario 'ber-vs-photons'" in captured.out
        assert "[6/6]" in captured.err
        assert "artefact:" in captured.err
        store = ReportStore(store_dir)
        (artifact,) = store.list()
        loaded = store.load(artifact)
        # The artefact is exactly the API run with the same inputs.
        expected = ExperimentRunner(
            get_scenario("ber-vs-photons").with_budget(256), seed=3
        ).run()
        assert loaded.to_mapping() == expected.to_mapping()

    def test_json_output_is_the_report_mapping(self, capsys, tmp_path):
        code = run_cli(
            "run", "ber-vs-photons", "--bits", "256", "--quiet", "--json",
            "--no-store", "--store", str(tmp_path),
        )
        assert code == 0
        mapping = json.loads(capsys.readouterr().out)
        assert mapping["scenario"]["name"] == "ber-vs-photons"
        assert len(mapping["points"]) == 6
        assert list(tmp_path.glob("*.json")) == []  # --no-store honoured

    def test_process_executor_matches_serial_run(self, capsys, tmp_path):
        common = ("run", "design-space-grid", "--bits", "128", "--quiet", "--json", "--no-store")
        assert run_cli(*common) == 0
        serial = json.loads(capsys.readouterr().out)
        assert run_cli(*common, "--executor", "process", "--workers", "2") == 0
        process = json.loads(capsys.readouterr().out)
        assert serial == process

    def test_run_file_executes_an_unregistered_scenario(self, capsys, tmp_path):
        mapping = {
            "name": "custom-from-file",
            "description": "scenario mapping straight from disk",
            "link_overrides": {"ppm_bits": 4, "mean_detected_photons": 40.0},
            "sweep_axes": {"spad_dead_time": [16e-9, 48e-9]},
            "metrics": ["ber", "detection_rate"],
            "bits_per_point": 128,
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(mapping))
        store_dir = tmp_path / "store"
        assert run_cli("run", "--file", str(path), "--store", str(store_dir), "--quiet") == 0
        assert "custom-from-file" in capsys.readouterr().out
        (artifact,) = ReportStore(store_dir).list()
        assert artifact.startswith("custom-from-file__batch__seed0__")

    def test_run_file_accepts_a_stored_artifact(self, capsys, tmp_path):
        # An earlier run's artefact is itself a runnable scenario file.
        store_dir = tmp_path / "store"
        assert run_cli(
            "run", "ber-vs-photons", "--bits", "128", "--store", str(store_dir), "--quiet"
        ) == 0
        store = ReportStore(store_dir)
        artifact_path = store_dir / f"{store.list()[0]}.json"
        capsys.readouterr()
        assert run_cli("run", "--file", str(artifact_path), "--no-store", "--quiet") == 0
        assert "ber-vs-photons" in capsys.readouterr().out

    def test_run_requires_exactly_one_source(self, capsys, tmp_path):
        assert run_cli("run") == 1
        assert "exactly one" in capsys.readouterr().err
        path = tmp_path / "s.json"
        path.write_text("{}")
        assert run_cli("run", "ber-vs-photons", "--file", str(path)) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_run_file_rejects_bad_json_and_bad_mappings(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli("run", "--file", str(path)) == 1
        assert "not valid JSON" in capsys.readouterr().err
        path.write_text(json.dumps({"name": "x", "metrics": ["no-such-metric"]}))
        assert run_cli("run", "--file", str(path)) == 1
        assert "unknown metric" in capsys.readouterr().err
        # Unreadable files: one error line naming the path, never an errno,
        # a codec name or a traceback.
        undecodable = tmp_path / "latin1.json"
        undecodable.write_bytes(b'{"name": "caf\xe9"}')
        for bad in (tmp_path / "missing.json", tmp_path, undecodable):
            assert run_cli("run", "--file", str(bad)) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert repr(str(bad)) in err

    def test_run_store_that_is_a_file_is_one_line_error(self, capsys, tmp_path):
        regular = tmp_path / "not-a-directory"
        regular.write_text("")
        for store in (regular, regular / "sub"):
            assert run_cli("run", "ber-vs-photons", "--bits", "64", "--quiet",
                           "--store", str(store)) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert str(store) in err and "Not a directory" in err

    @pytest.mark.parametrize(
        "mapping",
        [
            {"bits_per_point": True},
            {"bits_per_point": 64.5},
            {"bits_per_point": "64"},
            {"sweep_axes": {"mean_detected_photons": [float("nan")]}},
            {"link_overrides": {"slot_duration": "1e-9"}},
            {"ci_target": True},
            {"ci_target": float("inf")},
        ],
    )
    def test_run_file_hostile_values_are_one_line_errors(self, capsys, tmp_path, mapping):
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps({"name": "x", "metrics": ["ber"], **mapping}))
        assert run_cli("run", "--file", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "mapping",
        [
            {"sweep_axes": None},
            {"link_overrides": None},
            {"metrics": None},
            {"metrics": 5},
            {"metrics": ["ber", 1]},
            {"sweep_axes": {"mean_detected_photons": None}},
            {"sweep_axes": "x"},
        ],
    )
    def test_run_file_malformed_containers_are_one_line_errors(self, capsys, tmp_path, mapping):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({"name": "x", "metrics": ["ber"], **mapping}))
        assert run_cli("run", "--file", str(path), "--no-store") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert next(iter(mapping)).split("_")[0] in err  # it names the field

    def test_run_file_with_a_nan_load_exits_1_and_stores_nothing(self, capsys, tmp_path):
        # It used to exit 0 and store a point of 0 bits with NaN metrics.
        path = tmp_path / "nan-load.json"
        path.write_text(json.dumps({
            "name": "nan-load",
            "metrics": ["delivery_ratio", "mean_latency"],
            "link_overrides": {"noc_offered_load": float("nan")},
        }))
        store = tmp_path / "store"
        assert run_cli("run", "--file", str(path), "--store", str(store), "--quiet") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "noc_offered_load" in err, err
        assert not store.exists() or not any(p.is_file() for p in store.rglob("*"))

    def test_cluster_executor_without_workers_is_a_one_line_error(self, capsys):
        assert run_cli("run", "ber-vs-photons", "--bits", "64", "--no-store",
                       "--executor", "cluster") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "workers" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "probe"])
    def test_kernel_flag_is_a_usage_error(self, capsys, command):
        # $REPRO_KERNEL is the one kernel selector; no flag pins one.
        with pytest.raises(SystemExit) as info:
            run_cli(command, "ber-vs-photons", "--kernel", "cext")
        assert info.value.code == 2
        assert "--kernel" in capsys.readouterr().err

    def test_scenario_file_naming_a_kernel_exits_1(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        mapping = dict(get_scenario("ber-vs-photons").to_mapping(), kernel="cext")
        path.write_text(json.dumps(mapping))
        assert run_cli("run", "--file", str(path), "--no-store", "--quiet") == 1
        assert "unknown scenario key(s): kernel" in capsys.readouterr().err

    def test_worker_without_listen_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("worker")
        assert info.value.code == 2
        assert "--listen" in capsys.readouterr().err

    def test_worker_on_occupied_port_exits_4_with_typed_error(self, capsys):
        import socket

        from repro.cli import EXIT_PORT_BIND

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            code = run_cli("worker", "--listen", f"127.0.0.1:{port}")
        finally:
            blocker.close()
        assert code == EXIT_PORT_BIND == 4
        err = capsys.readouterr().err
        assert err.startswith("error: cannot bind") and err.count("\n") == 1, err
        assert f"127.0.0.1:{port}" in err

    def test_unknown_scenario_exits_1_with_message(self, capsys):
        assert run_cli("run", "no-such-scenario") == 1
        assert "unknown scenario" in capsys.readouterr().err


class TestShowAndCompare:
    @pytest.fixture()
    def stored(self, tmp_path, capsys):
        store_dir = str(tmp_path)
        run_cli("run", "ber-vs-photons", "--bits", "256", "--seed", "1",
                "--quiet", "--store", store_dir)
        run_cli("run", "ber-vs-photons", "--bits", "256", "--seed", "2",
                "--quiet", "--store", store_dir)
        capsys.readouterr()
        return store_dir, ReportStore(store_dir).list()

    def test_show_prints_summary_and_json(self, stored, capsys):
        store_dir, (first, _second) = stored
        assert run_cli("show", first, "--store", store_dir) == 0
        assert "scenario 'ber-vs-photons'" in capsys.readouterr().out
        assert run_cli("show", first, "--store", store_dir, "--json") == 0
        assert json.loads(capsys.readouterr().out)["seed"] in (1, 2)

    def test_show_missing_artifact_exits_1(self, stored, capsys):
        store_dir, _ = stored
        assert run_cli("show", "missing", "--store", store_dir) == 1
        assert "no artefact" in capsys.readouterr().err

    def test_compare_diffs_a_metric(self, stored, capsys):
        store_dir, (first, second) = stored
        assert run_cli(
            "compare", first, second, "--metric", "ber", "--store", store_dir, "--json"
        ) == 0
        comparison = json.loads(capsys.readouterr().out)
        assert comparison["metric"] == "ber"
        assert len(comparison["points"]) == 6


class TestTypedErrorExitCodes:
    """The new error contract: 1 = domain error, 3 = corrupt artefact."""

    @pytest.fixture()
    def corrupt_store(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        run_cli("run", "ber-vs-photons", "--bits", "128", "--quiet",
                "--store", str(store_dir))
        capsys.readouterr()
        store = ReportStore(store_dir)
        (artifact,) = store.list()
        path = store_dir / f"{artifact}.json"
        envelope = json.loads(path.read_text())
        envelope["report"]["seed"] = 777  # digest no longer matches the id
        path.write_text(json.dumps(envelope))
        return store_dir, artifact

    def test_show_maps_corruption_to_exit_3(self, corrupt_store, capsys):
        store_dir, artifact = corrupt_store
        assert run_cli("show", artifact, "--store", str(store_dir)) == EXIT_CORRUPT_ARTIFACT
        err = capsys.readouterr().err
        assert "digest verification" in err
        assert "quarantine" in err  # the actionable hint

    def test_compare_maps_corruption_to_exit_3(self, corrupt_store, capsys):
        store_dir, artifact = corrupt_store
        code = run_cli("compare", artifact, artifact, "--metric", "ber",
                       "--store", str(store_dir))
        assert code == EXIT_CORRUPT_ARTIFACT
        assert "error:" in capsys.readouterr().err

    def test_truncated_artifact_also_exits_3(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        run_cli("run", "ber-vs-photons", "--bits", "128", "--quiet",
                "--store", str(store_dir))
        capsys.readouterr()
        (artifact,) = ReportStore(store_dir).list()
        path = store_dir / f"{artifact}.json"
        path.write_text(path.read_text()[:50])
        assert run_cli("show", artifact, "--store", str(store_dir)) == EXIT_CORRUPT_ARTIFACT
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_artifact_stays_exit_1(self, tmp_path, capsys):
        assert run_cli("show", "missing", "--store", str(tmp_path)) == 1
        assert "no artefact" in capsys.readouterr().err


class TestRetryAndResumeFlags:
    def test_retry_flags_need_retry(self, capsys):
        assert run_cli("run", "ber-vs-photons", "--retry-timeout", "5",
                       "--no-store") == 1
        assert "--retry" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--retry-timeout", "--retry-backoff"])
    def test_nan_retry_settings_exit_1_and_store_nothing(self, capsys, tmp_path, flag):
        # A NaN timeout never fired and a NaN backoff retried at once; both ran.
        store = tmp_path / "store"
        assert run_cli("run", "ber-vs-photons", "--bits", "64", "--quiet", "--retry", "2",
                       flag, "nan", "--store", str(store)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag.split("-")[-1] in err, err
        assert not store.exists() or not any(p.is_file() for p in store.rglob("*"))

    def test_resume_conflicts_with_no_store(self, capsys):
        assert run_cli("run", "ber-vs-photons", "--resume", "--no-store") == 1
        assert "--no-store" in capsys.readouterr().err

    def test_retried_run_is_bit_identical_to_a_plain_one(self, capsys, tmp_path):
        common = ("run", "ber-vs-photons", "--bits", "128", "--quiet",
                  "--json", "--no-store")
        assert run_cli(*common) == 0
        plain = json.loads(capsys.readouterr().out)
        assert run_cli(*common, "--retry", "3", "--retry-backoff", "0.001") == 0
        retried = json.loads(capsys.readouterr().out)
        assert retried == plain

    def test_resume_reevaluates_only_the_missing_points(self, capsys, tmp_path, monkeypatch):
        from repro.scenarios import ChaosSchedule
        from repro.scenarios.executors import make_point_tasks
        from repro.scenarios.faults import CHAOS_ENV
        from repro.simulation.randomness import split_seed

        store_dir = tmp_path / "store"
        scenario = get_scenario("ber-vs-photons").with_budget(128)

        # Baseline: the uninterrupted run's artefact id.
        assert run_cli("run", "ber-vs-photons", "--bits", "128", "--seed", "3",
                       "--quiet", "--store", str(store_dir)) == 0
        capsys.readouterr()
        (expected,) = ReportStore(store_dir).list()
        (store_dir / f"{expected}.json").unlink()

        # Find a chaos seed whose schedule lets the first two points through
        # serially and then crashes a later one — a deterministic mid-flight
        # kill (fail_fast, no retry, so the run aborts with points 0..k-1
        # already checkpointed).
        tasks = make_point_tasks(scenario, seed=3, backend="batch", chunk_symbols=8_192)
        keys = [split_seed(t.seed, f"chaos-point:{t.index}") for t in tasks]
        chaos_seed = None
        for candidate in range(200):
            schedule = ChaosSchedule(seed=candidate, crash_rate=0.3,
                                     max_faulty_attempts=99)
            faults = [schedule.fault_for(k, 1) for k in keys]
            if faults[0] is None and faults[1] is None and "crash" in faults[2:]:
                chaos_seed = candidate
                break
        assert chaos_seed is not None
        schedule = ChaosSchedule(seed=chaos_seed, crash_rate=0.3, max_faulty_attempts=99)
        first_crash = [schedule.fault_for(k, 1) for k in keys].index("crash")

        monkeypatch.setenv(CHAOS_ENV, json.dumps(schedule.to_mapping()))
        from repro.scenarios.faults import InjectedWorkerCrash

        with pytest.raises(InjectedWorkerCrash):
            run_cli("run", "ber-vs-photons", "--bits", "128", "--seed", "3",
                    "--store", str(store_dir))
        monkeypatch.delenv(CHAOS_ENV)
        captured = capsys.readouterr()
        assert f"[{first_crash}/6]" in captured.err  # progress up to the kill
        assert ReportStore(store_dir).list() == []  # no artefact yet

        # --resume completes the run, re-evaluating only the missing points.
        assert run_cli("run", "ber-vs-photons", "--bits", "128", "--seed", "3",
                       "--store", str(store_dir), "--resume") == 0
        captured = capsys.readouterr()
        assert f"resuming: {first_crash} of 6 point(s) restored" in captured.err
        assert f"[{first_crash + 1}/6]" in captured.err
        assert "[6/6]" in captured.err
        # The final artefact digest equals the uninterrupted run's.
        assert ReportStore(store_dir).list() == [expected]

    ADAPTIVE = ("run", "ber-vs-photons", "--bits", "128", "--seed", "3", "--trial-mode",
                "importance", "--ci-target", "0.2", "--max-symbols", "256", "--quiet")

    #: A well-formed accumulated importance outcome of 32 symbols.
    OUTCOME = {
        "bits": 128, "bit_errors": 3, "symbols": 32, "symbol_errors": 2,
        "detection_counts": {"photon": 30, "missed": 2}, "channels": 1,
        "channel_bits": [], "channel_bit_errors": [],
        "weighted_error_sum": 1.5, "weighted_error_sumsq": 2.0,
        "weighted_symbol_error_sum": 1.0, "weighted_symbol_error_sumsq": 1.0,
        "error_strata": {"photon": 1.5},
    }

    def _resume_with_partial(self, store_dir, partial):
        """``repro run --resume`` over a checkpoint holding one partial round of point 0."""
        from repro.frontdoor import RunRequest

        request = RunRequest.build(
            "ber-vs-photons", seed=3, bits=128, trial_mode="importance", ci_target=0.2,
            max_symbols=256,
        )
        ReportStore(store_dir).run_checkpoint(
            request.scenario.to_mapping(), request.backend, request.seed, request.chunk_symbols
        ).append_partial(0, partial)
        code = run_cli(*self.ADAPTIVE, "--store", str(store_dir), "--resume")
        return code, ReportStore(store_dir).list()

    @pytest.mark.parametrize(
        "partial",
        [
            {"rounds": 1, "outcome": {}},
            {"rounds": "x", "outcome": OUTCOME},
            {"rounds": 0, "outcome": OUTCOME},
        ],
        ids=["outcome-that-does-not-rebuild", "rounds-not-an-integer", "rounds-zero"],
    )
    def test_a_damaged_partial_round_is_run_again(self, capsys, tmp_path, partial):
        assert run_cli(*self.ADAPTIVE, "--store", str(tmp_path / "fresh")) == 0
        fresh = ReportStore(tmp_path / "fresh").list()
        assert self._resume_with_partial(tmp_path / "store", partial) == (0, fresh)

    def test_a_sound_partial_round_is_resumed(self, capsys, tmp_path):
        # The control of the test above: the same journal, sound, is read.
        assert run_cli(*self.ADAPTIVE, "--store", str(tmp_path / "fresh")) == 0
        fresh = ReportStore(tmp_path / "fresh").list()
        code, resumed = self._resume_with_partial(
            tmp_path / "store", {"rounds": 1, "outcome": self.OUTCOME}
        )
        assert code == 0 and len(resumed) == 1 and resumed != fresh

    def test_failure_policy_continue_reports_failures(self, capsys, tmp_path, monkeypatch):
        from repro.scenarios import ChaosSchedule
        from repro.scenarios.faults import CHAOS_ENV

        schedule = ChaosSchedule(seed=1, crash_rate=1.0, max_faulty_attempts=99)
        monkeypatch.setenv(CHAOS_ENV, json.dumps(schedule.to_mapping()))
        assert run_cli("run", "ber-vs-photons", "--bits", "128", "--no-store",
                       "--json", "--failure-policy", "continue") == 0
        captured = capsys.readouterr()
        mapping = json.loads(captured.out)
        assert len(mapping["failures"]) == 6 and mapping["points"] == []
        assert "FAILED" in captured.err


class TestRegressionCheckExitCodes:
    @pytest.fixture()
    def gate(self):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "regression_check", SCRIPTS / "regression_check.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_missing_reference_exits_3_with_guidance(self, gate, tmp_path, capsys):
        gate.REFERENCE_DIR = tmp_path / "nowhere"
        assert gate.main([]) == gate.EXIT_BAD_REFERENCE == 3
        err = capsys.readouterr().err
        assert "no committed reference artefact" in err
        assert "regenerate it with" in err

    def test_unreadable_reference_exits_3(self, gate, tmp_path, capsys):
        gate.REFERENCE_DIR = tmp_path
        bogus = tmp_path / "ber-vs-photons__batch__seed1__000000000000.json"
        bogus.write_text("{truncated")
        assert gate.main([]) == 3
        assert "unreadable" in capsys.readouterr().err

    def test_bit_identical_needs_the_reference_digest_not_just_its_ber(
        self, gate, tmp_path, capsys
    ):
        # A reference with the same ber column but another report elsewhere
        # (here its description): only the content digest tells them apart.
        (reference,) = gate.REFERENCE_DIR.glob("ber-vs-photons__*.json")
        envelope = json.loads(reference.read_text())
        envelope["report"]["scenario"]["description"] += " (edited)"
        canonical = json.dumps(envelope["report"], sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
        envelope["artifact"] = f"{reference.stem.rsplit('__', 1)[0]}__{digest}"
        (tmp_path / f"{envelope['artifact']}.json").write_text(json.dumps(envelope))
        gate.REFERENCE_DIR = tmp_path
        assert gate.main(["--mode", "bit-identical"]) == 1
        assert f"reference {digest}" in capsys.readouterr().err
        assert gate.main(["--mode", "confidence"]) == 0


@pytest.mark.scenario_smoke
def test_python_dash_m_repro_smoke(tmp_path):
    """`python -m repro run ber-vs-photons --bits 2048` exits 0, stores an artefact."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "run", "ber-vs-photons", "--bits", "2048"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    assert "scenario 'ber-vs-photons'" in completed.stdout
    # The default store directory is ./artifacts relative to the cwd.
    store = ReportStore(tmp_path / "artifacts")
    (artifact,) = store.list()
    report = store.load(artifact)
    assert report.name == "ber-vs-photons"
    assert report.total_bits == 6 * 2048


class TestProbe:
    """`repro probe` — the pre-run cache probe and its exit-code contract."""

    def test_miss_then_run_then_hit(self, capsys, tmp_path):
        store = str(tmp_path / "artifacts")
        args = ("probe", "ber-vs-photons", "--seed", "7", "--bits", "128",
                "--store", store)
        assert run_cli(*args) == 4  # EXIT_CACHE_MISS: nothing simulated yet
        out = capsys.readouterr().out
        assert out.startswith("PENDING run ")
        assert run_cli("run", "ber-vs-photons", "--seed", "7", "--bits", "128",
                       "--quiet", "--store", store) == 0
        capsys.readouterr()
        assert run_cli(*args) == 0  # same inputs now probe as a hit
        out = capsys.readouterr().out
        assert out.startswith("HIT ")
        artifact = out.split()[1]
        assert ReportStore(store).load(artifact) is not None

    def test_json_payload_is_the_shared_probe_shape(self, capsys, tmp_path):
        from repro import frontdoor
        from repro.scenarios.store import run_digest

        store = str(tmp_path / "artifacts")
        assert run_cli("probe", "ber-vs-photons", "--seed", "7", "--bits", "128",
                       "--store", store, "--json") == 4
        payload = json.loads(capsys.readouterr().out)
        request = frontdoor.RunRequest.build("ber-vs-photons", seed=7, bits=128)
        assert payload == frontdoor.probe(ReportStore(store), request)
        assert payload["state"] == "pending" and payload["artifact"] is None
        assert payload["run"] == run_digest(
            request.scenario, request.backend, 7, request.chunk_symbols
        )

    def test_probe_is_sensitive_to_every_run_input(self, capsys, tmp_path):
        store = str(tmp_path / "artifacts")
        assert run_cli("run", "ber-vs-photons", "--seed", "7", "--bits", "128",
                       "--quiet", "--store", store) == 0
        capsys.readouterr()
        base = ("ber-vs-photons", "--bits", "128", "--store", store)
        assert run_cli("probe", *base, "--seed", "7") == 0
        assert run_cli("probe", *base, "--seed", "8") == 4
        assert run_cli("probe", *base, "--seed", "7", "--chunk-symbols", "4096") == 4
        assert run_cli("probe", "ber-vs-photons", "--bits", "256", "--seed", "7",
                       "--store", store) == 4

    @pytest.mark.parametrize(
        "flags",
        [
            ("--backend", "fast"),  # an alias: both sides must key on "batch"
            ("--file", None),
            ("--trial-mode", "importance", "--ci-target", "0.2", "--max-symbols", "256"),
            ("--chunk-symbols", "64"),
        ],
        ids=["backend-alias", "file", "importance", "chunk-symbols"],
    )
    def test_stored_run_probes_as_a_hit_under_the_same_flags(self, capsys, tmp_path, flags):
        if flags == ("--file", None):
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps({
                "name": "probe-from-file",
                "link_overrides": {"ppm_bits": 4, "mean_detected_photons": 40.0},
                "sweep_axes": {"spad_dead_time": [16e-9, 48e-9]},
                "metrics": ["ber"],
                "bits_per_point": 128,
            }))
            source = ("--file", str(path))
        else:
            source = ("ber-vs-photons", *flags)
        common = (*source, "--bits", "128", "--seed", "3",
                  "--store", str(tmp_path / "artifacts"))
        assert run_cli("run", *common, "--quiet") == 0
        capsys.readouterr()
        assert run_cli("probe", *common) == 0
        assert capsys.readouterr().out.startswith("HIT ")

    @pytest.mark.parametrize("command", ["run", "probe"])
    def test_help_lists_every_shared_request_flag(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(command, "--help")
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for flag in ("scenario", "--file", "--backend", "--seed", "--bits",
                     "--chunk-symbols", "--trial-mode", "--ci-target", "--max-symbols",
                     "--store", "--json"):
            assert flag in out, flag

    def test_probe_never_creates_artifacts(self, capsys, tmp_path):
        store = tmp_path / "artifacts"
        assert run_cli("probe", "ber-vs-photons", "--store", str(store)) == 4
        assert not any(store.rglob("*.json")) if store.exists() else True

    def test_probe_usage_errors(self, capsys, tmp_path):
        assert run_cli("probe", "no-such-scenario") == 1
        assert "unknown scenario" in capsys.readouterr().err
        assert run_cli("probe") == 1  # no source at all
        assert "exactly one" in capsys.readouterr().err


class TestServe:
    def test_occupied_port_exits_4_with_typed_error(self, capsys, tmp_path):
        import socket

        from repro.cli import EXIT_PORT_BIND

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            code = run_cli("serve", "--port", str(port), "--store", str(tmp_path))
        finally:
            blocker.close()
        assert code == EXIT_PORT_BIND == 4
        err = capsys.readouterr().err
        assert "cannot bind" in err and str(port) in err

    def test_list_json_matches_the_service_catalogue(self, capsys):
        from repro import frontdoor

        assert run_cli("list", "--json") == 0
        assert json.loads(capsys.readouterr().out) == frontdoor.scenario_catalogue()
