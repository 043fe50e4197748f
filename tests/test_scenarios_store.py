"""ReportStore artefact tests: round-trip, content addressing, compare,
and crash/corruption robustness (atomic saves, digest verification,
quarantine)."""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.scenarios import (
    CorruptArtifactError,
    ExperimentReport,
    ExperimentRunner,
    ReportStore,
    Scenario,
    artifact_id,
)
from repro.scenarios.store import ARTIFACT_FORMAT, RunCheckpoint, run_digest


@pytest.fixture(scope="module")
def report():
    scenario = Scenario(
        name="store-roundtrip",
        description="tiny sweep persisted by the store tests",
        link_overrides={"ppm_bits": 4},
        sweep_axes={"mean_detected_photons": (5.0, 40.0)},
        metrics=("ber", "detection_rate"),
        bits_per_point=256,
    )
    return ExperimentRunner(scenario, seed=21).run()


class TestRoundTrip:
    def test_save_load_is_lossless(self, report, tmp_path):
        store = ReportStore(tmp_path / "artifacts")
        path = store.save(report)
        assert path.is_file() and path.suffix == ".json"
        loaded = store.load(path.stem)
        assert loaded == report
        assert loaded.to_mapping() == report.to_mapping()
        # JSON all the way down: the payload reparses into the same mapping.
        envelope = json.loads(path.read_text())
        assert envelope["format"] == ARTIFACT_FORMAT
        assert envelope["report"] == report.to_mapping()
        assert ExperimentReport.from_mapping(envelope["report"]) == report

    def test_load_accepts_id_and_path(self, report, tmp_path):
        store = ReportStore(tmp_path)
        path = store.save(report)
        assert store.load(path, paths=True) == store.load(path.stem) == store.load(path.name)

    def test_a_reference_is_a_key_unless_paths_are_asked_for(
        self, report, tmp_path, monkeypatch
    ):
        store = ReportStore(tmp_path / "store")
        path = store.save(report)
        (tmp_path / "BENCHMARK.json").write_text('{"workloads": []}')
        monkeypatch.chdir(tmp_path)
        for ref in (path, str(path), f"../store/{path.name}", "BENCHMARK.json"):
            with pytest.raises(FileNotFoundError):
                store.load(ref)
            with pytest.raises(FileNotFoundError):
                store.compare(path.stem, ref, "ber")
        with pytest.raises(CorruptArtifactError):  # a path, when asked for
            store.read_envelope("BENCHMARK.json", paths=True)

    def test_from_mapping_rejects_unknown_keys(self, report):
        mapping = report.to_mapping()
        mapping["bogus"] = 1
        with pytest.raises(ValueError, match="unknown experiment-report key"):
            ExperimentReport.from_mapping(mapping)


class TestContentAddressing:
    def test_id_carries_name_backend_seed_and_digest(self, report):
        name = artifact_id(report)
        assert name.startswith("store-roundtrip__batch__seed21__")
        assert len(name.split("__")[-1]) == 12

    def test_saving_twice_is_idempotent(self, report, tmp_path):
        store = ReportStore(tmp_path)
        first = store.save(report)
        second = store.save(report)
        assert first == second
        assert store.list() == [first.stem]

    def test_different_seed_lands_on_a_new_artifact(self, report, tmp_path):
        store = ReportStore(tmp_path)
        store.save(report)
        scenario = Scenario.from_mapping(report.scenario)
        other = ExperimentRunner(scenario, seed=22).run()
        store.save(other)
        assert len(store.list()) == 2
        assert len(store.list("store-roundtrip")) == 2
        assert store.list("no-such-scenario") == []


class TestLatestAndCompare:
    def test_latest_filters_and_orders(self, report, tmp_path):
        store = ReportStore(tmp_path)
        assert store.latest() is None
        first = store.save(report)
        scenario = Scenario.from_mapping(report.scenario)
        other = ExperimentRunner(scenario, seed=22).run()
        second = store.save(other)
        assert store.latest(seed=21) == first.stem
        assert store.latest(seed=22) == second.stem
        assert store.latest(backend="batch") in {first.stem, second.stem}
        assert store.latest(backend="multichannel") is None

    def test_compare_reports_per_point_deltas(self, report, tmp_path):
        store = ReportStore(tmp_path)
        ref_a = store.save(report).stem
        scenario = Scenario.from_mapping(report.scenario)
        ref_b = store.save(ExperimentRunner(scenario, seed=22).run()).stem
        comparison = store.compare(ref_a, ref_b, "ber")
        assert comparison["metric"] == "ber"
        assert len(comparison["points"]) == 2
        assert comparison["only_a"] == comparison["only_b"] == []
        for row in comparison["points"]:
            assert row["delta"] == pytest.approx(row["b"] - row["a"])
        # Comparing an artefact against itself is all-zero deltas.
        self_compare = store.compare(ref_a, ref_a, "ber")
        assert all(row["delta"] == 0.0 for row in self_compare["points"])


class TestErrors:
    def test_missing_artifact_names_the_store(self, tmp_path):
        store = ReportStore(tmp_path)
        with pytest.raises(FileNotFoundError, match="no artefact"):
            store.load("nothing-here")

    def test_rejects_non_reports(self, tmp_path):
        with pytest.raises(TypeError):
            ReportStore(tmp_path).save({"not": "a report"})

    def test_rejects_scenario_names_with_path_separators(self, report, tmp_path):
        import dataclasses

        scenario = Scenario.from_mapping(report.scenario)
        for bad in ("grid/v2", "..\\up", ".hidden"):
            tricky = dataclasses.replace(scenario, name=bad)
            rogue = ExperimentRunner(tricky, seed=1).run()
            with pytest.raises(ValueError, match="cannot be stored"):
                ReportStore(tmp_path).save(rogue)
        assert ReportStore(tmp_path).list() == []

    def test_rejects_foreign_json(self, tmp_path):
        rogue = tmp_path / "rogue.json"
        rogue.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError, match="envelope"):
            ReportStore(tmp_path).load("rogue")

    def test_rejects_envelope_without_report_payload(self, tmp_path):
        truncated = tmp_path / "truncated.json"
        truncated.write_text(json.dumps({"format": ARTIFACT_FORMAT}))
        with pytest.raises(ValueError, match="no report payload"):
            ReportStore(tmp_path).load("truncated")

    def test_point_mapping_missing_required_keys_raises_value_error(self, report):
        mapping = report.to_mapping()
        del mapping["points"][0]["bits"]
        with pytest.raises(ValueError, match="lacks key"):
            ExperimentReport.from_mapping(mapping)
        with pytest.raises(ValueError, match="lacks key"):
            ExperimentReport.from_mapping({"scenario": {}, "backend": "batch"})


class TestRobustness:
    def test_latest_and_list_skip_foreign_json_in_the_store_dir(self, report, tmp_path):
        store = ReportStore(tmp_path)
        saved = store.save(report)
        (tmp_path / "notes.json").write_text(json.dumps({"hello": "world"}))
        (tmp_path / "truncated.json").write_text("{not json")
        assert store.latest() == saved.stem
        assert store.latest("store-roundtrip") == saved.stem
        # Foreign files never masquerade as artefact ids either.
        assert store.list() == [saved.stem]

    def test_scenario_names_containing_separator_still_filter(self, report, tmp_path):
        store = ReportStore(tmp_path)
        scenario = Scenario.from_mapping(report.scenario)
        import dataclasses

        tricky = dataclasses.replace(scenario, name="store__tricky__name")
        saved = store.save(ExperimentRunner(tricky, seed=1).run())
        store.save(report)
        assert store.list("store__tricky__name") == [saved.stem]
        assert store.latest("store__tricky__name") == saved.stem
        # ...and prefixes of it do not accidentally match.
        assert store.list("store") == []

    def test_list_returns_only_artifact_ids_whatever_else_the_root_holds(
        self, report, tmp_path
    ):
        import dataclasses

        store = ReportStore(tmp_path)
        saved = store.save(report, run_key="a" * 64)  # also writes index/
        tricky = dataclasses.replace(
            Scenario.from_mapping(report.scenario), name="store__tricky__name"
        )
        tricky_saved = store.save(ExperimentRunner(tricky, seed=1).run())
        (tmp_path / "notes.json").write_text("{}")
        (tmp_path / "a__b__c.json").write_text("{}")  # too few __ parts
        (tmp_path / f".{saved.stem}.json.tmp-1-0").write_text("{")  # half-written temp file
        assert (tmp_path / "index").is_dir()
        expected = sorted([saved.stem, tricky_saved.stem])
        assert store.list() == expected
        # The same ids, in the same order, as a Path.glob listing.
        assert store.list() == sorted(
            path.stem
            for path in tmp_path.glob("*.json")
            if len(path.stem.rsplit("__", 3)) == 4
        )
        assert store.list("store__tricky__name") == [tricky_saved.stem]
        assert store.list("store-roundtrip") == [saved.stem]
        assert ReportStore(tmp_path / "absent").list() == []


class TestCorruption:
    """Typed corruption detection: truncation, digest mismatch, quarantine."""

    def test_truncated_json_raises_corrupt_artifact_error(self, report, tmp_path):
        store = ReportStore(tmp_path)
        path = store.save(report)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # simulated torn write/bit rot
        with pytest.raises(CorruptArtifactError, match="not valid JSON") as info:
            store.load(path.stem)
        assert info.value.path == path
        assert isinstance(info.value, ValueError)  # legacy except clauses still work

    def test_altered_payload_fails_digest_verification(self, report, tmp_path):
        store = ReportStore(tmp_path)
        path = store.save(report)
        envelope = json.loads(path.read_text())
        envelope["report"]["seed"] = 999  # silent tamper: id no longer matches
        path.write_text(json.dumps(envelope))
        with pytest.raises(CorruptArtifactError, match="digest verification"):
            store.load(path.stem)
        with pytest.raises(CorruptArtifactError):
            store.read_envelope(path.stem)

    def test_envelope_without_artifact_id_is_corrupt(self, report, tmp_path):
        store = ReportStore(tmp_path)
        path = store.save(report)
        envelope = json.loads(path.read_text())
        del envelope["artifact"]
        path.write_text(json.dumps(envelope))
        with pytest.raises(CorruptArtifactError, match="artefact id"):
            store.load(path.stem)

    def test_quarantine_moves_the_file_out_of_view(self, report, tmp_path):
        store = ReportStore(tmp_path)
        good = store.save(report)
        scenario = Scenario.from_mapping(report.scenario)
        bad = store.save(ExperimentRunner(scenario, seed=22).run())
        bad.write_text(bad.read_text()[:40])  # corrupt the second artefact
        moved = store.quarantine(bad.stem)
        assert moved == tmp_path / "quarantine" / bad.name
        assert moved.is_file() and not bad.exists()
        # list()/latest() see only the surviving artefact — quarantined files
        # are out of the store's namespace entirely.
        assert store.list() == [good.stem]
        assert store.latest() == good.stem
        with pytest.raises(FileNotFoundError):
            store.load(bad.stem)


class TestCrashSafety:
    """Atomic save: no partial artefact is ever visible, whatever the crash."""

    def test_crash_between_write_and_rename_exposes_nothing(
        self, report, tmp_path, monkeypatch
    ):
        store = ReportStore(tmp_path)

        def crash(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            store.save(report)
        monkeypatch.undo()
        # The fully-written scratch file exists, but no reader can see it.
        assert any(tmp_path.glob(".*.tmp-*"))
        assert store.list() == []
        assert store.latest() is None
        with pytest.raises(FileNotFoundError):
            store.load(artifact_id(report))
        # A later save completes normally next to the debris.
        saved = store.save(report)
        assert store.list() == [saved.stem]
        assert store.load(saved.stem) == report

    def test_concurrent_saves_are_last_writer_wins(self, report, tmp_path, monkeypatch):
        # Two processes saving the same artefact id interleave their writes;
        # each writes a private scratch file and the renames are atomic, so
        # the surviving file is one complete envelope — never a splice.
        store_a, store_b = ReportStore(tmp_path), ReportStore(tmp_path)
        real_replace = os.replace
        order = []

        def racing_replace(src, dst):
            # First save's rename runs *after* the second's write landed —
            # the classic lost-update interleaving.
            order.append(str(src))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", racing_replace)
        path_a = store_a.save(report)
        path_b = store_b.save(report)
        assert path_a == path_b
        assert len(order) == 2 and order[0] != order[1]  # distinct scratch files
        assert store_a.list() == [path_a.stem]
        assert store_a.load(path_a.stem) == report  # complete, verified envelope

    def test_scratch_names_are_unique_within_a_process(self, report, tmp_path, monkeypatch):
        captured = []
        real_replace = os.replace
        monkeypatch.setattr(
            os, "replace", lambda src, dst: (captured.append(str(src)), real_replace(src, dst))
        )
        store = ReportStore(tmp_path)
        store.save(report)
        store.save(report)
        assert len(set(captured)) == 2


class TestRunIndex:
    """The run index: pre-run cache keys mapped to completed artefacts."""

    def test_run_digest_needs_no_execution(self, report):
        key = run_digest(report.scenario, "batch", 21, 8192)
        assert len(key) == 12 and int(key, 16) >= 0
        # Pure function of the run inputs — stable across calls.
        assert key == run_digest(dict(report.scenario), "batch", 21, 8192)
        # ...and sensitive to every one of them.
        assert key != run_digest(report.scenario, "scalar", 21, 8192)
        assert key != run_digest(report.scenario, "batch", 22, 8192)
        assert key != run_digest(report.scenario, "batch", 21, 4096)

    def test_save_with_run_key_makes_find_run_hit(self, report, tmp_path):
        store = ReportStore(tmp_path)
        key = run_digest(report.scenario, "batch", 21, 8192)
        assert store.find_run(key) is None
        path = store.save(report, run_key=key)
        assert store.find_run(key) == path.stem
        # A second store over the same directory sees it too (it's on disk).
        assert ReportStore(tmp_path).find_run(key) == path.stem

    def test_save_without_run_key_records_nothing(self, report, tmp_path):
        store = ReportStore(tmp_path)
        store.save(report)
        assert not (tmp_path / "index").exists()

    def test_missing_artifact_is_a_clean_miss(self, report, tmp_path):
        store = ReportStore(tmp_path)
        key = run_digest(report.scenario, "batch", 21, 8192)
        path = store.save(report, run_key=key)
        path.unlink()  # artefact gone, index entry stale
        assert store.find_run(key) is None

    def test_corrupt_index_entries_are_clean_misses(self, report, tmp_path):
        store = ReportStore(tmp_path)
        key = run_digest(report.scenario, "batch", 21, 8192)
        store.save(report, run_key=key)
        index_path = tmp_path / "index" / f"{key}.json"
        for garbage in ("", "not json", json.dumps({"format": "wrong"}),
                        json.dumps({"format": ARTIFACT_FORMAT})):
            index_path.write_text(garbage)
            assert store.find_run(key) is None
        assert store.find_run("0" * 12) is None  # never-written key


class TestConcurrentStoreAccess:
    """Real threads against one directory — the service's actual regime."""

    def test_racing_writers_same_digest_leave_one_valid_artifact(
        self, report, tmp_path
    ):
        # N writers save the *same* report (same content digest, same target
        # path) simultaneously.  Private scratch files + atomic os.replace
        # mean whoever lands last wins wholesale — the surviving file is
        # always one complete, digest-verified envelope, never a splice.
        import threading

        store = ReportStore(tmp_path)
        key = run_digest(report.scenario, "batch", 21, 8192)
        start = threading.Barrier(8)
        paths, errors = [], []

        def write():
            try:
                start.wait(timeout=30)
                for _ in range(10):
                    paths.append(store.save(report, run_key=key))
            except Exception as error:  # pragma: no cover - failure detail
                errors.append(error)

        threads = [threading.Thread(target=write) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(set(paths)) == 1  # content addressing: one target path
        assert store.list() == [paths[0].stem]  # no scratch debris surfaced
        assert store.load(paths[0].stem) == report  # complete and verified
        assert store.find_run(key) == paths[0].stem

    def test_reader_racing_writers_never_sees_a_torn_file(self, report, tmp_path):
        import threading

        store = ReportStore(tmp_path)
        stop = threading.Event()
        errors = []

        def write():
            try:
                while not stop.is_set():
                    store.save(report)
            except Exception as error:  # pragma: no cover - failure detail
                errors.append(error)

        writer = threading.Thread(target=write)
        writer.start()
        try:
            name = artifact_id(report)
            for _ in range(200):
                listed = store.list()
                assert listed in ([], [name])  # scratch files never listed
                if listed:
                    assert store.load(name) == report  # always a whole envelope
        finally:
            stop.set()
            writer.join(timeout=60)
        assert not errors

    def test_reader_ignores_a_mid_save_scratch_file(self, report, tmp_path):
        # Freeze the exact moment save() has written its scratch file but not
        # yet renamed it: readers must act as if the save never happened.
        store = ReportStore(tmp_path)
        done = store.save(report)
        scratch = tmp_path / f".{artifact_id(report)}.tmp-{os.getpid()}-999"
        scratch.write_text(done.read_text()[: done.stat().st_size // 2])
        index_scratch = tmp_path / "index" / ".deadbeef0000.tmp-1-1"
        index_scratch.parent.mkdir(exist_ok=True)
        index_scratch.write_text("{ half an ind")
        assert store.list() == [done.stem]
        assert store.load(done.stem) == report
        assert store.latest() == done.stem
        assert store.find_run("deadbeef0000") is None


#: One way to damage a file: flip a byte (XOR with 1..255), cut the file at a
#: point, or insert bytes there — a deep nest of brackets among them.
DAMAGE = st.one_of(
    st.tuples(st.just("flip"), st.floats(0, 1, exclude_max=True), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.floats(0, 1, exclude_max=True), st.just(0)),
    st.tuples(
        st.just("insert"), st.floats(0, 1),
        st.binary(min_size=1, max_size=8) | st.just(b"[" * 100_000),
    ),
)


def damaged(data: bytes, damage) -> bytes:
    kind, where, what = damage
    at = int(where * len(data))
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ what]) + data[at + 1 :]
    if kind == "truncate":
        return data[:at]
    return data[:at] + what + data[at:]


def damaged_line(data: bytes, damage) -> int:
    """The 0-based line of ``data`` that ``damage`` touches first."""
    _, where, _ = damage
    return data[: int(where * len(data))].count(b"\n")


def journal(store: ReportStore, report) -> RunCheckpoint:
    """A fresh checkpoint journal: a partial round, then every point."""
    checkpoint = store.run_checkpoint(report.scenario, "batch", 21, 8192)
    checkpoint.discard()
    checkpoint.append_partial(1, {"rounds": 1, "errors": 3})
    for index, point in enumerate(report.points):
        checkpoint.append(index, point.to_mapping())
    return checkpoint


class TestDamagedBytes:
    """Damaged bytes read as the typed outcome each reader documents:
    :class:`CorruptArtifactError` for an artefact, a miss for an index
    entry, a stop at the damaged line for a checkpoint journal."""

    @pytest.mark.parametrize("damage", [("flip", 0.5, 0x80), ("insert", 0.0, b"[" * 100_000)],
                             ids=["invalid-utf8", "nested-too-deep"])
    def test_each_reader_maps_bad_bytes_and_deep_nests(self, report, tmp_path, damage):
        store = ReportStore(tmp_path)
        key = run_digest(report.scenario, "batch", 21, 8192)
        path = store.save(report, run_key=key)
        path.write_bytes(damaged(path.read_bytes(), damage))
        with pytest.raises(CorruptArtifactError):
            store.load(path.stem)
        index_path = tmp_path / "index" / f"{key}.json"
        index_path.write_bytes(damaged(index_path.read_bytes(), damage))
        assert store.find_run(key) is None
        checkpoint = journal(store, report)
        lines = checkpoint.path.read_bytes().splitlines(keepends=True)
        checkpoint.path.write_bytes(b"".join(lines[:-1]) + damaged(lines[-1], damage))
        assert checkpoint.load() == {0: report.points[0].to_mapping()}
        assert checkpoint.load_partials() == {1: {"rounds": 1, "errors": 3}}

    def test_an_index_entry_cannot_name_a_file_outside_the_store(self, report, tmp_path):
        store = ReportStore(tmp_path / "store")
        key = run_digest(report.scenario, "batch", 21, 8192)
        store.save(report, run_key=key)
        (tmp_path / "elsewhere.json").write_text("{}")
        index_path = store.root / "index" / f"{key}.json"
        entry = json.loads(index_path.read_text())
        entry["artifact"] = "../elsewhere"
        index_path.write_text(json.dumps(entry))
        assert store.find_run(key) is None

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(damage=DAMAGE)
    def test_damage_gives_the_original_or_the_typed_outcome(self, report, tmp_path, damage):
        store = ReportStore(tmp_path)
        key = run_digest(report.scenario, "batch", 21, 8192)
        path = store.save(report, run_key=key)
        artifact, saved = path.stem, path.read_bytes()
        path.write_bytes(damaged(saved, damage))
        try:
            assert store.load(artifact) == report
        except CorruptArtifactError:
            pass
        path.write_bytes(saved)
        index_path = tmp_path / "index" / f"{key}.json"
        index_path.write_bytes(damaged(index_path.read_bytes(), damage))
        assert store.find_run(key) in (artifact, None)
        checkpoint = journal(store, report)
        original = checkpoint.path.read_bytes()
        expected = list(checkpoint._entries())
        checkpoint.path.write_bytes(damaged(original, damage))
        # The lines before the damaged one still read; from it on, the read
        # either stops or takes what the damage left parseable.
        kept = damaged_line(original, damage) - 1  # entries are line 1 on
        assert list(checkpoint._entries())[: max(kept, 0)] == expected[: max(kept, 0)]
        assert isinstance(checkpoint.load(), dict)
        assert isinstance(checkpoint.load_partials(), dict)
