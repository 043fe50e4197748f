"""Crash-safe checkpoints and resume: a killed run completes, bit for bit.

The resume contract: completed points are journalled incrementally (JSONL,
fsynced per point) into ``<store>/checkpoints/``, keyed by everything a
report is deterministic in; a resumed session restores them instead of
re-evaluating, and the final artefact — digest included — equals an
uninterrupted run's.
"""

import json
import re

import pytest

from repro.scenarios import (
    ExperimentRunner,
    ReportStore,
    Scenario,
    run_scenario,
)
from repro.scenarios.executors import evaluate_task
from repro.scenarios.store import CHECKPOINT_FORMAT, artifact_id


def sweep_scenario(points: int = 3) -> Scenario:
    photons = tuple(5.0 + 10.0 * i for i in range(points))
    return Scenario(
        name="resume-sweep",
        description="small sweep exercised by the resume tests",
        sweep_axes={"mean_detected_photons": photons},
        metrics=("ber",),
        bits_per_point=128,
    )


class CountingSerial:
    """A serial executor that records each ``map_tasks`` call and evaluation."""

    failure_policy = "fail_fast"

    def __init__(self):
        self.calls = []  # the grid indexes handed to each map_tasks call
        self.evaluated = []

    def map_tasks(self, tasks):
        tasks = list(tasks)
        self.calls.append([task.index for task in tasks])
        return self._evaluate(tasks)

    def _evaluate(self, tasks):
        for task in tasks:
            self.evaluated.append(task.index)
            yield task.index, evaluate_task(task)


def checkpoint_for(store, scenario, seed=5):
    return store.run_checkpoint(scenario.to_mapping(), "batch", seed, 8_192)


class TestRunCheckpoint:
    def test_points_journal_incrementally(self, tmp_path):
        scenario = sweep_scenario()
        store = ReportStore(tmp_path)
        checkpoint = checkpoint_for(store, scenario)
        session = ExperimentRunner(scenario, seed=5).session(checkpoint=checkpoint)
        assert not checkpoint.exists()
        next(session)
        assert len(checkpoint.load()) == 1
        next(session)
        assert sorted(checkpoint.load()) == [0, 1]
        # The journal is headered JSONL under the store, not a loose file.
        lines = checkpoint.path.read_text().splitlines()
        assert json.loads(lines[0])["format"] == CHECKPOINT_FORMAT
        assert checkpoint.path.parent == tmp_path / "checkpoints"

    def test_torn_tail_line_is_tolerated(self, tmp_path):
        scenario = sweep_scenario()
        store = ReportStore(tmp_path)
        checkpoint = checkpoint_for(store, scenario)
        session = ExperimentRunner(scenario, seed=5).session(checkpoint=checkpoint)
        next(session)
        next(session)
        # Simulate a kill mid-append: chop the last record in half.
        text = checkpoint.path.read_text()
        checkpoint.path.write_text(text[: len(text) - 30])
        assert sorted(checkpoint.load()) == [0]  # the intact prefix survives

    def test_other_runs_checkpoints_never_leak(self, tmp_path):
        scenario = sweep_scenario()
        store = ReportStore(tmp_path)
        checkpoint = checkpoint_for(store, scenario, seed=5)
        session = ExperimentRunner(scenario, seed=5).session(checkpoint=checkpoint)
        next(session)
        # A different seed is a different run: different key, empty load.
        other = checkpoint_for(store, scenario, seed=6)
        assert other.load() == {}
        assert other.path != checkpoint.path
        # Same file read under the wrong key refuses to resume.
        imposter = type(checkpoint)(checkpoint.path, "0" * 12)
        assert imposter.load() == {}

    def test_partials_stop_at_a_torn_tail(self, tmp_path):
        checkpoint = checkpoint_for(ReportStore(tmp_path), sweep_scenario())
        checkpoint.append_partial(0, {"rounds": 1})
        checkpoint.append_partial(1, {"rounds": 1})
        checkpoint.append_partial(0, {"rounds": 2})
        # Simulate a kill mid-append: chop the last record in half, then a
        # later intact line must not be read past the tear either.
        text = checkpoint.path.read_text()
        checkpoint.path.write_text(
            text[: len(text) - 10] + "\n" + json.dumps({"index": 2, "partial": {}}) + "\n"
        )
        assert checkpoint.load_partials() == {0: {"rounds": 1}, 1: {"rounds": 1}}

    def test_partials_of_another_run_never_leak(self, tmp_path):
        store = ReportStore(tmp_path)
        checkpoint = checkpoint_for(store, sweep_scenario())
        checkpoint.append_partial(0, {"rounds": 1})
        assert checkpoint.load_partials() == {0: {"rounds": 1}}
        imposter = type(checkpoint)(checkpoint.path, "0" * 12)
        assert imposter.load_partials() == {}
        # The header must open the file: a leading blank line voids it.
        checkpoint.path.write_text("\n" + checkpoint.path.read_text())
        assert checkpoint.load_partials() == {} and checkpoint.load() == {}

    def test_a_completed_point_supersedes_its_partials(self, tmp_path):
        checkpoint = checkpoint_for(ReportStore(tmp_path), sweep_scenario())
        checkpoint.append_partial(0, {"rounds": 1})
        checkpoint.append_partial(1, {"rounds": 1})
        checkpoint.append(0, {"parameters": {}, "metrics": {}, "confidence": {},
                              "bits": 1, "symbols": 1})
        checkpoint.append_partial(1, {"rounds": 2})
        assert checkpoint.load_partials() == {1: {"rounds": 2}}
        assert sorted(checkpoint.load()) == [0]

    def test_an_altered_line_stops_the_read(self, tmp_path):
        scenario = sweep_scenario()
        checkpoint = checkpoint_for(ReportStore(tmp_path), scenario)
        session = ExperimentRunner(scenario, seed=5).session(checkpoint=checkpoint)
        next(session)
        next(session)
        # One bit of the second point's last ber digit: the line still
        # parses, but no longer matches its digest, so the read stops there.
        lines = checkpoint.path.read_text().splitlines(keepends=True)
        at = re.search(r'"ber": [-+.0-9e]+', lines[2]).end() - 1
        lines[2] = lines[2][:at] + chr(ord(lines[2][at]) ^ 1) + lines[2][at + 1 :]
        altered = json.loads(lines[2])["point"]["metrics"]["ber"]
        assert altered != checkpoint.load()[1]["metrics"]["ber"]
        checkpoint.path.write_text("".join(lines))
        assert sorted(checkpoint.load()) == [0]

    def test_an_undigested_journal_reruns_its_points(self, tmp_path):
        checkpoint = checkpoint_for(ReportStore(tmp_path), sweep_scenario())
        checkpoint.append(0, {"ber": 0.25})
        header, line = checkpoint.path.read_text().splitlines()
        undigested = json.dumps({"index": 0, "point": {"ber": 0.25}})
        assert json.loads(line) == dict(json.loads(undigested), digest=json.loads(line)["digest"])
        # A journal from before lines carried digests reads as foreign, and
        # an undigested line under the current header stops the read.
        old_header = json.dumps(dict(json.loads(header), format="repro-checkpoint-v1"))
        checkpoint.path.write_text(f"{old_header}\n{undigested}\n")
        assert checkpoint.load() == {}
        checkpoint.path.write_text(f"{header}\n{undigested}\n")
        assert checkpoint.load() == {}

    def test_discard_is_idempotent(self, tmp_path):
        checkpoint = checkpoint_for(ReportStore(tmp_path), sweep_scenario())
        checkpoint.discard()  # nothing there yet: no error
        checkpoint.append(0, {"parameters": {}, "metrics": {}, "confidence": {},
                              "bits": 1, "symbols": 1})
        assert checkpoint.exists()
        checkpoint.discard()
        assert not checkpoint.exists()


class TestSessionResume:
    def test_resumed_session_reevaluates_only_missing_points(self, tmp_path):
        scenario = sweep_scenario()
        store = ReportStore(tmp_path)
        uninterrupted = ExperimentRunner(scenario, seed=5).run()

        # First run dies after two points (abandoned mid-flight).
        checkpoint = checkpoint_for(store, scenario)
        with ExperimentRunner(scenario, seed=5).session(checkpoint=checkpoint) as dying:
            next(dying)
            next(dying)

        # The resumed session restores 2 points and evaluates exactly 1.
        counting = CountingSerial()
        resumed = ExperimentRunner(scenario, seed=5, executor=counting).session(
            checkpoint=checkpoint_for(store, scenario)
        )
        assert resumed.resumed_points == 2
        assert resumed.completed_points == 2
        report = resumed.report()
        assert counting.calls == [[2]]  # one call, restored points left out
        assert counting.evaluated == [2]
        assert report.to_mapping() == uninterrupted.to_mapping()
        assert artifact_id(report) == artifact_id(uninterrupted)

    def test_fully_checkpointed_run_evaluates_nothing(self, tmp_path):
        scenario = sweep_scenario()
        store = ReportStore(tmp_path)
        checkpoint = checkpoint_for(store, scenario)
        ExperimentRunner(scenario, seed=5).session(checkpoint=checkpoint).report()
        counting = CountingSerial()
        session = ExperimentRunner(scenario, seed=5, executor=counting).session(
            checkpoint=checkpoint_for(store, scenario)
        )
        report = session.report()
        assert counting.calls == []
        assert counting.evaluated == []
        assert report == ExperimentRunner(scenario, seed=5).run()


class TestSessionWaves:
    """A session hands its executor one ``map_tasks`` call per wave."""

    def test_fixed_budget_is_one_call_over_the_grid(self):
        scenario = sweep_scenario()
        counting = CountingSerial()
        report = ExperimentRunner(scenario, seed=5, executor=counting).run()
        assert counting.calls == [[0, 1, 2]]
        assert report == ExperimentRunner(scenario, seed=5).run()

    def test_adaptive_run_makes_one_call_per_wave(self):
        scenario = Scenario(
            name="resume-waves",
            sweep_axes={"mean_detected_photons": (2.0, 5.0, 15.0)},
            metrics=("ber",),
            bits_per_point=128,
            ci_target=0.02,
        )
        counting = CountingSerial()
        report = ExperimentRunner(scenario, seed=5, executor=counting).run()
        rounds = [point.budget["rounds"] for point in report.points]
        assert len(set(rounds)) > 1, "test needs points that converge in different waves"
        # Wave k holds exactly the points still unconverged after k rounds.
        assert counting.calls == [
            [index for index, needed in enumerate(rounds) if needed > wave]
            for wave in range(max(rounds))
        ]
        assert report == ExperimentRunner(scenario, seed=5).run()


class TestRunScenarioResume:
    def test_end_to_end_resume_matches_the_uninterrupted_digest(self, tmp_path):
        scenario = sweep_scenario()
        store = ReportStore(tmp_path)
        uninterrupted = run_scenario(scenario, seed=5, store=store)
        expected = artifact_id(uninterrupted)
        assert store.list() == [expected]
        # The checkpoint is cleaned up once the artefact is safely saved.
        assert not checkpoint_for(store, scenario).exists()

        # Simulate the kill: wipe the artefact, leave a partial checkpoint.
        (tmp_path / f"{expected}.json").unlink()
        checkpoint = checkpoint_for(store, scenario)
        with ExperimentRunner(scenario, seed=5).session(checkpoint=checkpoint) as dying:
            next(dying)

        resumed = run_scenario(scenario, seed=5, store=store, resume=True)
        assert artifact_id(resumed) == expected
        assert store.list() == [expected]
        assert not checkpoint_for(store, scenario).exists()

    def test_fresh_run_discards_a_stale_checkpoint(self, tmp_path):
        scenario = sweep_scenario()
        store = ReportStore(tmp_path)
        checkpoint = checkpoint_for(store, scenario)
        # Poison the checkpoint with a wrong (but well-formed) point record:
        # a non-resume run must ignore and replace it, not trust it.
        bogus = ExperimentRunner(scenario, seed=99).run().points[0].to_mapping()
        checkpoint.append(0, bogus)
        report = run_scenario(scenario, seed=5, store=store)
        assert report.to_mapping() == ExperimentRunner(scenario, seed=5).run().to_mapping()

    def test_resume_requires_a_store(self):
        with pytest.raises(ValueError, match="resume.*store"):
            run_scenario(sweep_scenario(), seed=5, resume=True)
