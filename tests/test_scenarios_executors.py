"""Executor equivalence and streaming-session tests.

The load-bearing contract: a :class:`ProcessExecutor` run is **bit-identical**
(``to_mapping()`` equality, not statistical closeness) to a
:class:`SerialExecutor` run — for multi-axis grids, under both seed policies,
and for every named library scenario — because point seeds are derived in the
parent before dispatch and both executors evaluate points through the same
``evaluate_point``.
"""

import pickle

import pytest

from repro.scenarios import (
    ExperimentRunner,
    PointTask,
    ProcessExecutor,
    Scenario,
    SerialExecutor,
    ThreadExecutor,
    available_executors,
    get_scenario,
    make_point_tasks,
    named_scenarios,
    resolve_executor,
)
from repro.scenarios.executors import evaluate_point, evaluate_task
from repro.simulation.montecarlo import LinkBatchTrial


def multi_axis_scenario(seed_policy: str) -> Scenario:
    return Scenario(
        name=f"executor-equivalence-{seed_policy}",
        description="2x2 grid exercised by the executor tests",
        link_overrides={"ppm_bits": 4},
        sweep_axes={
            "mean_detected_photons": (5.0, 40.0),
            "spad_dead_time": (16e-9, 48e-9),
        },
        metrics=("ber", "symbol_error_rate", "detection_rate"),
        bits_per_point=256,
        seed_policy=seed_policy,
    )


class TestProcessSerialEquivalence:
    @pytest.mark.parametrize("executor_name", ("process", "thread"))
    @pytest.mark.parametrize("seed_policy", ("per-point", "shared"))
    def test_multi_axis_grid_bit_identical(self, seed_policy, executor_name):
        scenario = multi_axis_scenario(seed_policy)
        serial = ExperimentRunner(scenario, seed=11).run()
        parallel = ExperimentRunner(
            scenario, seed=11, executor=executor_name, workers=2
        ).run()
        assert parallel.to_mapping() == serial.to_mapping()

    @pytest.mark.scenario_smoke
    @pytest.mark.parametrize(
        "executor",
        (ProcessExecutor(workers=2), ThreadExecutor(workers=2)),
        ids=("process", "thread"),
    )
    def test_every_named_scenario_bit_identical(self, executor):
        # The acceptance contract of the executor redesign: parallel dispatch
        # never changes a single bit of any library scenario's report.
        for name in named_scenarios():
            scenario = get_scenario(name).with_budget(128)
            serial = ExperimentRunner(scenario, seed=0).run()
            parallel = ExperimentRunner(scenario, seed=0, executor=executor).run()
            assert parallel.to_mapping() == serial.to_mapping(), name

    def test_thread_executor_runs_subclassed_scenarios(self):
        # Threads share the interpreter, so the no-subclass contract of the
        # process/cluster boundary does not apply: the live scenario object
        # (overrides and all) is evaluated directly.
        class PinnedPhotons(Scenario):
            def config_for_point(self, parameters=()):
                config, channel = super().config_for_point(parameters)
                import dataclasses

                return dataclasses.replace(config, mean_detected_photons=0.5), channel

        base = multi_axis_scenario("per-point")
        pinned = PinnedPhotons(**{
            "name": base.name,
            "link_overrides": base.link_overrides,
            "sweep_axes": base.sweep_axes,
            "metrics": base.metrics,
            "bits_per_point": base.bits_per_point,
        })
        serial = ExperimentRunner(pinned, seed=3).run()
        threaded = ExperimentRunner(pinned, seed=3, executor="thread", workers=2).run()
        assert threaded.to_mapping() == serial.to_mapping()

    def test_chunk_symbols_flows_into_work_units(self):
        scenario = multi_axis_scenario("per-point")
        small = ExperimentRunner(scenario, seed=4, chunk_symbols=16).run()
        large = ExperimentRunner(scenario, seed=4, chunk_symbols=8_192).run()
        # Different chunking => different (equally valid) sample paths, so the
        # runs must both be internally consistent yet not identical.
        assert small.to_mapping() != large.to_mapping()
        again = ExperimentRunner(
            scenario, seed=4, chunk_symbols=16, executor="process", workers=2
        ).run()
        assert again.to_mapping() == small.to_mapping()


class TestWorkUnits:
    def test_point_tasks_are_picklable_plain_data(self):
        scenario = multi_axis_scenario("per-point")
        tasks = ExperimentRunner(scenario, seed=2).point_tasks()
        assert [task.index for task in tasks] == [0, 1, 2, 3]
        for task in tasks:
            restored = pickle.loads(pickle.dumps(task))
            assert restored == task
            assert restored.scenario == scenario.to_mapping()

    def test_evaluate_task_matches_direct_evaluation(self):
        # The worker path (mapping round-trip + evaluate_point) must equal
        # evaluating the original Scenario object directly.
        scenario = multi_axis_scenario("per-point")
        runner = ExperimentRunner(scenario, seed=9)
        task = runner.point_tasks()[1]
        direct = evaluate_point(
            scenario, task.parameters, task.seed, task.backend, task.chunk_symbols
        )
        assert evaluate_task(task) == direct

    def test_make_point_tasks_derives_policy_seeds(self):
        shared = multi_axis_scenario("shared")
        tasks = make_point_tasks(shared, seed=5, backend="batch", chunk_symbols=64)
        assert len({task.seed for task in tasks}) == 1
        per_point = multi_axis_scenario("per-point")
        tasks = make_point_tasks(per_point, seed=5, backend="batch", chunk_symbols=64)
        assert len({task.seed for task in tasks}) == len(tasks)

    def test_serial_path_honours_scenario_subclass_overrides(self):
        # In-process execution must use the live scenario object, so
        # subclasses overriding compilation hooks keep working; only the
        # cross-process path reduces to base-class mapping semantics.
        class PinnedPhotons(Scenario):
            def config_for_point(self, parameters=()):
                config, channel = super().config_for_point(parameters)
                import dataclasses

                return dataclasses.replace(config, mean_detected_photons=0.5), channel

        base = multi_axis_scenario("per-point")
        pinned = PinnedPhotons(**{
            "name": base.name,
            "link_overrides": base.link_overrides,
            "sweep_axes": base.sweep_axes,
            "metrics": base.metrics,
            "bits_per_point": base.bits_per_point,
        })
        plain = ExperimentRunner(base, seed=3).run()
        overridden = ExperimentRunner(pinned, seed=3).run()
        # 0.5 photons/pulse is deep in the error waterfall: the override
        # must visibly change the physics of the serial run.
        assert overridden.points[0].metric("ber") > plain.points[0].metric("ber")
        # A process pool cannot honour the override (workers rebuild plain
        # Scenarios from the mapping), so it must refuse rather than silently
        # produce different physics than the serial run.
        with pytest.raises(TypeError, match="cannot cross a process boundary"):
            ExperimentRunner(pinned, seed=3, executor="process", workers=2).run()

    def test_worker_tolerates_metrics_missing_from_its_registry(self):
        # Under the spawn start method a worker's metric registry lacks any
        # runtime-registered metric; since metrics are evaluated in the
        # parent, the worker must drop unknown names rather than fail
        # Scenario validation — without changing the outcome.
        scenario = multi_axis_scenario("per-point")
        task = ExperimentRunner(scenario, seed=2).point_tasks()[0]
        doctored_mapping = dict(task.scenario)
        doctored_mapping["metrics"] = ["ber", "registered-only-in-the-parent"]
        doctored = PointTask(
            scenario=doctored_mapping,
            parameters=task.parameters,
            seed=task.seed,
            backend=task.backend,
            chunk_symbols=task.chunk_symbols,
            index=task.index,
        )
        assert evaluate_task(doctored) == evaluate_task(task)

    def test_link_batch_trial_is_picklable(self):
        from repro.core.config import LinkConfig

        trial = LinkBatchTrial(LinkConfig(ppm_bits=4), backend="batch")
        restored = pickle.loads(pickle.dumps(trial))
        assert restored.backend == "batch"
        assert restored.config.ppm_bits == 4


class TestSessionStreaming:
    def test_points_stream_incrementally_and_report_matches_run(self):
        scenario = multi_axis_scenario("per-point")
        runner = ExperimentRunner(scenario, seed=7)
        session = runner.session()
        assert (session.total_points, session.completed_points) == (4, 0)
        streamed = []
        for point in session:
            streamed.append(point)
            assert session.completed_points == len(streamed)
        report = session.report()
        assert tuple(streamed) == report.points  # serial: completion == grid order
        assert report == ExperimentRunner(scenario, seed=7).run()

    def test_report_drains_unconsumed_session(self):
        scenario = multi_axis_scenario("per-point")
        session = ExperimentRunner(scenario, seed=7).session()
        report = session.report()
        assert session.completed_points == 4
        assert session.report() is report  # cached

    def test_parallel_session_reassembles_grid_order(self):
        scenario = multi_axis_scenario("per-point")
        serial = ExperimentRunner(scenario, seed=7).run()
        session = ExperimentRunner(scenario, seed=7, workers=2).session()
        completed = list(session)
        assert len(completed) == 4
        assert session.report().to_mapping() == serial.to_mapping()

    def test_metric_failure_surfaces_its_cause_from_report(self):
        # If metric evaluation raises, a later report() must re-raise that
        # cause — not blame the executor for an undelivered point.
        scenario = multi_axis_scenario("per-point")
        runner = ExperimentRunner(scenario, seed=7)
        session = runner.session()
        original = runner.build_point

        def explode(parameters, outcome):
            raise ValueError("synthetic metric failure")

        runner.build_point = explode
        with pytest.raises(ValueError, match="synthetic metric failure"):
            next(session)
        runner.build_point = original
        with pytest.raises(ValueError, match="synthetic metric failure"):
            session.report()

    def test_closed_session_cancels_and_refuses_a_partial_report(self):
        scenario = multi_axis_scenario("per-point")
        with ExperimentRunner(scenario, seed=7, workers=2).session() as session:
            next(session)
        assert session.completed_points == 1
        with pytest.raises(RuntimeError, match="closed with 3 point"):
            session.report()
        # Closing before any iteration never starts the executor at all.
        fresh = ExperimentRunner(scenario, seed=7).session()
        fresh.close()
        assert list(fresh) == []
        with pytest.raises(RuntimeError, match="closed with 4 point"):
            fresh.report()

    def test_stream_failure_surfaces_its_cause_from_report(self):
        # A crashed pool (or any mid-stream executor error) closes the
        # stream; report() must re-raise that cause, not claim the points
        # were never delivered.
        class FlakyExecutor:
            def map_tasks(self, tasks):
                yield tasks[0].index, evaluate_task(tasks[0])
                raise RuntimeError("worker pool crashed")

        scenario = multi_axis_scenario("per-point")
        session = ExperimentRunner(scenario, seed=7, executor=FlakyExecutor()).session()
        next(session)
        with pytest.raises(RuntimeError, match="worker pool crashed"):
            next(session)
        with pytest.raises(RuntimeError, match="worker pool crashed"):
            session.report()

    def test_abandoned_process_stream_cancels_pending_points(self):
        scenario = multi_axis_scenario("per-point")
        tasks = ExperimentRunner(scenario, seed=1).point_tasks()
        stream = ProcessExecutor(workers=2).map_tasks(tasks)
        next(stream)
        # Closing the generator must cancel the queued grid points instead of
        # silently simulating the rest of the grid to completion.
        stream.close()

    def test_progress_adapter_reports_every_point(self):
        scenario = multi_axis_scenario("per-point")
        calls = []
        ExperimentRunner(scenario, seed=7).run(progress=lambda done, total: calls.append((done, total)))
        assert calls == [(1, 4), (2, 4), (3, 4), (4, 4)]


class TestResolveExecutor:
    def test_defaults_and_names(self):
        assert isinstance(resolve_executor(None), SerialExecutor)
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        process = resolve_executor("process", workers=3)
        assert isinstance(process, ProcessExecutor) and process.workers == 3
        thread = resolve_executor("thread", workers=3)
        assert isinstance(thread, ThreadExecutor) and thread.workers == 3
        # workers alone implies the process executor (threads are opt-in:
        # they only pay off under a GIL-releasing compute kernel).
        assert isinstance(resolve_executor(None, workers=2), ProcessExecutor)
        assert set(available_executors()) == {"serial", "thread", "process", "cluster"}

    def test_instances_pass_through(self):
        executor = ProcessExecutor(workers=2)
        assert resolve_executor(executor) is executor

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("threads")
        with pytest.raises(ValueError, match="takes a pool size"):
            resolve_executor("thread", workers="host:9000")
        with pytest.raises(ValueError, match="does not take workers"):
            resolve_executor("serial", workers=2)
        with pytest.raises(ValueError, match="only with a named executor"):
            resolve_executor(ProcessExecutor(), workers=2)
        with pytest.raises(ValueError):
            ProcessExecutor(workers=0)
        with pytest.raises(TypeError):
            resolve_executor(42)
