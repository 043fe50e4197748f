"""The rare-event BER engine: importance sampling + adaptive CI budgets.

Two contracts, both built on the shared statistical harness in
``tests/_stats.py``:

* **Unbiasedness** — ``trial_mode="importance"`` biases the photon /
  dark-count / afterpulse draws and corrects with per-symbol likelihood
  weights; on configs where errors are common enough for naive Monte-Carlo
  to measure cheaply, the weighted BER/SER must be *statistically equal* to
  the naive estimate (CI overlap per realisation, z-test across seeds) on
  both the batch and multichannel backends.  This is deliberately not a
  bit-identical claim: the two modes consume different draws.

* **Adaptive budgets** — a ``ci_target`` scenario runs each grid point in
  doubling installments until the first confidence-bearing metric's 95 %
  half-width reaches the target (or ``max_symbols`` caps it), records the
  spend in ``point.budget``, stays deterministic per seed, and resumes
  partial budgets from the checkpoint without re-simulating completed
  chunks.
"""

import json

import pytest

from _stats import (
    assert_intervals_overlap,
    assert_proportions_equal,
    bonferroni_sigma,
    resample_seeds,
)
from repro.scenarios import ExperimentRunner, ReportStore, Scenario
from repro.scenarios import executors as executors_mod
from repro.scenarios.runner import ExperimentReport

pytestmark = pytest.mark.stats

#: An inflated-BER operating point: errors are common enough (~10 %) for a
#: small naive run to measure precisely, so importance estimates have a
#: trustworthy reference — and dim enough that the importance floors bind
#: (miss probability < its 0.02 floor), so the weights are exercised.
INFLATED = {"ppm_bits": 4, "mean_detected_photons": 5.0}


def scenario_for(trial_mode, bits=16_000, backend="batch", channels=1, **kwargs):
    return Scenario(
        name=f"rareevent-{trial_mode}-{backend}",
        link_overrides=dict(INFLATED),
        metrics=("ber", "symbol_error_rate"),
        bits_per_point=bits,
        backend=backend,
        channels=channels,
        trial_mode=trial_mode,
        **kwargs,
    )


def single_point(scenario, seed=7):
    report = ExperimentRunner(scenario, seed=seed).run()
    assert len(report.points) == 1
    return report.points[0]


class TestImportanceUnbiasedness:
    """Weighted estimates statistically equal to naive Monte-Carlo."""

    @pytest.mark.parametrize("backend,channels", [("batch", 1), ("multichannel", 4)])
    def test_ber_cis_overlap_per_realisation(self, backend, channels):
        naive = single_point(scenario_for("naive", backend=backend, channels=channels))
        weighted = single_point(
            scenario_for("importance", backend=backend, channels=channels)
        )
        for metric in ("ber", "symbol_error_rate"):
            assert_intervals_overlap(
                naive.metric(metric), naive.confidence[metric],
                weighted.metric(metric), weighted.confidence[metric],
                slack=1.5, label=f"{backend} {metric} (naive vs importance)",
            )

    def test_estimator_unbiased_across_seeds(self):
        # The distribution-level claim: mean importance BER over independent
        # seeds equals mean naive BER within the combined standard errors.
        seeds = range(10, 18)
        bits = 4_000

        def ber(trial_mode):
            def estimate(seed):
                return single_point(
                    scenario_for(trial_mode, bits=bits), seed=seed
                ).metric("ber")
            return estimate

        naive_mean, naive_se = resample_seeds(ber("naive"), seeds)
        weighted_mean, weighted_se = resample_seeds(ber("importance"), seeds)
        combined_se = (naive_se**2 + weighted_se**2) ** 0.5
        assert abs(naive_mean - weighted_mean) <= 5.0 * combined_se, (
            f"importance mean {weighted_mean:.4g} vs naive {naive_mean:.4g} "
            f"(combined SE {combined_se:.2g})"
        )

    def test_error_strata_partition_the_weighted_error_mass(self):
        # Stratification across detection origins: the per-origin weighted
        # bit-error masses sum to the total weighted error mass exactly.
        from repro.scenarios.executors import evaluate_point

        scenario = scenario_for("importance")
        outcome = evaluate_point(scenario, {}, seed=3, backend="batch",
                                 chunk_symbols=1024)
        assert outcome.is_weighted
        assert outcome.error_strata, "inflated-BER run produced no error strata"
        assert sum(outcome.error_strata.values()) == pytest.approx(
            outcome.weighted_error_sum
        )
        assert all(mass >= 0.0 for mass in outcome.error_strata.values())

    def test_proposal_counts_still_recorded(self):
        # Raw count fields carry proposal-measure values under importance —
        # present and consistent, just not the unbiased estimate.
        point = single_point(scenario_for("importance"))
        assert point.bits == 16_000
        assert point.symbols == point.bits // INFLATED["ppm_bits"]
        assert sum(point.detection_counts.values()) > 0


class TestImportanceRefusals:
    def test_scalar_backend_refused(self):
        # The retired scalar engine is no backend at all now.
        with pytest.raises(ValueError, match="unknown link backend 'scalar'"):
            scenario_for("importance", backend="scalar")

    def test_crosstalk_refused(self):
        with pytest.raises(ValueError, match="crosstalk"):
            Scenario(
                name="xtalk-importance",
                link_overrides=dict(INFLATED, crosstalk_pitch=20e-6),
                metrics=("ber",),
                bits_per_point=256,
                backend="multichannel",
                channels=4,
                trial_mode="importance",
            )

    def test_max_symbols_needs_ci_target(self):
        with pytest.raises(ValueError, match="max_symbols"):
            scenario_for("naive", max_symbols=1000)


class TestAdaptiveBudgets:
    """Satellite: ``ci_target`` budgets stop, cap, persist and resume."""

    TARGET = 0.01

    def adaptive_scenario(self, trial_mode="naive", **kwargs):
        # 256 bits/point = 64 symbols: deliberately far short of the target
        # so convergence requires several doubling rounds.
        return scenario_for(trial_mode, bits=256, ci_target=self.TARGET, **kwargs)

    def test_stops_at_declared_half_width(self):
        point = single_point(self.adaptive_scenario())
        budget = point.budget
        assert budget is not None
        assert budget["converged"] is True
        assert budget["metric"] == "ber"
        assert budget["ci_target"] == self.TARGET
        assert budget["achieved"] <= self.TARGET
        assert point.confidence["ber"] == pytest.approx(budget["achieved"])
        # It actually had to grow the budget, and stopped within the sqrt(2)
        # overshoot a doubling schedule can produce.
        assert budget["rounds"] >= 2
        assert point.bits > 256
        assert budget["achieved"] > self.TARGET / 2.0

    def test_importance_mode_converges_too(self):
        point = single_point(self.adaptive_scenario(trial_mode="importance"))
        assert point.budget["converged"] is True
        assert point.budget["achieved"] <= self.TARGET

    def test_deterministic_per_seed(self):
        scenario = self.adaptive_scenario()
        first = ExperimentRunner(scenario, seed=11).run().to_mapping()
        second = ExperimentRunner(scenario, seed=11).run().to_mapping()
        other = ExperimentRunner(scenario, seed=12).run().to_mapping()
        assert first == second
        assert first != other

    def test_never_exceeds_max_symbols_cap(self):
        # An unreachable target: the cap is what stops the run, exactly.
        scenario = scenario_for("naive", bits=256, ci_target=1e-5, max_symbols=500)
        point = single_point(scenario)
        assert point.symbols <= 500
        assert point.symbols == 500  # 64 + 64 + 128 + 244: clipped, not skipped
        assert point.budget["converged"] is False
        assert point.budget["max_symbols"] == 500
        assert point.budget["achieved"] > 1e-5

    def test_budget_survives_artefact_roundtrip(self):
        report = ExperimentRunner(self.adaptive_scenario(), seed=11).run()
        text = json.dumps(report.to_mapping(), allow_nan=False)
        loaded = ExperimentReport.from_mapping(json.loads(text))
        assert loaded.points[0].budget == report.points[0].budget
        assert loaded.to_mapping() == report.to_mapping()

    def test_fixed_budget_points_have_no_budget_key(self):
        point = single_point(scenario_for("naive", bits=256))
        assert point.budget is None
        assert "budget" not in point.to_mapping()


class _CrashAfterPartials:
    """Checkpoint wrapper that simulates a crash after N partial appends."""

    def __init__(self, inner, allowed):
        self._inner = inner
        self._allowed = allowed

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def append_partial(self, index, mapping):
        self._inner.append_partial(index, mapping)
        self._allowed -= 1
        if self._allowed <= 0:
            raise KeyboardInterrupt("simulated crash mid-budget")


class TestAdaptiveResume:
    def checkpoint(self, scenario, runner, tmp_path):
        return ReportStore(tmp_path / "store").run_checkpoint(
            scenario.to_mapping(), runner.backend, 5, runner.chunk_symbols
        )

    def test_resume_replays_partial_budgets(self, tmp_path, monkeypatch):
        scenario = scenario_for("naive", bits=256, ci_target=0.01)
        uninterrupted = ExperimentRunner(scenario, seed=5).run()
        total_rounds = uninterrupted.points[0].budget["rounds"]
        assert total_rounds >= 4, "test needs several rounds to crash inside"

        # Crash after two partial rounds were checkpointed.
        runner = ExperimentRunner(scenario, seed=5)
        checkpoint = self.checkpoint(scenario, runner, tmp_path)
        with pytest.raises(KeyboardInterrupt):
            with runner.session(
                checkpoint=_CrashAfterPartials(checkpoint, 2)
            ) as session:
                for _point in session:
                    pass

        # Resume: completed installments must not be re-simulated — every
        # evaluated task starts at the absolute offset already on disk.
        calls = []
        real_evaluate = executors_mod.evaluate_task

        def spying_evaluate(task):
            calls.append((task.start_symbol, task.symbols))
            return real_evaluate(task)

        monkeypatch.setattr(executors_mod, "evaluate_task", spying_evaluate)
        resumed_runner = ExperimentRunner(scenario, seed=5)
        with resumed_runner.session(checkpoint=checkpoint) as session:
            resumed = session.report()

        restored_symbols = 64 + 64  # the two checkpointed installments
        assert calls, "resume evaluated nothing"
        assert calls[0][0] == restored_symbols
        assert all(start >= restored_symbols for start, _symbols in calls)
        simulated = sum(symbols for _start, symbols in calls)
        assert restored_symbols + simulated == resumed.points[0].symbols

        # And the stitched result is bit-identical to the uninterrupted run.
        assert resumed.to_mapping() == uninterrupted.to_mapping()

    def test_completed_points_win_over_stale_partials(self, tmp_path):
        # A final point recorded after a partial must shadow it on load.
        scenario = scenario_for("naive", bits=256, ci_target=0.02)
        runner = ExperimentRunner(scenario, seed=5)
        checkpoint = self.checkpoint(scenario, runner, tmp_path)
        with runner.session(checkpoint=checkpoint) as session:
            report = session.report()
        assert checkpoint.load_partials() == {}
        resumed_runner = ExperimentRunner(scenario, seed=5)
        with resumed_runner.session(checkpoint=checkpoint) as session:
            assert session.resumed_points == 1
            assert session.report().to_mapping() == report.to_mapping()


class TestHarnessSelfChecks:
    """The statistical library's own contracts (cheap, non-simulating)."""

    def test_bonferroni_widens_monotonically(self):
        thresholds = [bonferroni_sigma(3.0, n) for n in (1, 2, 8, 64)]
        assert thresholds == sorted(thresholds)
        assert thresholds[0] == 3.0
        assert thresholds[-1] < 6.0  # widened, not absurd

    def test_equal_proportions_pass_and_distant_fail(self):
        assert_proportions_equal(100, 10_000, 103, 10_000)
        with pytest.raises(AssertionError):
            assert_proportions_equal(100, 10_000, 300, 10_000)

    def test_interval_overlap_distinguishes(self):
        assert_intervals_overlap(0.5, 0.1, 0.6, 0.05)
        with pytest.raises(AssertionError):
            assert_intervals_overlap(0.5, 0.01, 0.6, 0.01)
