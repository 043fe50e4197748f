"""Tier-1 smoke of the named scenario library (marked ``scenario_smoke``).

Runs every named scenario end to end at a tiny trial budget on its declared
vectorised backend (batch or multichannel) — the same engines
``benchmarks/bench_scenarios.py`` times — and fails on any exception or
non-finite metric.  Deselect with ``-m "not scenario_smoke"`` when iterating
on unrelated subsystems.
"""

import math

import pytest

from repro.core.backend import available_backends
from repro.scenarios import named_scenarios
from repro.scenarios.metrics import metric_allows_nan
from repro.scenarios.smoke import SmokeFailure, run_smoke


@pytest.mark.scenario_smoke
def test_every_named_scenario_runs_and_reports_finite_metrics():
    reports = run_smoke(bits_per_point=128, seed=0)
    assert len(reports) == len(named_scenarios())
    assert len(reports) >= 4
    for report in reports:
        # Every named scenario runs a registered engine ("batch" or the
        # multichannel array backend).
        assert report.backend in available_backends()
        assert report.points, report.name
        for point in report.points:
            assert point.bits >= 128
            for metric, value in point.metrics.items():
                # NaN-tolerant metrics (the NoC ratios) may legitimately be
                # empty at a 128-bit smoke budget; everything else must be
                # finite.  Infinity is never acceptable.
                assert not math.isinf(value), (report.name, metric)
                if not metric_allows_nan(metric):
                    assert math.isfinite(value), (report.name, metric)


@pytest.mark.scenario_smoke
def test_smoke_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        run_smoke(bits_per_point=0)


@pytest.mark.scenario_smoke
def test_smoke_surfaces_scenario_failures_by_name():
    with pytest.raises(KeyError):
        run_smoke(bits_per_point=64, names=["no-such-scenario"])
