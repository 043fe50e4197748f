"""SCENARIOS — smoke-run every named scenario through the experiment layer.

Executes the full declarative scenario library
(:mod:`repro.scenarios.library`) end to end at a tiny trial budget and fails
on any exception or non-finite metric — the cheap guarantee that every named
experiment stays runnable on the batch backend as the link machinery evolves.
The same engine (:func:`repro.scenarios.smoke.run_smoke`) is wired into the
tier-1 test run as the marked test ``tests/test_scenarios_smoke.py``; this
benchmark additionally times the sweep and prints each scenario's report.

Run directly with ``python benchmarks/bench_scenarios.py`` or through the
benchmark harness.
"""

import pytest

from repro.analysis.report import ReportTable, TextReport
from repro.core.backend import available_backends
from repro.scenarios import named_scenarios
from repro.scenarios.smoke import run_smoke

SMOKE_BITS = 256


def run_library():
    return run_smoke(bits_per_point=SMOKE_BITS, seed=0)


def render_reports(reports) -> TextReport:
    report = TextReport(
        "SCENARIOS",
        "Named scenario library smoke run (tiny budget, batch backend)",
    )
    table = ReportTable(columns=["scenario", "points", "bits", "metrics"])
    for experiment in reports:
        table.add_row(
            experiment.name,
            len(experiment.points),
            experiment.total_bits,
            ", ".join(experiment.scenario["metrics"]),
        )
    report.add_table(table, caption=f"{SMOKE_BITS} payload bits per grid point")
    for experiment in reports:
        report.add_text(experiment.summary())
    return report


def test_scenario_library_smoke(benchmark):
    reports = benchmark.pedantic(run_library, rounds=1, iterations=1)
    print()
    print(render_reports(reports).render())

    assert len(reports) == len(named_scenarios())
    assert len(reports) >= 4
    for experiment in reports:
        assert experiment.backend in available_backends()
        assert len(experiment.points) >= 1


if __name__ == "__main__":
    print(render_reports(run_library()).render())
