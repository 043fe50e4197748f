"""Smoke execution of the named scenario library.

:func:`run_smoke` executes every library scenario end to end at a tiny trial
budget and raises :class:`SmokeFailure` on any exception or non-finite metric.
It is the engine behind ``benchmarks/bench_scenarios.py`` and the marked
tier-1 test ``tests/test_scenarios_smoke.py`` — a cheap guarantee that every
declarative scenario stays runnable as the link machinery evolves.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.scenarios.library import get_scenario, named_scenarios
from repro.scenarios.runner import ExperimentReport, ExperimentRunner


class SmokeFailure(AssertionError):
    """A named scenario failed to execute or produced a non-finite metric."""


def run_smoke(
    bits_per_point: int = 256,
    seed: int = 0,
    names: Optional[Sequence[str]] = None,
) -> List[ExperimentReport]:
    """Run every (or the given) named scenario at a reduced budget.

    Returns the structured reports, in scenario-registration order.  Raises
    :class:`SmokeFailure` if any scenario raises or reports an invalid metric
    value (inf always; NaN unless the metric was registered with
    ``allow_nan=True``), naming the scenario (and metric/point) at fault.
    """
    if bits_per_point <= 0:
        raise ValueError("bits_per_point must be positive")
    reports: List[ExperimentReport] = []
    for name in names if names is not None else named_scenarios():
        scenario = get_scenario(name).with_budget(bits_per_point)
        try:
            # ExperimentRunner.run itself raises on any NaN/inf metric value,
            # so every failure mode — exception or non-finite metric — lands
            # in this one wrapper, tagged with the scenario at fault.
            reports.append(ExperimentRunner(scenario, seed=seed).run())
        except Exception as error:
            raise SmokeFailure(f"scenario {name!r} failed to run: {error}") from error
    return reports
