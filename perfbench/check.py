"""Correctness check applied to every report the benchmark times.

A report passes when

* no grid point failed and every metric is finite, except ``NaN`` where the
  metric registry allows it (``metric_allows_nan``: the NoC ratios of an
  empty point);
* it covers the same grid points as the reference for its scenario and
  budget in ``perfbench/reference/``;
* every metric agrees with the reference under the CI-overlap rule of
  ``scripts/regression_check.py --mode confidence``: fail when
  ``|a - b| > h_a + h_b``, with both half-widths widened by
  :data:`CI_WIDEN`.

Two departures from that script, both measured: the reference half-width is
*empirical* — 1.96 standard deviations of single-run values over
:data:`REFERENCE_SEEDS` seeds — because bit errors cluster (dead time,
afterpulsing), so the binomial half-width a report publishes understates the
run-to-run spread by about 2x at the high-photon points of
``ber-vs-photons``.  And the widening by 3 puts chance failures beyond about
six estimated standard deviations: a benchmark session makes thousands of
comparisons, and with a factor of 2 the NoC bus utilisation of one seed sat
4.9 estimated standard deviations from a 20-seed reference (its spread is
heavier-tailed than normal).
A metric without a published half-width uses 0 on the run side, so a
deterministic metric (zero spread over the reference seeds) must match
exactly.  The reference value is the mean over the seeds, except that a
metric equal on every seed keeps that exact value.

The report digest is recorded as a fingerprint, never judged: it lets a
later change show bit-identity with this one.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence

#: Factor applied to both 95 % half-widths before the overlap test.
CI_WIDEN = 3.0

#: Seeds each reference is built from.
REFERENCE_SEEDS = tuple(range(20_081_000, 20_081_040))

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(scenario: str, bits: int) -> Path:
    return REFERENCE_DIR / f"{scenario}-{bits}.json"


def load_reference(scenario: str, bits: int) -> Dict[str, Any]:
    """The reference of one scenario at one per-point budget."""
    with open(reference_path(scenario, bits)) as handle:
        return json.load(handle)


def _key(parameters: Mapping[str, Any]) -> str:
    return json.dumps(parameters, sort_keys=True)


def build_reference(
    scenario: str, bits: int, seeds: Sequence[int] = REFERENCE_SEEDS
) -> Dict[str, Any]:
    """Run ``scenario`` once per seed and summarise every point's metrics."""
    from repro.frontdoor import RunRequest

    values: Dict[str, Dict[str, List[float]]] = {}
    parameters: Dict[str, Mapping[str, Any]] = {}
    for seed in seeds:
        report = RunRequest.build(scenario, seed=seed, bits=bits).runner().run()
        for point in report.points:
            key = _key(point.parameters)
            parameters[key] = point.parameters
            for name, value in point.metrics.items():
                values.setdefault(key, {}).setdefault(name, []).append(value)
    points = []
    for key, metrics in values.items():
        means, halves = {}, {}
        for name, samples in metrics.items():
            finite = [value for value in samples if not math.isnan(value)]
            if not finite:
                means[name] = halves[name] = None
            elif min(finite) == max(finite):
                means[name], halves[name] = finite[0], 0.0
            else:
                means[name] = statistics.fmean(finite)
                halves[name] = 1.96 * statistics.stdev(finite)
        points.append({"parameters": parameters[key], "metrics": means, "confidence": halves})
    return {"scenario": scenario, "bits_per_point": bits, "seeds": list(seeds), "points": points}


def check_report(report: Mapping[str, Any], reference: Mapping[str, Any]) -> List[str]:
    """Problems found in a report mapping (an empty list means it passes)."""
    from repro.scenarios.metrics import metric_allows_nan

    problems: List[str] = []
    if report.get("failures"):
        problems.append(f"{len(report['failures'])} point(s) failed")
    current = {_key(point["parameters"]): point for point in report["points"]}
    expected = {_key(point["parameters"]): point for point in reference["points"]}
    if set(current) != set(expected):
        problems.append(f"grid differs from the reference: {sorted(set(current) ^ set(expected))}")
    for key in sorted(set(current) & set(expected)):
        point, ref_point = current[key], expected[key]
        for name, value in point["metrics"].items():
            if value is None:  # NaN serialises as null
                if not metric_allows_nan(name):
                    problems.append(f"{key}: {name} is NaN")
                continue
            if not math.isfinite(value):
                problems.append(f"{key}: {name} is {value}")
                continue
            ref_value = ref_point["metrics"].get(name)
            if ref_value is None:
                continue  # NaN on every reference seed: nothing to compare with
            half = point["confidence"].get(name) or 0.0
            ref_half = ref_point["confidence"][name]
            if abs(value - ref_value) > CI_WIDEN * (half + ref_half):
                problems.append(
                    f"{key}: {name} {value} +/- {half} disagrees with reference "
                    f"{ref_value} +/- {ref_half}"
                )
    return problems


def digest(report: Mapping[str, Any]) -> str:
    """Content digest of a report mapping (the store's artefact digest)."""
    from repro.scenarios.runner import ExperimentReport
    from repro.scenarios.store import report_digest

    return report_digest(ExperimentReport.from_mapping(report))
