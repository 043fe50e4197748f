"""Self-tests of the benchmark harness.

Run from the repository root with::

    python3 -m pytest perfbench/selftest.py -q

They cover the self-time arithmetic of the span recorder, the correctness
check's rejection of a shifted BER, and every workload end to end at a tiny
budget (in a subprocess, because the traced run patches the simulator for
the rest of its process).  About a minute on two cores.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import check  # noqa: E402
from spans import SpanRecorder, self_times  # noqa: E402


def test_self_time_subtracts_nested_and_overlapping_sibling_spans():
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 40, 0),  # siblings a and b overlap on [30, 40)
        ("b", 30, 60, 0),
        ("leaf", 15, 20, 1),  # nested two levels down
        ("a", 70, 80, 0),  # a second call of a, after b
    ]
    times = {name: (round(s * 1e9), round(t * 1e9), n) for name, (s, t, n) in self_times(spans).items()}
    assert times["root"] == (100 - 50 - 10, 100, 1)  # minus the union [10, 60) and [70, 80)
    assert times["a"] == (30 - 5 + 10, 40, 2)
    assert times["b"] == (30, 30, 1)
    assert times["leaf"] == (5, 5, 1)


def test_recorder_links_wrapped_calls_to_their_caller():
    recorder = SpanRecorder()

    inner = recorder.wrap(lambda: "done", "inner")
    outer = recorder.wrap(lambda: inner(), "outer")
    assert outer() == "done"
    by_name = {span[0]: (index, span[3]) for index, span in enumerate(recorder.spans)}
    assert by_name["outer"][1] == -1
    assert by_name["inner"][1] == by_name["outer"][0]
    shipped = recorder.export()
    recorder.adopt(shipped, parent=by_name["outer"][0])
    assert [span[3] for span in recorder.spans[2:]] == [0, 2]


def _report_like(reference):
    """A report mapping that sits exactly on the reference."""
    report = copy.deepcopy(reference)
    report["seed"] = 0
    return report


def test_check_rejects_a_ber_shifted_outside_its_confidence_interval():
    reference = check.load_reference("ber-vs-photons", 16_384)
    report = _report_like(reference)
    assert check.check_report(report, reference) == []
    point = report["points"][0]
    half = point["confidence"]["ber"]
    allowed = check.CI_WIDEN * (half + reference["points"][0]["confidence"]["ber"])
    point["metrics"]["ber"] += 0.9 * allowed
    assert check.check_report(report, reference) == []
    point["metrics"]["ber"] += 0.2 * allowed
    problems = check.check_report(report, reference)
    assert len(problems) == 1 and "ber" in problems[0]


def test_check_rejects_nan_where_the_registry_forbids_it():
    reference = check.load_reference("ber-vs-photons", 16_384)
    report = _report_like(reference)
    report["points"][1]["metrics"]["ber"] = None
    assert any("NaN" in problem for problem in check.check_report(report, reference))


#: A script that swaps every workload for a tiny budget, builds references
#: for exactly the seeds the tiny run simulates, and runs the benchmark.
_TINY_SCRIPT = r"""
import dataclasses, json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import check, run, workloads
check.REFERENCE_DIR = __import__("pathlib").Path(sys.argv[2])
check.REFERENCE_DIR.mkdir(exist_ok=True)
tiny = {
    "link-grid": dict(bits=512),
    "imager-process": dict(bits=32_768),
    "noc-load": dict(bits=1_024),
    "service-mix": dict(bits=64, hit_bits=64),
}
name, seed = sys.argv[3], int(sys.argv[4])
workload = dataclasses.replace(workloads.WORKLOADS[name], **tiny[name])
workloads.WORKLOADS[name] = workload
if name == "service-mix":
    base = seed * 1_000_000
    seeds = [base + i for i in range(6)] + [base + 500_000 + i for i in range(6)]
else:
    seeds = [seed]
reference = check.build_reference(workload.scenario, workload.bits, seeds)
with open(check.reference_path(workload.scenario, workload.bits), "w") as handle:
    json.dump(reference, handle)
sys.exit(run.main(sys.argv[5:]))
"""


def _benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", ["link-grid", "imager-process", "noc-load", "service-mix"])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_completes_at_a_tiny_budget(workload, trace, tmp_path):
    seed = 7
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    completed = subprocess.run(
        [sys.executable, "-c", _TINY_SCRIPT, str(ROOT), str(tmp_path), workload, str(seed), *argv],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, completed.stdout
    spec = _benchmark_spec()
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in expected
    }


def test_refuses_to_run_without_the_simulator_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    completed = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "link-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert completed.returncode != 0 and completed.stdout == ""
