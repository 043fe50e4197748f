"""PARALLEL — process-pool grid dispatch vs. the serial executor.

Runs the ``design-space-grid`` scenario (9 independent (N, C) TDC design
points) twice through ``ExperimentRunner``: once on the
:class:`~repro.scenarios.executors.SerialExecutor` and once on a
:class:`~repro.scenarios.executors.ProcessExecutor` with ``WORKERS``
processes, and records points/sec for both in ``BENCH_parallel.json`` at the
repository root, as every timing tracker records its measurement.

Because every point's seed is derived before dispatch, the two runs are
**bit-identical** — this benchmark asserts ``to_mapping()`` equality on top
of timing, so the perf record can never drift away from the correctness
contract.  The speedup bar (>=2x points/sec at 4 workers) only applies on
machines with >=4 usable cores; the record always captures ``cpu_count`` so
longitudinal readers can interpret single-core CI numbers.

Run directly with ``python benchmarks/bench_parallel_scenarios.py`` or
through the benchmark harness.
"""

import json
import time
from pathlib import Path

from repro.analysis.report import ReportTable, TextReport
from repro.scenarios import ExperimentRunner, get_scenario
from repro.scenarios.executors import usable_cpu_count

SCENARIO = "design-space-grid"
# Heavy enough per point that pool startup/IPC is noise next to the physics:
# 9 points at ~150 ms each. With 4 workers the 9 points quantise into 3
# waves, so the ideal speedup is 3x and the >=2x bar leaves real margin.
BITS_PER_POINT = 400_000
WORKERS = 4
SEED = 0
RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"


def run_executor(executor, workers=None):
    scenario = get_scenario(SCENARIO).with_budget(BITS_PER_POINT)
    runner = ExperimentRunner(scenario, seed=SEED, executor=executor, workers=workers)
    start = time.perf_counter()
    report = runner.run()
    return report, time.perf_counter() - start


def run_comparison():
    serial_report, serial_elapsed = run_executor("serial")
    process_report, process_elapsed = run_executor("process", workers=WORKERS)
    return serial_report, serial_elapsed, process_report, process_elapsed


def evaluate(serial_report, serial_elapsed, process_report, process_elapsed):
    points = len(serial_report.points)
    serial_rate = points / serial_elapsed
    process_rate = points / process_elapsed
    speedup = process_rate / serial_rate
    # Usable cores (scheduler affinity/cpusets), not installed ones; CFS
    # bandwidth quotas remain invisible, so the recorded count is still an
    # upper bound on what a throttled container can use.
    cpu_count = usable_cpu_count()

    record = {
        "workload": {
            "scenario": SCENARIO,
            "points": points,
            "bits_per_point": BITS_PER_POINT,
            "seed": SEED,
            "workers": WORKERS,
            "cpu_count": cpu_count,
        },
        "serial": {"seconds": serial_elapsed, "points_per_sec": serial_rate},
        "process": {"seconds": process_elapsed, "points_per_sec": process_rate},
        "speedup": speedup,
        "reports_bit_identical": serial_report.to_mapping() == process_report.to_mapping(),
    }
    RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")

    report = TextReport(
        "PARALLEL",
        "Process-pool grid dispatch vs. serial executor on the TDC design-space grid",
        paper_claim="grid points are independent seed-derived units of work; "
                    "dispatching them side by side changes wall clock, never content",
    )
    table = ReportTable(columns=["executor", "wall time", "points/sec"])
    table.add_row("serial", f"{serial_elapsed:.3f} s", f"{serial_rate:.2f}")
    table.add_row(f"process (w={WORKERS})", f"{process_elapsed:.3f} s", f"{process_rate:.2f}")
    report.add_table(table, caption=f"{points} points x {BITS_PER_POINT:,} bits, {cpu_count} CPU(s)")
    report.add_comparison(
        "parallel speedup", f">=2x points/sec at {WORKERS} workers (needs >=4 cores)",
        f"{speedup:.2f}x on {cpu_count} core(s)",
    )
    print()
    print(report.render())
    print(f"perf record written to {RECORD_PATH}")
    return record


def test_parallel_dispatch(benchmark):
    serial_report, serial_elapsed, process_report, process_elapsed = benchmark.pedantic(
        run_comparison, rounds=1, iterations=1
    )
    record = evaluate(serial_report, serial_elapsed, process_report, process_elapsed)

    # The correctness half of the contract holds everywhere, always.
    assert record["reports_bit_identical"]
    # The perf half needs real cores to mean anything.
    if record["workload"]["cpu_count"] >= 4:
        assert record["speedup"] >= 2.0


if __name__ == "__main__":
    evaluate(*run_comparison())
