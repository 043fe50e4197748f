"""NOC TRAFFIC — one-pass optical bus vs. the scalar slot-by-slot loop.

Times the refactored NoC layer on the workload the experiment layer actually
executes for ``noc-*`` scenarios: :class:`repro.simulation.montecarlo.
NocTrafficTrial` chunks of uniform-traffic packets drained through the slotted
:class:`~repro.noc.bus.OpticalBus`.  Both sides run from the bus's traffic
table: the trial offers its drawn arrays with one
:meth:`~repro.noc.bus.OpticalBus.offer_many`, and the arbitration, the
epochs and the recorded outcomes are array passes over the table's rows.
The batched path sends all of the run's ``(epoch, source, destination)``
groups in one segmented pass (:func:`repro.core.fastlink.transmit_segments`),
each group a segment on its pair's ``"batch"`` link and the run's padded
bits one gather from the table's buffer (broadcast would be one ``(S, C)``
multichannel pass per epoch and source); the baseline is the same
arbitration driving the scalar engine one packet at a time — the
pre-refactor slot loop.

Both paths are constructed through :func:`repro.core.backend.make_link` and
are statistically equivalent by the backend contract (locked by
``tests/test_noc_batching.py``); arbitration is shared, so slot assignments
and latencies are *identical* and only the transmission engine differs.

A batched drain takes a few milliseconds, so one timing is noise: each
path is timed over ``ROUNDS`` alternating rounds and the median is kept.
Writes the measurements to ``BENCH_noc.json`` at the repository root (the
``BENCH_fastpath.json`` pattern).  The acceptance bar is a >=5x slots/sec
speedup on a >=64-packet uniform-traffic workload.
"""

import json
import time
from pathlib import Path
from statistics import median

from repro.analysis.report import ReportTable, TextReport
from repro.analysis.units import NS, format_si
from repro.core.config import LinkConfig
from repro.simulation.montecarlo import NocTrafficTrial, chunk_generators

PACKETS = 128  # >=64-packet acceptance workload
ROUNDS = 7  # timed rounds per path; the median of each path is recorded
PACKET_BITS = 64
OFFERED_LOAD = 0.8
STACK_DIES = 4
CONFIG = LinkConfig(
    ppm_bits=4,
    slot_duration=2 * NS,
    extra_guard=32 * NS,
    wavelength=1050e-9,
    mean_detected_photons=20_000.0,
)
RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_noc.json"


def run_traffic(backend: str):
    """Drain the uniform-traffic workload on one backend; returns (stats, seconds)."""
    trial = NocTrafficTrial(
        config=CONFIG,
        backend=backend,
        stack_dies=STACK_DIES,
        traffic="uniform",
        offered_load=OFFERED_LOAD,
        packet_bits=PACKET_BITS,
    )
    start = time.perf_counter()
    # One chunk = one bus run: the whole workload is a single one-pass
    # (or scalar) drain, the shape ExperimentRunner compiles noc points into.
    ((count, generator),) = chunk_generators(11, "bench-noc", PACKETS, PACKETS)
    bus = trial(generator, count)
    return bus.statistics, time.perf_counter() - start


def run_comparison(rounds: int = ROUNDS):
    """Drain the workload ``rounds`` times on each path, alternating; returns
    each path's statistics and median seconds."""
    batched, scalar = [], []
    for _ in range(rounds):
        batched_stats, seconds = run_traffic("batch")
        batched.append(seconds)
        scalar_stats, seconds = run_traffic("scalar")
        scalar.append(seconds)
    return batched_stats, median(batched), scalar_stats, median(scalar)


def test_noc_traffic_speedup(benchmark):
    batched_stats, batched_elapsed, scalar_stats, scalar_elapsed = benchmark.pedantic(
        run_comparison, rounds=1, iterations=1, warmup_rounds=1
    )

    # Arbitration is shared, so both paths serialise the same busy slots.
    assert batched_stats.busy_slots == scalar_stats.busy_slots
    slots = batched_stats.busy_slots
    batched_rate = slots / batched_elapsed
    scalar_rate = slots / scalar_elapsed
    speedup = batched_rate / scalar_rate

    record = {
        "workload": {
            "packets": PACKETS,
            "packet_bits": PACKET_BITS,
            "traffic": "uniform",
            "offered_load": OFFERED_LOAD,
            "stack_dies": STACK_DIES,
            "busy_slots": slots,
            "ppm_bits": CONFIG.ppm_bits,
            "slot_duration_s": CONFIG.slot_duration,
            "emitted_photons": CONFIG.mean_detected_photons,
            "timed_rounds": ROUNDS,
        },
        "scalar_slot_loop": {
            "seconds": scalar_elapsed,
            "slots_per_sec": scalar_rate,
            "delivery_ratio": scalar_stats.delivery_ratio,
            "bit_error_rate": scalar_stats.bit_error_rate,
        },
        "batched_bus": {
            "seconds": batched_elapsed,
            "slots_per_sec": batched_rate,
            "delivery_ratio": batched_stats.delivery_ratio,
            "bit_error_rate": batched_stats.bit_error_rate,
        },
        "speedup": speedup,
    }
    RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")

    report = TextReport(
        "NOC TRAFFIC",
        "one-pass optical bus vs. the scalar slot-by-slot loop",
        paper_claim="an entirely optical through-chip bus that could service "
                    "hundreds of thinned stacked dies (broadcast by construction)",
    )
    table = ReportTable(columns=["path", "wall time", "slots/sec", "delivery", "BER"])
    table.add_row(
        "scalar slot loop", f"{scalar_elapsed:.3f} s", format_si(scalar_rate, "slot/s"),
        f"{scalar_stats.delivery_ratio:.3f}", f"{scalar_stats.bit_error_rate:.2e}",
    )
    table.add_row(
        "one-pass bus", f"{batched_elapsed:.3f} s", format_si(batched_rate, "slot/s"),
        f"{batched_stats.delivery_ratio:.3f}", f"{batched_stats.bit_error_rate:.2e}",
    )
    report.add_table(
        table,
        caption=f"{PACKETS} uniform-traffic packets x {PACKET_BITS} payload bits "
                f"over a {STACK_DIES}-die stack at {OFFERED_LOAD} offered load "
                f"(median of {ROUNDS} rounds per path)",
    )
    report.add_comparison("bus batching speedup", ">=5x slots/sec", f"{speedup:.1f}x")
    print()
    print(report.render())
    print(f"perf record written to {RECORD_PATH}")

    assert speedup >= 5.0
    # Same physics on both paths: delivery must agree within Monte-Carlo
    # noise (binomial bound on PACKETS packets, generous 5-sigma-ish).
    tolerance = 5.0 * (0.25 / PACKETS) ** 0.5
    assert abs(batched_stats.delivery_ratio - scalar_stats.delivery_ratio) < tolerance


if __name__ == "__main__":
    run_comparison(1)  # warm-up (imports, allocator, caches)
    batched_stats, batched_elapsed, scalar_stats, scalar_elapsed = run_comparison()
    print(
        f"batched: {batched_stats.busy_slots / batched_elapsed:,.0f} slots/s  "
        f"scalar: {scalar_stats.busy_slots / scalar_elapsed:,.0f} slots/s  "
        f"speedup {scalar_elapsed / batched_elapsed:.1f}x"
    )
