"""KERNELS — native compute kernels vs. the last Python hot loops.

Times the two loops :mod:`repro.kernels` replaces, on the workloads where the
Python tiers actually hurt:

* **Window resolution** — the multichannel winner-resolution sweep of
  :func:`repro.spad.array.detect_multichannel` on an *afterpulsing-heavy*
  workload: most windows arm a trap and release it within the next couple of
  windows, so the speculate-then-correct exception sweep of the
  ``"python"`` tier (:mod:`repro.kernels.speculative`) degenerates toward
  per-window Python work.  The ``"cext"`` tier (the self-compiled C
  extension) runs the same sequential physics without the interpreter.
* **Arbitration scheduling** — the per-slot
  :meth:`~repro.noc.arbitration.RoundRobinArbiter.grant` loop of
  :meth:`~repro.noc.bus.OpticalBus.run` against the vectorised
  speculate-and-commit schedule (:func:`repro.kernels.round_robin_schedule`)
  on a saturated >1e5-request workload.

Both comparisons assert bit-identical outputs before they assert speed —
kernels are an optimisation, never a physics change.  Measurements land in
``BENCH_kernels.json`` at the repository root (read-modify-write so the two
tests share one record).  The acceptance bars are >=5x on the resolver path
and >=5x slots/sec on the arbitration path.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.analysis.report import ReportTable, TextReport
from repro.analysis.units import format_si
from repro.kernels import available_kernels, get_kernel, round_robin_schedule
from repro.noc.arbitration import RoundRobinArbiter

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

DURATION = 2e-8
DEAD_TIME = 1.1e-8
GATE_RECOVERY = 2e-9

RESOLVE_WINDOWS = 20_000
RESOLVE_CHANNELS = 16
SECONDARIES = 2

ARBITER_NODES = 16
ARBITER_REQUESTS = 120_000  # >1e5-request acceptance workload
ARBITER_HORIZON = 10**9  # effectively unbounded: drain everything


def _update_record(key, payload):
    """Merge one test's measurements into the shared perf record."""
    record = json.loads(RECORD_PATH.read_text()) if RECORD_PATH.exists() else {}
    record[key] = payload
    RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")


def native_resolver_kernel():
    """The C-extension kernel, or ``None`` on a host without a C compiler."""
    return get_kernel("cext") if "cext" in available_kernels() else None


# -- window resolution --------------------------------------------------------

def resolve_workload(seed=3):
    """Afterpulsing-heavy pre-drawn inputs in the production layout.

    Candidate times are absolute (window start + in-window offset, ``inf`` =
    no candidate), dark/background events sit behind CSR bounds, and 70% of
    windows arm an afterpulse trap with a release constant of 1.5 windows —
    so dead time and pending releases couple consecutive windows constantly,
    the regime the speculate-then-correct Python path is weakest in.
    """
    rng = np.random.default_rng(seed)
    shape = (RESOLVE_WINDOWS, RESOLVE_CHANNELS)
    window_starts = np.arange(RESOLVE_WINDOWS)[:, None] * DURATION

    def candidates(probability):
        times = window_starts + rng.uniform(0.0, DURATION, shape)
        times[rng.random(shape) >= probability] = np.inf
        return times

    def sparse_events(mean):
        counts = rng.poisson(mean, shape)
        bounds = np.zeros(shape[0] * shape[1] + 1, dtype=np.int64)
        np.cumsum(counts.ravel(), out=bounds[1:])
        return bounds, rng.uniform(0.0, DURATION, int(bounds[-1]))

    dark_bounds, dark_rel = sparse_events(0.03)
    background_bounds, background_rel = sparse_events(0.03)
    return {
        "primary": candidates(0.8),
        "secondary": np.stack([candidates(0.25) for _ in range(SECONDARIES)]),
        "dark_bounds": dark_bounds,
        "dark_rel": dark_rel,
        "background_bounds": background_bounds,
        "background_rel": background_rel,
        "trap_filled": rng.random(shape) < 0.7,
        "trap_release": rng.exponential(1.5 * DURATION, shape),
    }


def run_resolve_comparison(kernel):
    """Resolve one workload on both paths; returns (python_s, native_s)."""
    load = resolve_workload()
    args = (
        load["primary"], load["secondary"],
        load["dark_rel"], load["dark_bounds"],
        load["background_rel"], load["background_bounds"],
        load["trap_filled"], load["trap_release"],
        DEAD_TIME, GATE_RECOVERY, DURATION, 0.0,
    )
    start = time.perf_counter()
    python_times, python_origins = get_kernel("python").resolve_windows(*args)
    python_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    native_times, native_origins = kernel.resolve_windows(*args)
    native_elapsed = time.perf_counter() - start

    # Bit-identity first: a fast wrong answer is not a speedup.
    assert np.array_equal(native_times, python_times, equal_nan=True)
    assert np.array_equal(native_origins, python_origins)
    return python_elapsed, native_elapsed


def test_resolver_kernel_speedup(benchmark):
    kernel = native_resolver_kernel()
    if kernel is None:
        import pytest

        pytest.skip("no native resolver kernel in this environment")
    python_elapsed, native_elapsed = benchmark.pedantic(
        run_resolve_comparison, args=(kernel,), rounds=1, iterations=1, warmup_rounds=1
    )
    windows = RESOLVE_WINDOWS * RESOLVE_CHANNELS
    speedup = python_elapsed / native_elapsed
    _update_record("resolver", {
        "workload": {
            "windows": RESOLVE_WINDOWS,
            "channels": RESOLVE_CHANNELS,
            "secondaries": SECONDARIES,
            "trap_fill_probability": 0.7,
            "window_duration_s": DURATION,
            "dead_time_s": DEAD_TIME,
        },
        "python_fast_path": {
            "seconds": python_elapsed,
            "windows_per_sec": windows / python_elapsed,
        },
        "native_kernel": {
            "name": kernel.name,
            "seconds": native_elapsed,
            "windows_per_sec": windows / native_elapsed,
        },
        "speedup": speedup,
    })

    report = TextReport(
        "RESOLVER KERNEL",
        f"native '{kernel.name}' window resolution vs. the 'python' tier",
        paper_claim="SPAD arrays whose dead time and afterpulsing shape the "
                    "achievable optical link BER",
    )
    table = ReportTable(columns=["path", "wall time", "windows/sec"])
    table.add_row(
        "python tier", f"{python_elapsed:.3f} s",
        format_si(windows / python_elapsed, "win/s"),
    )
    table.add_row(
        f"{kernel.name} kernel", f"{native_elapsed:.3f} s",
        format_si(windows / native_elapsed, "win/s"),
    )
    report.add_table(
        table,
        caption=f"{RESOLVE_WINDOWS} windows x {RESOLVE_CHANNELS} channels, "
                f"afterpulsing-heavy (70% trap fill), bit-identical outputs",
    )
    report.add_comparison("resolver kernel speedup", ">=5x", f"{speedup:.1f}x")
    print()
    print(report.render())
    print(f"perf record written to {RECORD_PATH}")

    assert speedup >= 5.0


# -- arbitration scheduling ---------------------------------------------------

def arbiter_workload(seed=5):
    """A saturated request tape: (node, cost, arrival) per request."""
    rng = np.random.default_rng(seed)
    node_of = rng.integers(0, ARBITER_NODES, ARBITER_REQUESTS)
    costs = rng.integers(1, 5, ARBITER_REQUESTS).astype(np.int64)
    # Arrivals creep forward far slower than service: the bus stays
    # saturated, the regime where the per-slot grant loop dominates runtime.
    increments = np.where(
        rng.random(ARBITER_REQUESTS) < 0.1,
        rng.integers(1, 3, ARBITER_REQUESTS),
        0,
    )
    return node_of, costs, increments


def loaded_arbiter(node_of, increments):
    arbiter = RoundRobinArbiter(ARBITER_NODES)
    floor = [0] * ARBITER_NODES
    for item, node in enumerate(node_of.tolist()):
        floor[node] += int(increments[item])
        arbiter.request(node, item, arrival=floor[node])
    return arbiter


def scalar_drain(arbiter, costs):
    """The per-slot grant loop OpticalBus.run executes without a kernel."""
    granted, starts = [], []
    slot = 0
    while slot < ARBITER_HORIZON:
        grant = arbiter.grant(slot)
        if grant is None:
            next_arrival = arbiter.next_arrival()
            if next_arrival is None or next_arrival >= ARBITER_HORIZON:
                break
            slot = max(slot + 1, next_arrival)
        else:
            _, item = grant
            granted.append(item)
            starts.append(slot)
            slot += int(costs[item])
    return np.asarray(granted, dtype=np.int64), np.asarray(starts, dtype=np.int64), slot


def vector_drain(arbiter, costs, arbitrate):
    """The kernel path: snapshot once, schedule everything, commit."""
    arrivals, items, bounds = arbiter.snapshot()
    item_ids = np.asarray(items, dtype=np.int64)
    granted, starts, final_slot, final_rotation = arbitrate(
        arrivals, costs[item_ids], bounds, arbiter.next_node, 0, ARBITER_HORIZON
    )
    granted_nodes = np.searchsorted(bounds, granted, side="right") - 1
    arbiter.commit_grants(
        np.bincount(granted_nodes, minlength=arbiter.node_count), final_rotation
    )
    return item_ids[granted], starts, final_slot


def run_arbitration_comparison():
    node_of, costs, increments = arbiter_workload()
    arbitrate = get_kernel("auto").arbitrate or round_robin_schedule

    arbiter = loaded_arbiter(node_of, increments)
    start = time.perf_counter()
    scalar_items, scalar_starts, scalar_slot = scalar_drain(arbiter, costs)
    scalar_elapsed = time.perf_counter() - start
    assert arbiter.pending_count() == 0

    arbiter = loaded_arbiter(node_of, increments)
    start = time.perf_counter()
    vector_items, vector_starts, vector_slot = vector_drain(arbiter, costs, arbitrate)
    vector_elapsed = time.perf_counter() - start
    assert arbiter.pending_count() == 0

    # Same grants in the same order at the same slots: the schedule is part
    # of the bit-identity contract, not just a throughput trick.
    assert np.array_equal(vector_items, scalar_items)
    assert np.array_equal(vector_starts, scalar_starts)
    assert vector_slot == scalar_slot
    return scalar_elapsed, vector_elapsed, scalar_slot


def test_arbitration_schedule_speedup(benchmark):
    scalar_elapsed, vector_elapsed, slots = benchmark.pedantic(
        run_arbitration_comparison, rounds=1, iterations=1, warmup_rounds=1
    )
    scalar_rate = slots / scalar_elapsed
    vector_rate = slots / vector_elapsed
    speedup = vector_rate / scalar_rate
    kernel_name = get_kernel("auto").name if get_kernel("auto").arbitrate else "vector"
    _update_record("arbitration", {
        "workload": {
            "requests": ARBITER_REQUESTS,
            "nodes": ARBITER_NODES,
            "slots": slots,
            "slot_costs": "uniform 1..4",
            "traffic": "saturated (arrivals far behind service)",
        },
        "scalar_grant_loop": {
            "seconds": scalar_elapsed,
            "slots_per_sec": scalar_rate,
        },
        "scheduled_kernel": {
            "name": kernel_name,
            "seconds": vector_elapsed,
            "slots_per_sec": vector_rate,
        },
        "speedup": speedup,
    })

    report = TextReport(
        "ARBITRATION SCHEDULE",
        "vectorised speculate-and-commit schedule vs. the per-slot grant loop",
        paper_claim="an entirely optical through-chip bus serialising "
                    "hundreds of stacked dies through slotted arbitration",
    )
    table = ReportTable(columns=["path", "wall time", "slots/sec"])
    table.add_row(
        "per-slot grant loop", f"{scalar_elapsed:.3f} s",
        format_si(scalar_rate, "slot/s"),
    )
    table.add_row(
        f"schedule ({kernel_name})", f"{vector_elapsed:.3f} s",
        format_si(vector_rate, "slot/s"),
    )
    report.add_table(
        table,
        caption=f"{ARBITER_REQUESTS:,} requests over {ARBITER_NODES} nodes, "
                f"{slots:,} slots, identical grants/starts on both paths",
    )
    report.add_comparison("arbitration speedup", ">=5x slots/sec", f"{speedup:.1f}x")
    print()
    print(report.render())
    print(f"perf record written to {RECORD_PATH}")

    assert speedup >= 5.0


if __name__ == "__main__":
    kernel = native_resolver_kernel()
    if kernel is not None:
        run_resolve_comparison(kernel)  # warm-up (imports, C build, caches)
        python_elapsed, native_elapsed = run_resolve_comparison(kernel)
        print(
            f"resolver: python {python_elapsed:.3f} s  "
            f"{kernel.name} {native_elapsed:.3f} s  "
            f"speedup {python_elapsed / native_elapsed:.1f}x"
        )
    else:
        print("resolver: no native kernel in this environment, skipped")
    run_arbitration_comparison()  # warm-up
    scalar_elapsed, vector_elapsed, slots = run_arbitration_comparison()
    print(
        f"arbitration: scalar {slots / scalar_elapsed:,.0f} slots/s  "
        f"scheduled {slots / vector_elapsed:,.0f} slots/s  "
        f"speedup {scalar_elapsed / vector_elapsed:.1f}x"
    )
