"""KERNELS — the native scan vs. the Python reference on an array pass.

Times the one sequential loop of
:func:`repro.spad.array.detect_in_windows_multichannel`: its channel-major
segmented ``scan_windows`` call (a segment per channel, each window's
interference pulses, dark counts and background events in its candidate
list) on an *afterpulsing-heavy* workload, where most windows arm a trap and
release it within the next couple of windows, so dead time and pending
releases couple consecutive windows constantly.  The ``"python"`` tier runs
the reference loop of :mod:`repro.kernels.reference` window by window; the
``"cext"`` tier (the self-compiled C extension) runs the same state machine
without the interpreter.

The comparison asserts bit-identical outputs before it asserts speed —
kernels are an optimisation, never a physics change.  Measurements land in
``BENCH_kernels.json`` at the repository root.  The acceptance bar is >=5x on
the array scan.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.analysis.report import ReportTable, TextReport
from repro.analysis.units import format_si
from repro.kernels import available_kernels, get_kernel
from repro.spad.array import channel_major_draws

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

DURATION = 2e-8
DEAD_TIME = 1.1e-8
GATE_RECOVERY = 2e-9

WINDOWS = 20_000
CHANNELS = 16
INTERFERENCE_SETS = 2
TRAP_FILL = 0.7


def native_kernel():
    """The C-extension kernel, or ``None`` on a host without a C compiler."""
    return get_kernel("cext") if "cext" in available_kernels() else None


def scan_workload(seed=3):
    """Afterpulsing-heavy array-pass draws, laid out for one segmented scan.

    80% of windows carry a detected pulse, each of the two interference sets
    lands in 25% of windows, dark counts and background events average 0.03
    per window each, and 70% of windows arm an afterpulse trap with a
    release constant of 1.5 windows.  Returns the scan's positional and
    keyword arguments.
    """
    rng = np.random.default_rng(seed)
    shape = (WINDOWS, CHANNELS)

    def pulses(probability):
        return rng.uniform(0.0, DURATION, shape), rng.random(shape) < probability

    def events(mean):
        counts = rng.poisson(mean, shape)
        return counts, rng.uniform(0.0, DURATION, int(counts.sum()))

    relative, valid = pulses(0.8)
    interference = [pulses(0.25) for _ in range(INTERFERENCE_SETS)]
    dark_counts, dark_rel = events(0.03)
    background_counts, background_rel = events(0.03)
    *draws, candidate_origins = channel_major_draws(
        relative, valid, interference, dark_counts, dark_rel,
        background_counts, background_rel,
        rng.random(shape) < TRAP_FILL, rng.exponential(1.5 * DURATION, shape),
    )
    args = (*draws, DEAD_TIME, GATE_RECOVERY, DURATION, 0.0, -np.inf, np.inf)
    return args, {
        "segments": np.arange(CHANNELS) * WINDOWS,
        "candidate_origins": candidate_origins,
    }


def run_scan_comparison(kernel):
    """Scan one workload on both tiers; returns (python_s, native_s)."""
    args, kwargs = scan_workload()
    start = time.perf_counter()
    python_result = get_kernel("python").scan_windows(*args, **kwargs)
    python_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    native_result = kernel.scan_windows(*args, **kwargs)
    native_elapsed = time.perf_counter() - start

    # Bit-identity first: a fast wrong answer is not a speedup.
    assert np.array_equal(native_result[0], python_result[0], equal_nan=True)
    for native, python in zip(native_result[1:], python_result[1:]):
        assert np.array_equal(native, python)
    return python_elapsed, native_elapsed


def test_array_scan_kernel_speedup(benchmark):
    kernel = native_kernel()
    if kernel is None:
        import pytest

        pytest.skip("no native kernel in this environment")
    python_elapsed, native_elapsed = benchmark.pedantic(
        run_scan_comparison, args=(kernel,), rounds=1, iterations=1, warmup_rounds=1
    )
    windows = WINDOWS * CHANNELS
    speedup = python_elapsed / native_elapsed
    record = {
        "workload": {
            "windows": WINDOWS,
            "channels": CHANNELS,
            "interference_sets": INTERFERENCE_SETS,
            "trap_fill_probability": TRAP_FILL,
            "window_duration_s": DURATION,
            "dead_time_s": DEAD_TIME,
        },
        "python_reference": {
            "seconds": python_elapsed,
            "windows_per_sec": windows / python_elapsed,
        },
        "native_kernel": {
            "name": kernel.name,
            "seconds": native_elapsed,
            "windows_per_sec": windows / native_elapsed,
        },
        "speedup": speedup,
    }
    RECORD_PATH.write_text(json.dumps({"array_scan": record}, indent=2) + "\n")

    report = TextReport(
        "ARRAY SCAN KERNEL",
        f"native '{kernel.name}' channel-major array scan vs. the 'python' tier",
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
        caption=f"{WINDOWS} windows x {CHANNELS} channels, {INTERFERENCE_SETS} interference "
                f"sets and background, afterpulsing-heavy (70% trap fill), bit-identical outputs",
    )
    report.add_comparison("array scan kernel speedup", ">=5x", f"{speedup:.1f}x")
    print()
    print(report.render())
    print(f"perf record written to {RECORD_PATH}")

    assert speedup >= 5.0


if __name__ == "__main__":
    kernel = native_kernel()
    if kernel is not None:
        run_scan_comparison(kernel)  # warm-up (imports, C build, caches)
        python_elapsed, native_elapsed = run_scan_comparison(kernel)
        print(
            f"array scan: python {python_elapsed:.3f} s  "
            f"{kernel.name} {native_elapsed:.3f} s  "
            f"speedup {python_elapsed / native_elapsed:.1f}x"
        )
    else:
        print("array scan: no native kernel in this environment, skipped")
