"""KERNELS — native compute kernels vs. the last Python hot loop.

Times the multichannel winner-resolution sweep of
:func:`repro.spad.array.detect_in_windows_multichannel` on an
*afterpulsing-heavy* workload: most windows arm a trap and release it within
the next couple of windows, so the speculate-then-correct exception sweep of
the ``"python"`` tier (:mod:`repro.kernels.speculative`) degenerates toward
per-window Python work.  The ``"cext"`` tier (the self-compiled C extension)
runs the same sequential physics without the interpreter.

The comparison asserts bit-identical outputs before it asserts speed —
kernels are an optimisation, never a physics change.  Measurements land in
``BENCH_kernels.json`` at the repository root.  The acceptance bar is >=5x on
the resolver path.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.analysis.report import ReportTable, TextReport
from repro.analysis.units import format_si
from repro.kernels import available_kernels, get_kernel

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

DURATION = 2e-8
DEAD_TIME = 1.1e-8
GATE_RECOVERY = 2e-9

RESOLVE_WINDOWS = 20_000
RESOLVE_CHANNELS = 16
SECONDARIES = 2


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
    record = {
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
    }
    RECORD_PATH.write_text(json.dumps({"resolver": record}, indent=2) + "\n")

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
