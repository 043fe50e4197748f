#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, every metric named.

Usage (from the repository root)::

    python3 perfbench/run.py --workload link-grid --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the workload twice as long, first untraced and then with every layer
boundary wrapped (``spans.py``), and reports the per-layer metrics.  Every
timed operation is checked for correctness (``check.py``); a run whose
compute kernel resolved to another tier than this host should give counts
as failed.  Contract timings are divided by the host slowdown measured just
before each (``workloads.host_slowdown``), set-up times by a reference
interpreter's NumPy import time (``workloads.import_slowdown``; README,
"Host-speed scaling").
Human-readable lines (provenance, each metric with its unit,
sample counts, failed fraction) come first; the last line of standard output
is the JSON result.  Scratch files (stores, the compiled-kernel cache, span
dumps, full results) go under ``.bench_build/perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"

#: Set-up samples per run (fresh interpreters / server boots); the median is reported.
SETUP_SAMPLES = 7
SERVER_BOOTS = 5
#: Spans whose self time is whatever no narrower layer wrapper claimed.
CATCH_ALL_SPANS = ("executors.run", "executors.evaluate_point")


def _prepare_environment() -> None:
    """Keep every file the benchmark writes inside the checkout."""
    for sub in ("cext", "tmp"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CEXT_CACHE"] = str(WORK / "cext")
    os.environ["TMPDIR"] = str(WORK / "tmp")
    # The benchmark measures the default kernel resolution ("auto").
    os.environ.pop("REPRO_KERNEL", None)
    os.environ["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else ""
    )
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def expected_kernel() -> str:
    """The tier ``kernel="auto"`` should resolve to on this host."""
    import importlib.util

    if importlib.util.find_spec("numba") is not None:
        return "numba"
    if shutil.which(os.environ.get("CC") or "cc") or shutil.which("gcc"):
        return "cext"
    return "vector"


def setup_probe(scenario: str, bits: int) -> Dict[str, Any]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), scenario, str(bits)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def setup_seconds(scenario: str, bits: int) -> float:
    """Median set-up seconds over ``SETUP_SAMPLES`` fresh interpreters, at reference speed."""
    from workloads import import_slowdown, scaled_median

    samples = []
    for _ in range(SETUP_SAMPLES):
        slowdown = import_slowdown()
        samples.append((setup_probe(scenario, bits)["setup_s"], slowdown))
    return scaled_median(samples)


def git_sha() -> Optional[str]:
    """HEAD of the repository at ``ROOT``; None in a plain (non-git) checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def provenance(workload, probe: Dict[str, Any], cache_warm: bool) -> Dict[str, Any]:
    import numpy

    from repro.kernels import available_kernels, get_kernel
    from repro.scenarios.executors import usable_cpu_count

    return {
        "workload": workload.name,
        "scenario": workload.scenario,
        "bits_per_point": workload.bits,
        "nproc": os.cpu_count(),
        "usable_cpu_count": usable_cpu_count(),
        "executor": getattr(workload, "executor", None) or "serial",
        "workers": getattr(workload, "workers", None),
        "kernel": get_kernel().name,
        "kernel_in_fresh_interpreter": probe["kernel"],
        "kernel_expected": expected_kernel(),
        "available_kernels": list(available_kernels()),
        "kernel_cache_warm_at_start": cache_warm,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
    }


def percentile(values: List[float], q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q))


def end_to_end(outcome, setup_s: float) -> Dict[str, Tuple[float, str]]:
    """The contract metrics, from host-speed-scaled timings (see README)."""
    scaled = outcome.scaled_ms
    miss = median(scaled["miss"])
    return {
        "setup_s": (setup_s, "s"),
        "sim_bits_per_s": (outcome.offered_bits_per_run / (miss / 1e3), "bit/s"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
        "miss_p50_ms": (miss, "ms"),
        "hit_p50_ms": (median(scaled["hit"]), "ms"),
        "stats_p50_ms": (median(scaled["stats"]), "ms"),
    }


def per_layer(recorder, outcome, untraced_miss_ms: float) -> Dict[str, Tuple[float, str]]:
    from spans import self_times

    times = self_times(recorder.spans)
    cycles = outcome.cycles
    counters = recorder.counters

    def self_s(*names: str) -> float:
        return sum(times.get(name, (0.0, 0.0, 0))[0] for name in names) / cycles

    def calls(name: str) -> int:
        return times.get(name, (0.0, 0.0, 0))[2]

    lat = outcome.latencies_ms
    transmits = calls("fastlink.transmit")
    packets = calls("noc.packet")
    scaled = outcome.scaled_ms
    run_posts = scaled.get("miss_post", []) + scaled.get("hit_post", [])
    run_streams = scaled.get("miss_stream", []) + scaled.get("hit_stream", [])
    op_wall_s = sum(sum(lat[kind]) for kind in ("miss", "hit", "stats")) / 1e3
    catch_all = sum(times.get(name, (0.0, 0.0, 0))[0] for name in CATCH_ALL_SPANS)
    accounted = sum(entry[0] for entry in times.values()) - catch_all
    seconds = {
        "montecarlo.trial_self_s": self_s("montecarlo.trial"),
        "montecarlo.noc_trial_self_s": self_s("montecarlo.noc_trial"),
        "backend.make_link_s": self_s("backend.make_link"),
        "fastlink.transmit_self_s": self_s("fastlink.transmit"),
        "multilink.transmit_self_s": self_s("multilink.transmit"),
        "ppm.encode_s": self_s("ppm.encode"),
        "ppm.decode_s": self_s("ppm.decode"),
        "spad.detect_self_s": self_s("spad.detect"),
        "spad.array_detect_self_s": self_s("spad.array_detect"),
        "kernels.scan_windows_s": self_s("kernels.scan_windows"),
        "kernels.resolve_windows_s": self_s("kernels.resolve_windows"),
        "kernels.arbitrate_s": self_s("kernels.arbitrate"),
        "tdc.convert_s": self_s("tdc.convert"),
        "crosstalk.matrix_s": self_s("crosstalk.matrix"),
        "noc.bus_run_self_s": self_s("noc.bus_run"),
        "noc.packet_s": self_s("noc.packet"),
        "executors.evaluate_point_s": self_s("executors.evaluate_point"),
        "executors.dispatch_s": self_s("executors.run"),
        "metrics.evaluate_s": self_s("metrics.evaluate"),
        "store.save_s": self_s("store.save"),
        "store.find_run_s": self_s("store.find_run"),
        "store.load_s": self_s("store.load"),
        "store.list_s": self_s("store.list"),
        "frontdoor.request_s": self_s("frontdoor.request"),
    }
    metrics = {name: (value, "s") for name, value in seconds.items()}
    metrics.update(
        {
            "backend.make_link_calls": (calls("backend.make_link") / cycles, "count"),
            "fastlink.transmit_calls": (transmits / cycles, "count"),
            "fastlink.symbols_per_call": (
                counters["fastlink.symbols"] / transmits if transmits else 0.0, "count"
            ),
            "kernels.fallbacks": (counters["kernels.fallbacks"] / cycles, "count"),
            "noc.transmit_calls_per_packet": (transmits / packets if packets else 0.0, "count"),
            "executors.retries": (outcome.retries / cycles, "count"),
            "service.post_ms": (median(run_posts) if run_posts else 0.0, "ms"),
            "service.stream_ms": (median(run_streams) if run_streams else 0.0, "ms"),
            "sim.symbols": (counters["sim.symbols"] / cycles, "count"),
            "sim.bit_errors": (counters["sim.bit_errors"] / cycles, "count"),
            "noc.busy_slots": (counters["noc.busy_slots"] / cycles, "count"),
            "trace.overhead_frac": (median(outcome.scaled_ms["miss"]) / untraced_miss_ms - 1.0, "ratio"),
            "trace.accounted_frac": (accounted / op_wall_s, "ratio"),
            "trace.catch_all_frac": (catch_all / op_wall_s, "ratio"),
        }
    )
    return metrics


def measure_simulation(workload, seed: int, seconds: float, trace: bool):
    from spans import SpanRecorder, install_layer_tracing
    from workloads import run_simulation

    store_dir = WORK / "store" / workload.name
    if not trace:
        return run_simulation(workload, seed, seconds, store_dir), None
    untraced = run_simulation(workload, seed, seconds / 2, store_dir)
    recorder = SpanRecorder()
    install_layer_tracing(recorder)
    traced = run_simulation(workload, seed, seconds / 2, store_dir, recorder=recorder)
    return traced, (recorder, untraced)


def measure_service(workload, seed: int, seconds: float, trace: bool):
    from spans import SpanRecorder
    from workloads import (
        MIN_CYCLES,
        PREFILL_PER_SECOND,
        Server,
        boot_times,
        import_slowdown,
        prefill_store,
        run_service,
        scaled_median,
    )

    # Hit seeds are prefilled into the store; miss seeds never are.
    base = seed * 1_000_000
    per_phase = int(seconds * PREFILL_PER_SECOND) + MIN_CYCLES + 1
    phases = 2 if trace else 1
    store_dir = WORK / "store" / workload.name
    hits = prefill_store(workload, [base + i for i in range(per_phase * phases)], store_dir)
    misses = [base + 500_000 + i for i in range(per_phase * phases)]
    boots = [] if trace else boot_times(store_dir, SERVER_BOOTS - 1)

    def phase(seeds, trace_file: Optional[Path], length: float, stored: int):
        slowdown = import_slowdown()
        server = Server(store_dir, trace_file)
        boots.append((server.boot_s, slowdown))
        try:
            # Untimed warm-up cycle: first requests pay lazy imports and caches.
            warm = run_service(workload, server, seeds, misses, 0.0, stored, min_cycles=1)
            timed = run_service(workload, server, seeds, misses, length, warm.stored)
            timed.absorb(warm)
            timed.cycles += warm.cycles  # a traced server's spans cover both
            timed.peak_rss_mb = server.peak_rss_kb() / 1024.0
        finally:
            server.stop()
        return timed

    if not trace:
        return phase(hits, None, seconds, len(hits)), None, scaled_median(boots)
    untraced = phase(hits[:per_phase], None, seconds / 2, len(hits))
    trace_file = WORK / "service-trace.json"
    traced = phase(hits[per_phase:], trace_file, seconds / 2, untraced.stored)
    recorder = SpanRecorder()
    with open(trace_file) as handle:
        recorder.adopt(json.load(handle), parent=-1)
    return traced, (recorder, untraced), scaled_median(boots)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _prepare_environment()
    from workloads import WORKLOADS, ServiceWorkload

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2

    cache_warm = bool(glob.glob(str(WORK / "cext" / "*.so")))
    setup_bits = 1_024
    first = setup_probe(workload.scenario, setup_bits)  # also warms the kernel cache
    trace = bool(args.trace)
    if isinstance(workload, ServiceWorkload):
        outcome, traced_with, setup_s = measure_service(workload, args.seed, args.seconds, trace)
    else:
        setup_s = 0.0
        if not trace:
            setup_s = setup_seconds(workload.scenario, setup_bits)
        outcome, traced_with = measure_simulation(workload, args.seed, args.seconds, trace)

    info = provenance(workload, first, cache_warm)
    if info["kernel"] != info["kernel_expected"] or first["kernel"] != info["kernel_expected"]:
        outcome.problems.append(
            f"kernel resolved to {info['kernel']!r}, expected {info['kernel_expected']!r}"
        )
        outcome.failed = outcome.attempted
    if traced_with is None:
        metrics = end_to_end(outcome, setup_s)
    else:
        recorder, untraced = traced_with
        outcome.absorb(untraced)
        metrics = per_layer(recorder, outcome, median(untraced.scaled_ms["miss"]))
        recorder.dump(str(WORK / f"spans-{workload.name}.json"))
    correct = outcome.failed == 0

    print(f"workload {workload.name} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
    for key, value in info.items():
        print(f"  provenance {key}: {value}")
    for kind, values in sorted(outcome.latencies_ms.items()):
        raw = ", ".join(f"p{q} {percentile(values, q):.6g}" for q in (10, 50, 90))
        scaled = ", ".join(
            f"p{q} {percentile(outcome.scaled_ms[kind], q):.6g}" for q in (10, 50, 90)
        )
        print(f"  latency {kind}: {len(values)} samples, raw {raw} ms, scaled {scaled} ms")
    print(f"  failed_frac = {outcome.failed / outcome.attempted:.6g} "
          f"({outcome.failed} of {outcome.attempted} operations)")
    for problem in outcome.problems[:10]:
        print(f"  problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    with open(WORK / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump({"provenance": info, "result": result, "latencies_ms": outcome.latencies_ms,
                   "scaled_ms": outcome.scaled_ms, "digests": sorted(set(outcome.digests))},
                  handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
