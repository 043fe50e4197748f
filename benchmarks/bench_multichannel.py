"""MULTICHANNEL — SPAD-array backend vs. a channel-iterated batch loop.

Times the ``"multichannel"`` backend on the workload the experiment layer
actually executes for array scenarios: Monte-Carlo chunks of 8192 PPM symbols
striped across C=64 parallel channels (the 64x64-imager row width), one link
construction per chunk — exactly the shape ``ExperimentRunner`` compiles
``spad-array-imager``-style scenarios into.  The baseline is what the package
would have to do without the array engine: iterate the C channels and push
each one's share of the chunk through its own ``"batch"`` link.

Both paths are constructed through :func:`repro.core.backend.make_link` and
are statistically equivalent (the multichannel contract is locked by
``tests/test_core_multilink.py``); the array engine wins by folding the C
per-channel datapaths into shared ``(S, C)`` passes — one randomness draw per
physical process, one TDC ``searchsorted`` over the flattened hit times, one
PPM decode — instead of paying C constructions and C sets of small array
operations per chunk.

Writes the measurements to ``BENCH_multichannel.json`` at the repository
root.  The acceptance bar is a >=5x
symbols*channels/sec speedup at C=64.
"""

import json
import time
from pathlib import Path

import pytest

from repro.analysis.report import ReportTable, TextReport
from repro.analysis.units import NS, PS, format_si
from repro.core.backend import make_link
from repro.core.config import LinkConfig

CHANNELS = 64
CHUNK_SYMBOLS = 8_192  # the ExperimentRunner default chunk
CHUNKS = 8
SYMBOLS = CHUNK_SYMBOLS * CHUNKS  # total symbols*channels of the workload
CONFIG = LinkConfig(
    ppm_bits=4, slot_duration=500 * PS, spad_dead_time=32 * NS, mean_detected_photons=5.0
)
RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_multichannel.json"


def run_multichannel():
    """All chunks through the array engine: one link, one (S, C) pass per chunk."""
    bit_errors = bits = 0
    start = time.perf_counter()
    for chunk in range(CHUNKS):
        link = make_link(CONFIG, backend="multichannel", channels=CHANNELS, seed=chunk)
        result = link.transmit_random(CHUNK_SYMBOLS * CONFIG.ppm_bits, payload_seed=chunk)
        bit_errors += result.bit_errors
        bits += len(result.transmitted_bits)
    return bit_errors / bits, time.perf_counter() - start


def run_channel_iterated():
    """The same workload without the array engine: C batch links per chunk."""
    per_channel_bits = CHUNK_SYMBOLS // CHANNELS * CONFIG.ppm_bits
    bit_errors = bits = 0
    start = time.perf_counter()
    for chunk in range(CHUNKS):
        for channel in range(CHANNELS):
            link = make_link(CONFIG, backend="batch", seed=chunk * CHANNELS + channel)
            result = link.transmit_random(per_channel_bits, payload_seed=channel)
            bit_errors += result.bit_errors
            bits += len(result.transmitted_bits)
    return bit_errors / bits, time.perf_counter() - start


def run_comparison():
    multi_ber, multi_elapsed = run_multichannel()
    loop_ber, loop_elapsed = run_channel_iterated()
    return multi_ber, multi_elapsed, loop_ber, loop_elapsed


def test_multichannel_speedup(benchmark):
    multi_ber, multi_elapsed, loop_ber, loop_elapsed = benchmark.pedantic(
        run_comparison, rounds=1, iterations=1, warmup_rounds=1
    )

    multi_rate = SYMBOLS / multi_elapsed
    loop_rate = SYMBOLS / loop_elapsed
    speedup = multi_rate / loop_rate

    record = {
        "workload": {
            "channels": CHANNELS,
            "chunk_symbols": CHUNK_SYMBOLS,
            "chunks": CHUNKS,
            "symbols_times_channels": SYMBOLS,
            "ppm_bits": CONFIG.ppm_bits,
            "slot_duration_s": CONFIG.slot_duration,
            "spad_dead_time_s": CONFIG.spad_dead_time,
            "mean_detected_photons": CONFIG.mean_detected_photons,
        },
        "channel_iterated_batch": {
            "seconds": loop_elapsed,
            "symbols_channels_per_sec": loop_rate,
            "ber": loop_ber,
        },
        "multichannel": {
            "seconds": multi_elapsed,
            "symbols_channels_per_sec": multi_rate,
            "ber": multi_ber,
        },
        "speedup": speedup,
    }
    RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")

    report = TextReport(
        "MULTICHANNEL",
        "SPAD-array backend vs. channel-iterated batch loop on runner-shaped chunks",
        paper_claim="the headline configuration is a parallel array of vertical "
                    "channels (up to the 64x64 imager of ref [5]); per-channel "
                    "datapaths fold into one shared array pipeline",
    )
    table = ReportTable(columns=["path", "wall time", "symbols*channels/sec", "BER"])
    table.add_row(
        "channel-iterated batch", f"{loop_elapsed:.3f} s",
        format_si(loop_rate, "sym/s"), f"{loop_ber:.3e}",
    )
    table.add_row(
        "multichannel backend", f"{multi_elapsed:.3f} s",
        format_si(multi_rate, "sym/s"), f"{multi_ber:.3e}",
    )
    report.add_table(
        table,
        caption=f"{CHUNKS} chunks x {CHUNK_SYMBOLS:,} symbols across C={CHANNELS} channels",
    )
    report.add_comparison("multichannel speedup", ">=5x symbols*channels/sec", f"{speedup:.1f}x")
    print()
    print(report.render())
    print(f"perf record written to {RECORD_PATH}")

    assert speedup >= 5.0
    # Same physics on both paths: the BER estimates must agree within the
    # combined Monte-Carlo noise (generous 5-sigma-ish binomial bound).
    total_bits = SYMBOLS * CONFIG.ppm_bits
    tolerance = 5.0 * (loop_ber / total_bits) ** 0.5 + 5.0 / total_bits
    assert abs(multi_ber - loop_ber) < max(tolerance, 0.01)


if __name__ == "__main__":
    run_comparison()  # warm-up (imports, allocator, caches)
    multi_ber, multi_elapsed, loop_ber, loop_elapsed = run_comparison()
    print(
        f"multichannel: {SYMBOLS / multi_elapsed:,.0f} sym/s  "
        f"channel-iterated: {SYMBOLS / loop_elapsed:,.0f} sym/s  "
        f"speedup {multi_elapsed and (loop_elapsed / multi_elapsed):.1f}x"
    )
