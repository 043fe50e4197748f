"""Pinned raw outputs of the segmented single-device passes.

The NoC bus sends a run's unicast groups as one segmented pass: one
detection over the groups' devices
(:func:`~repro.spad.device.detect_in_segments`) and one decode on the
groups' own TDCs (:func:`~repro.core.fastlink.transmit_segments`).
``tests/test_core_fastlink.py`` holds a segmented pass to one call per device
or link, but both sides run the same draw body, so a change that moved both
alike would pass there.  This file pins the passes themselves, on every
kernel tier:

* the ``(times, origins)`` of :func:`detect_in_segments` and every device's
  final last fire and pending afterpulse, for one to five devices that
  differ in jitter (no tail, a partial tail and a tail on every detection,
  core width, tail constant), afterpulsing (none, rare and frequent, short
  and long releases), temperature (dark-count rate) and excess bias (PDP).
  Device 0 carries a fire and a pending trap release in.  The cases include
  one-window segments, a segment without a pulse and a late window clock;
* the ``values``, ``decoded`` and ``origins`` of :func:`transmit_segments`
  over the links of ``TestSegmentedPass``, whose TDCs have no coarse bits
  (link 2) and two.

A change that moves a segmented sample path on purpose regenerates the
tables (``python tests/test_segment_pin.py`` prints them) and says so.
"""

import hashlib
import os

import numpy as np
import pytest

import test_core_fastlink
from repro.analysis.units import NS, PS
from repro.core.fastlink import transmit_segments
from repro.kernels import available_kernels
from repro.simulation.randomness import RandomSource
from repro.spad.afterpulsing import AfterpulsingModel
from repro.spad.dark_counts import DarkCountModel
from repro.spad.device import SpadConfig, SpadDevice, detect_in_segments
from repro.spad.jitter import JitterModel

SEEDS = range(3)
WINDOW = 32 * NS

#: Device g of a pass: its jitter, afterpulsing and operating point (every
#: device counts dark counts from the same model, so the temperature and
#: the excess bias set each one's rate).
DEVICES = (
    {"jitter": JitterModel(), "afterpulsing": (0.6, 150 * NS), "temperature": 20.0, "bias": 3.3},
    {"jitter": JitterModel(sigma=30 * PS, tail_fraction=0.0), "afterpulsing": (0.0, 30 * NS),
     "temperature": 35.0, "bias": 2.0},
    {"jitter": JitterModel(sigma=200 * PS, tail_fraction=1.0, tail_constant=1 * NS),
     "afterpulsing": (0.05, 20 * NS), "temperature": 5.0, "bias": 4.5},
    {"jitter": JitterModel(sigma=0.0, tail_fraction=0.4, tail_constant=3 * NS),
     "afterpulsing": (0.6, 60 * NS), "temperature": 50.0, "bias": 3.3},
    {"jitter": JitterModel(sigma=80 * PS, tail_fraction=0.4, tail_constant=400 * PS),
     "afterpulsing": (0.05, 300 * NS), "temperature": 20.0, "bias": 1.0},
)

#: Mean photons per pulse of device g.
BUDGETS = (0.3, 4.0, 60.0, 1.5, 800.0)


def _device(index, seed):
    spec = DEVICES[index]
    probability, time_constant = spec["afterpulsing"]
    return SpadDevice(
        config=SpadConfig(temperature=spec["temperature"], excess_bias=spec["bias"]),
        dark_counts=DarkCountModel(rate_at_reference=2e6),
        afterpulsing=AfterpulsingModel(probability=probability, time_constant=time_constant),
        jitter=spec["jitter"],
        random_source=RandomSource(100 * seed + index),
    )


#: name -> windows per segment (one device each, in ``DEVICES`` order), the
#: segments that carry no pulse, and the window clock's start in windows.
DETECT_CASES = {
    "one-device": {"counts": (40,)},
    "two-devices": {"counts": (25, 30)},
    "five-devices": {"counts": (30, 1, 45, 2, 20)},
    "one-window-segments": {"counts": (1, 1, 1, 1, 1)},
    "pulse-free-segment": {"counts": (12, 15, 10), "dark": (1,)},
    "late-start": {"counts": (20, 8, 30, 5), "start": 1234.5},
}

DETECT_DIGESTS = {
    "one-device": "50d050700d137a8a",
    "two-devices": "59098266feaabc13",
    "five-devices": "dae6c1a75dbec0ae",
    "one-window-segments": "e0614fe4c413140e",
    "pulse-free-segment": "d249303233d43408",
    "late-start": "0bff14b60735045d",
}


def _digest(*parts) -> str:
    """Short SHA-256 of arrays (dtype, shape and bytes) and reprs of the rest."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            array = np.ascontiguousarray(part)
            digest.update(f"{array.dtype}{array.shape}".encode())
            digest.update(array.tobytes())
        else:
            digest.update(repr(part).encode())
    return digest.hexdigest()[:16]


def detect_digest(name):
    case = DETECT_CASES[name]
    counts = case["counts"]
    start = case.get("start", 3.0) * WINDOW
    parts = []
    for seed in SEEDS:
        devices = [_device(index, seed) for index in range(len(counts))]
        # Device 0 fires in an earlier batch and holds a trap release that
        # lands in the pass's third window.
        devices[0].detect_in_windows(WINDOW, np.full(3, 5 * NS), mean_photons=30.0)
        devices[0]._pending_afterpulse = start + 2.5 * WINDOW
        rng = np.random.default_rng(400 + seed)
        offsets = rng.uniform(0.0, WINDOW, sum(counts))
        offsets[rng.random(offsets.size) < 0.25] = np.nan
        starts = np.cumsum((0,) + counts[:-1])
        for segment in case.get("dark", ()):
            offsets[starts[segment]:starts[segment] + counts[segment]] = np.nan
        times, origins = detect_in_segments(
            devices, WINDOW, offsets, starts, BUDGETS[: len(counts)], start_time=start,
        )
        parts += [times, origins]
        parts += [(device._last_fire_time, device._pending_afterpulse) for device in devices]
    return _digest(*parts)


TRANSMIT_DIGEST = "3ad57429c27e04ae"


def transmit_digest():
    counts = test_core_fastlink.TestSegmentedPass.SYMBOLS
    starts = np.cumsum((0,) + counts[:-1])
    parts = []
    for seed in SEEDS:
        links = test_core_fastlink.TestSegmentedPass().links()
        for link in links:
            link.transmit_bits([1, 0, 1, 1])  # state the pass resets
        rng = np.random.default_rng(500 + seed)
        bits = rng.integers(0, 2, 4 * sum(counts)).astype(np.uint8)
        sent = transmit_segments(links, bits, starts)
        parts += [sent.values, sent.decoded, sent.origins]
    return _digest(*parts)


@pytest.mark.parametrize("kernel", available_kernels())
@pytest.mark.parametrize("name", list(DETECT_CASES))
def test_detect_in_segments_is_pinned(name, kernel, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", kernel)
    assert detect_digest(name) == DETECT_DIGESTS[name]


@pytest.mark.parametrize("kernel", available_kernels())
def test_transmit_segments_is_pinned(kernel, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", kernel)
    assert transmit_digest() == TRANSMIT_DIGEST


if __name__ == "__main__":
    os.environ["REPRO_KERNEL"] = "python"
    print("DETECT_DIGESTS = {")
    for case in DETECT_CASES:
        print(f'    "{case}": "{detect_digest(case)}",')
    print("}")
    print(f'TRANSMIT_DIGEST = "{transmit_digest()}"')
