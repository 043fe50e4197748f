"""Pinned raw outputs of the naive multichannel detection pass.

The digest table (``tests/test_report_digests.py``) pins whole reports,
where a single window's outcome only shows through an error count.  This
file pins the array pass itself: the digest of the ``(times, origins)`` that
:func:`~repro.spad.array.detect_in_windows_multichannel` returns without
importance sampling, and of the per-symbol fields (``decoded_values``,
``symbol_bit_errors``) of multichannel links with crosstalk and with
per-channel gains, on every kernel tier.  The cases cover zero to three
interference sets, scalar and per-channel photon budgets and background
floors, devices without dark counts and with tens of millions of them per
second, heavy afterpulsing, dead times longer than the window, a window
clock that starts late, and arrays of one window, one channel or none.

A change that moves an array sample path on purpose regenerates the table
(``python tests/test_array_pin.py`` prints it) and says so.
"""

import hashlib
import os

import numpy as np
import pytest

from repro.analysis.units import NS, UM
from repro.core import LinkConfig, make_link
from repro.kernels import available_kernels
from repro.photonics.crosstalk import CrosstalkModel
from repro.simulation.randomness import RandomSource
from repro.spad.afterpulsing import AfterpulsingModel
from repro.spad.array import detect_in_windows_multichannel
from repro.spad.dark_counts import DarkCountModel
from repro.spad.device import SpadDevice
from repro.spad.quenching import QuenchingCircuit

SEEDS = range(3)

#: name -> the sub-models of the device every channel shares.
DEVICES = {
    "default": {},
    "dark-free": {"dark_counts": DarkCountModel(rate_at_reference=0.0)},
    "dark-heavy": {"dark_counts": DarkCountModel(rate_at_reference=5e7)},
    "darks-5e6": {"dark_counts": DarkCountModel(rate_at_reference=5e6)},
    "heavy-afterpulse": {"afterpulsing": AfterpulsingModel(probability=0.5, time_constant=60 * NS)},
    "long-dead": {"quenching": QuenchingCircuit(dead_time=100 * NS, gate_recovery=100 * NS)},
    "late-fires": {
        "quenching": QuenchingCircuit(dead_time=32 * NS, gate_recovery=20 * NS),
        "afterpulsing": AfterpulsingModel(probability=0.4, time_constant=40 * NS),
    },
}


def _case(device="default", window=32 * NS, shape=(300, 16), span=(0.0, 8 * NS),
          photons=5.0, interference=0, secondary_photons=20.0, background=0.0, start=0.0):
    return {
        "device": device, "window": window, "shape": shape, "span": span,
        "photons": photons, "interference": interference,
        "secondary_photons": secondary_photons, "background": background, "start": start,
    }


#: A budget of ``"per-channel"`` spreads one value per channel across a decade
#: and more; the interference sets are the pulses of the neighbours one, then
#: two channels away.
ARRAY_CASES = {
    # The coupling regimes the array pass has always been checked in.
    "moderate": _case(),
    "bright": _case(photons=500.0),
    "heavy-afterpulse": _case(device="heavy-afterpulse", photons=50.0),
    "long-dead-time": _case(device="long-dead", window=10 * NS, span=(0.0, 9 * NS), photons=800.0),
    "heavy-darks": _case(device="darks-5e6", photons=2.0),
    "crosstalk": _case(photons=50.0, interference=2, background=0.1),
    "late-fires": _case(
        device="late-fires", span=(27 * NS, 31.9 * NS), photons=300.0,
        interference=2, background=0.05,
    ),
    # Interference sets, budgets and floors.
    "one-interference-set": _case(photons=20.0, interference=1, secondary_photons=40.0),
    "three-interference-sets": _case(photons=20.0, interference=3, background=0.2),
    "per-channel-budgets": _case(photons="per-channel", interference=2,
                                 secondary_photons="per-channel", background="per-channel"),
    "per-channel-background-only": _case(photons=3.0, background="per-channel"),
    # Devices.
    "dark-free": _case(device="dark-free", photons=1.0, interference=1, background=0.1),
    "dark-heavy": _case(device="dark-heavy", photons=2.0, interference=2, background=0.1),
    "dark-heavy-no-pulses": _case(device="dark-heavy", photons=0.0),
    "afterpulse-and-crosstalk": _case(device="heavy-afterpulse", photons=30.0,
                                      interference=3, background=0.3),
    "dead-time-past-the-window": _case(device="long-dead", window=20 * NS, span=(0.0, 19 * NS),
                                       photons=50.0, interference=2, background=0.5),
    # The window clock and the shapes.
    "late-start": _case(photons=10.0, interference=2, background=0.1, start=1234.5 * NS),
    "one-window": _case(shape=(1, 16), photons=10.0, interference=2, background=0.5),
    "one-channel": _case(shape=(300, 1), device="heavy-afterpulse", photons=10.0,
                         interference=1, background=0.2),
    "no-windows": _case(shape=(0, 16), interference=2),
    "no-channels": _case(shape=(300, 0), interference=2),
}

ARRAY_DIGESTS = {
    "moderate": "104854d91911bd6f",
    "bright": "0a6dc1ec9fafd59d",
    "heavy-afterpulse": "6b38f284572aa51d",
    "long-dead-time": "613f4baaedc1415b",
    "heavy-darks": "3067fe69be0e59d6",
    "crosstalk": "12d6e5904e7be397",
    "late-fires": "951bf33079cf25b1",
    "one-interference-set": "81df76e359e00111",
    "three-interference-sets": "ab08914fcc34fba7",
    "per-channel-budgets": "65d68c1d2c2b7ede",
    "per-channel-background-only": "317f442b224a7d9d",
    "dark-free": "e47ff2ed1ce507ce",
    "dark-heavy": "b993af40518449f7",
    "dark-heavy-no-pulses": "00f055ec5110f478",
    "afterpulse-and-crosstalk": "564a3a09189267d7",
    "dead-time-past-the-window": "7e1f3fa12fe804c5",
    "late-start": "6ab77e2110074c78",
    "one-window": "d75f532531bfee44",
    "one-channel": "d5c26c5130964c1a",
    "no-windows": "80b4d6f144c3423a",
    "no-channels": "f4f588db97074606",
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


def _budget(value, channels, low, high):
    return np.geomspace(low, high, channels) if value == "per-channel" else value


def array_digest(name):
    case = ARRAY_CASES[name]
    channels = case["shape"][1]
    photons = _budget(case["photons"], channels, 0.5, 60.0)
    secondary_photons = _budget(case["secondary_photons"], channels, 1.0, 80.0)
    background = _budget(case["background"], channels, 0.01, 0.8)
    parts = []
    for seed in SEEDS:
        rng = np.random.default_rng(200 + seed)
        offsets = rng.uniform(*case["span"], case["shape"])
        offsets[rng.random(case["shape"]) < 0.1] = np.nan
        shifts = (1, -1, 2)[: case["interference"]]
        times, origins = detect_in_windows_multichannel(
            SpadDevice(random_source=RandomSource(seed), **DEVICES[case["device"]]),
            case["window"],
            offsets,
            photons,
            generator=np.random.default_rng(300 + seed),
            secondary_offsets=[np.roll(offsets, shift, axis=1) for shift in shifts],
            secondary_photons=[secondary_photons] * len(shifts),
            background_mean=background,
            start_time=case["start"],
        )
        parts += [times, origins]
    return _digest(*parts)


# -- links --------------------------------------------------------------------------

LINK_CASES = {
    # Two near distances (four interference sets) and a scattered-light floor.
    "crosstalk": {"channels": 8, "crosstalk": CrosstalkModel(channel_pitch=12 * UM, floor=1e-4)},
    "channel-gains": {"channels": 4, "channel_gains": [1.0, 0.3, 0.1, 0.03]},
}

LINK_DIGESTS = {
    "crosstalk": "a0301a831ddbe0f5",
    "channel-gains": "78ba2079ab980f91",
}


def link_digest(name):
    parts = []
    for seed in SEEDS:
        link = make_link(
            LinkConfig(), backend="multichannel", seed=seed, **LINK_CASES[name]
        )
        for _ in range(2):  # the second transmit continues the link's streams
            result = link.transmit_random(1003, payload_seed=seed)
            parts += [result.decoded_values, result.symbol_bit_errors]
    return _digest(*parts)


@pytest.mark.parametrize("kernel", available_kernels())
@pytest.mark.parametrize("name", list(ARRAY_CASES))
def test_array_pass_is_pinned(name, kernel, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", kernel)
    assert array_digest(name) == ARRAY_DIGESTS[name]


@pytest.mark.parametrize("kernel", available_kernels())
@pytest.mark.parametrize("name", list(LINK_CASES))
def test_multichannel_link_symbols_are_pinned(name, kernel, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", kernel)
    assert link_digest(name) == LINK_DIGESTS[name]


if __name__ == "__main__":
    os.environ["REPRO_KERNEL"] = "python"
    for title, cases, digest in (
        ("ARRAY_DIGESTS", ARRAY_CASES, array_digest),
        ("LINK_DIGESTS", LINK_CASES, link_digest),
    ):
        print(f"{title} = {{")
        for case in cases:
            print(f'    "{case}": "{digest(case)}",')
        print("}")
