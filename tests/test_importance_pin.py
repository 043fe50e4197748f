"""Pinned raw outputs of both importance-sampled detection passes.

The digest table (``tests/test_report_digests.py``) pins whole reports at
4,096 bits per point, where a weight only shows through a sum.  This file
pins the weights themselves: the digest of every array an importance pass
returns (``times``, ``origins``, ``weights``), of the device state it leaves
behind, and of the per-symbol fields of importance-sampled links, on every
kernel tier.  The cases cover floors that bind and floors that do not,
dead times shorter and longer than the window, chained calls that carry
detector state in, empty inputs, scalar and per-channel photon budgets and
arrays of 1 to 8 channels.

A change that moves an importance sample path on purpose regenerates the
table (``python tests/test_importance_pin.py`` prints it) and says so.
"""

import hashlib

import numpy as np
import pytest

from repro.analysis.units import NS
from repro.core import LinkConfig, make_link
from repro.kernels import available_kernels
from repro.simulation.randomness import RandomSource
from repro.spad.afterpulsing import AfterpulsingModel
from repro.spad.array import detect_in_windows_multichannel
from repro.spad.device import ImportanceSettings, SpadDevice
from repro.spad.quenching import QuenchingCircuit

SEEDS = range(3)
WINDOW = 20.0 * NS
WINDOWS = 300

DEFAULT = ImportanceSettings()
#: No floor binds at a modest photon budget: every weight is exactly 1.
UNBOUND = ImportanceSettings(
    min_miss_probability=1e-12, min_dark_expectation=0.0, min_trap_probability=0.0
)
NO_DARK_FLOOR = ImportanceSettings(min_dark_expectation=0.0)
NO_TRAP_FLOOR = ImportanceSettings(min_trap_probability=0.0)
HIGH = ImportanceSettings(
    min_miss_probability=0.3, min_dark_expectation=0.5, min_trap_probability=0.6
)

QUENCHING = {
    "default": QuenchingCircuit(),  # 32 ns dead time, 5 ns gated re-arm
    "short-dead": QuenchingCircuit(dead_time=5.0 * NS, gate_recovery=2.0 * NS),
    "long-dead": QuenchingCircuit(dead_time=50.0 * NS, gate_recovery=30.0 * NS),
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


def _device(seed, quenching="default", afterpulse=None):
    return SpadDevice(
        quenching=QUENCHING[quenching],
        afterpulsing=AfterpulsingModel() if afterpulse is None else AfterpulsingModel(afterpulse),
        random_source=RandomSource(seed),
    )


def _offsets(rng, shape, idle=0.2):
    """Window-relative pulse offsets, ``NaN`` on a share ``idle`` of windows."""
    offsets = rng.uniform(0.0, WINDOW, shape)
    offsets[rng.random(shape) < idle] = np.nan
    return offsets


# -- single device ------------------------------------------------------------------

#: name -> (settings, photons, quenching, afterpulse probability, calls, windows)
DEVICE_CASES = {
    "floors-bind": (DEFAULT, 20.0, "default", None, 1, WINDOWS),
    "no-floor-binds": (UNBOUND, 2.0, "default", None, 1, WINDOWS),
    "dark-floor-zero": (NO_DARK_FLOOR, 20.0, "default", None, 1, WINDOWS),
    "trap-floor-zero": (NO_TRAP_FLOOR, 20.0, "default", None, 1, WINDOWS),
    "trap-floor-below-natural": (DEFAULT, 20.0, "default", 0.3, 1, WINDOWS),
    "high-floors": (HIGH, 5.0, "default", None, 1, WINDOWS),
    "no-photons": (DEFAULT, 0.0, "default", None, 1, WINDOWS),
    "short-dead-time": (HIGH, 20.0, "short-dead", None, 1, WINDOWS),
    "long-dead-time": (HIGH, 20.0, "long-dead", None, 1, WINDOWS),
    "chained": (HIGH, 8.0, "long-dead", 0.5, 4, 60),
    "chained-one-window": (HIGH, 8.0, "default", 0.5, 6, 1),
    "empty": (DEFAULT, 20.0, "default", None, 1, 0),
}

DEVICE_DIGESTS = {
    "floors-bind": "fc68f2ee2ec1a3e5",
    "no-floor-binds": "4d7c3ebebdbf0229",
    "dark-floor-zero": "17c66cd6b39f34df",
    "trap-floor-zero": "fd8c8796d9a7cece",
    "trap-floor-below-natural": "16540a804fca9b30",
    "high-floors": "718c5bec5a1dae95",
    "no-photons": "fd4fb74b4d2293ac",
    "short-dead-time": "62ef9afebca4eac7",
    "long-dead-time": "38e3f75350402255",
    "chained": "ecf694bc02576a9e",
    "chained-one-window": "8b53a477816976ec",
    "empty": "946d69441055260d",
}


def device_digest(name, kernel):
    settings, photons, quenching, afterpulse, calls, windows = DEVICE_CASES[name]
    parts = []
    for seed in SEEDS:
        device = _device(seed, quenching, afterpulse)
        rng = np.random.default_rng(100 + seed)
        for call in range(calls):
            times, origins, weights = device.detect_in_windows(
                WINDOW,
                _offsets(rng, windows),
                photons,
                start_time=call * windows * WINDOW,
                importance=settings,
                kernel=kernel,
            )
            parts += [times, origins, weights, device._last_fire_time, device._pending_afterpulse]
    return _digest(*parts)


# -- channel arrays -----------------------------------------------------------------

#: name -> (settings, channels, per-channel photons?, quenching, windows)
ARRAY_CASES = {
    "c1": (DEFAULT, 1, False, "default", WINDOWS),
    "c2-per-channel": (DEFAULT, 2, True, "default", WINDOWS),
    "c3-high": (HIGH, 3, False, "default", WINDOWS),
    "c4": (DEFAULT, 4, False, "default", WINDOWS),
    "c4-per-channel": (DEFAULT, 4, True, "default", WINDOWS),
    "c5-unbound": (UNBOUND, 5, True, "default", WINDOWS),
    "c6-dark-floor-zero": (NO_DARK_FLOOR, 6, False, "short-dead", WINDOWS),
    "c7-trap-floor-zero": (NO_TRAP_FLOOR, 7, True, "long-dead", WINDOWS),
    "c8-high-long-dead": (HIGH, 8, True, "long-dead", WINDOWS),
    "no-windows": (DEFAULT, 4, False, "default", 0),
    "no-channels": (DEFAULT, 0, False, "default", WINDOWS),
}

ARRAY_DIGESTS = {
    "c1": "9c0716c82f85b19b",
    "c2-per-channel": "e378ec2c08f16e09",
    "c3-high": "e147f3acdfed9d41",
    "c4": "effa22e43be7c1ec",
    "c4-per-channel": "bf3dc9dd87619714",
    "c5-unbound": "0cecbf5e0fbf0b19",
    "c6-dark-floor-zero": "045b0989946d6a19",
    "c7-trap-floor-zero": "fb5c5d46650d16ea",
    "c8-high-long-dead": "e74a352d6d2cedf6",
    "no-windows": "b7cd21ed28b14f8a",
    "no-channels": "c5f22e3582b5d920",
}


def array_digest(name, kernel):
    settings, channels, per_channel, quenching, windows = ARRAY_CASES[name]
    # Per-channel budgets straddle the miss floor: the first channels miss
    # often (floor idle), the last almost never (floor binds).
    photons = np.linspace(0.5, 30.0, channels) if per_channel else 12.0
    parts = []
    for seed in SEEDS:
        device = _device(seed, quenching)
        rng = np.random.default_rng(200 + seed)
        times, origins, weights = detect_in_windows_multichannel(
            device,
            WINDOW,
            _offsets(rng, (windows, channels)),
            mean_photons=photons,
            generator=np.random.default_rng(300 + seed),
            start_time=seed * WINDOW,
            importance=settings,
            kernel=kernel,
        )
        parts += [times, origins, weights]
    return _digest(*parts)


# -- links --------------------------------------------------------------------------

LINK_CASES = {
    "batch": {"backend": "batch"},
    "multichannel-c4": {"backend": "multichannel", "channels": 4},
    "multichannel-gains": {
        "backend": "multichannel",
        "channels": 4,
        "channel_gains": [1.0, 0.3, 0.1, 0.03],
    },
}

LINK_DIGESTS = {
    "batch": "c0fc41f0cee5ecf5",
    "multichannel-c4": "8cd6a6676fe3d311",
    "multichannel-gains": "da58cc11b9f3c349",
}


def link_digest(name, kernel):
    parts = []
    for seed in SEEDS:
        link = make_link(
            LinkConfig(), seed=seed, importance=ImportanceSettings(), kernel=kernel,
            **LINK_CASES[name],
        )
        for _ in range(2):  # the second transmit continues the link's streams
            result = link.transmit_random(1003, payload_seed=seed)
            parts += [result.symbol_weights, result.decoded_values, result.symbol_origins]
    return _digest(*parts)


@pytest.mark.parametrize("kernel", available_kernels())
@pytest.mark.parametrize("name", list(DEVICE_CASES))
def test_device_importance_pass_is_pinned(name, kernel):
    assert device_digest(name, kernel) == DEVICE_DIGESTS[name]


@pytest.mark.parametrize("kernel", available_kernels())
@pytest.mark.parametrize("name", list(ARRAY_CASES))
def test_array_importance_pass_is_pinned(name, kernel):
    assert array_digest(name, kernel) == ARRAY_DIGESTS[name]


@pytest.mark.parametrize("kernel", available_kernels())
@pytest.mark.parametrize("name", list(LINK_CASES))
def test_importance_link_symbols_are_pinned(name, kernel):
    assert link_digest(name, kernel) == LINK_DIGESTS[name]


if __name__ == "__main__":
    for title, cases, digest in (
        ("DEVICE_DIGESTS", DEVICE_CASES, device_digest),
        ("ARRAY_DIGESTS", ARRAY_CASES, array_digest),
        ("LINK_DIGESTS", LINK_CASES, link_digest),
    ):
        print(f"{title} = {{")
        for case in cases:
            print(f'    "{case}": "{digest(case, "python")}",')
        print("}")
