"""Test oracles: plain loops the engines no longer run.

:func:`resolve_windows` is the window-by-window multichannel resolver the
array pass ran before it became one segmented ``scan_windows`` call.  It
defines what an array pass computes from its draws, so
``tests/test_kernels.py::TestResolveBitIdentity`` holds the channel-major
layout (:func:`repro.spad.array.channel_major_draws`) and every tier's scan
to it bit for bit.  Origin codes are literals, as in
:mod:`repro.kernels.reference`: ``0`` photon, ``1`` dark count, ``2``
afterpulse, ``3`` crosstalk, ``-1`` missed.
"""

from typing import Tuple

import numpy as np

_INF = float("inf")
_NAN = float("nan")


def resolve_windows(
    primary: np.ndarray,
    secondary: np.ndarray,
    dark_rel: np.ndarray,
    dark_bounds: np.ndarray,
    background_rel: np.ndarray,
    background_bounds: np.ndarray,
    trap_filled: np.ndarray,
    trap_release: np.ndarray,
    dead_time: float,
    gate_recovery: float,
    duration: float,
    base: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-channel window resolution of the multichannel array pass.

    ``primary`` is ``(S, C)`` absolute candidate times (``inf`` = none),
    ``secondary`` the interference candidates stacked to ``(K, S, C)``, dark
    and background events CSR-indexed over the flat ``(S*C,)`` window/channel
    grid.  Channels are independent pixels, so the scan runs channel-major.
    Candidate precedence: primary, secondaries in order, darks, background,
    pending afterpulse — later sources win only when strictly earlier.  A
    trap release before a window's end is consumed whether or not it fired;
    a firing window samples the next release.

    No tier runs this loop; it is the oracle the array pass's channel-major
    segmented scan is tested against.
    """
    windows, channels = primary.shape
    n_secondary = int(secondary.shape[0])
    out_times = np.full((windows, channels), _NAN)
    out_origins = np.full((windows, channels), -1, dtype=np.int8)
    dark_rel_l = dark_rel.tolist()
    dark_bounds_l = dark_bounds.tolist()
    background_rel_l = background_rel.tolist()
    background_bounds_l = background_bounds.tolist()
    for c in range(channels):
        last_fire = -_INF
        pending = _INF
        for s in range(windows):
            ws = base + s * duration
            we = ws + duration
            if ws - last_fire >= gate_recovery:
                ready = ws
            else:
                ready = last_fire + dead_time
            best = _INF
            origin = -1
            t = primary[s, c]
            if np.isfinite(t) and t >= ready:
                best = t
                origin = 0
            for k in range(n_secondary):
                t = secondary[k, s, c]
                if t >= ready and t < best:
                    best = t
                    origin = 3
            flat = s * channels + c
            for j in range(dark_bounds_l[flat], dark_bounds_l[flat + 1]):
                t_abs = ws + dark_rel_l[j]
                if t_abs >= ready and t_abs < best:
                    best = t_abs
                    origin = 1
            for j in range(background_bounds_l[flat], background_bounds_l[flat + 1]):
                t_abs = ws + background_rel_l[j]
                if t_abs >= ready and t_abs < best:
                    best = t_abs
                    origin = 3
            if pending >= ws and pending < we and pending >= ready and pending < best:
                best = pending
                origin = 2
            consumed = pending < we
            if origin >= 0:
                out_times[s, c] = best
                out_origins[s, c] = origin
                last_fire = best
                if trap_filled[s, c]:
                    pending = best + trap_release[s, c]
                else:
                    pending = _INF
            elif consumed:
                pending = _INF
    return out_times, out_origins
