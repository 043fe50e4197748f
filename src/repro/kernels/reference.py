"""The reference compute kernels — the plain window-by-window loops.

These are the *semantics-defining* implementations of the two sequential hot
loops the kernel layer accelerates: the dead-time winner scan of
:meth:`~repro.spad.device.SpadDevice.detect_in_windows` and the per-channel
window resolution of :func:`~repro.spad.array.detect_in_windows_multichannel`.
:func:`scan_windows` is also the ``"python"`` tier's scan; the registered
resolvers (:mod:`repro.kernels.speculative`, ``"cext"``) must match
:func:`resolve_windows` **bit for bit** on the same pre-drawn inputs (locked
by ``tests/test_kernels.py``); any behaviour change lands here first and
propagates outward.

Sentinel convention at the kernel boundary
------------------------------------------
The device's optional state crosses into kernels as floats: a ``None``
``last_fire`` becomes ``-inf`` (armed since forever) and a ``None`` pending
afterpulse becomes ``+inf`` (never).  With that encoding every ``is not
None`` guard of the original loop reduces to the plain float comparison that
follows it (``pending < window_end`` is false for ``+inf``;
``window_start - (-inf) >= gate_recovery`` is true), so the float-only loop
below is line-for-line the scan that used to live in ``device.py``.

This module is a leaf: it imports NumPy and nothing from :mod:`repro`, so the
registry (and :class:`~repro.scenarios.scenario.Scenario` validation) can
import it without cycles.  Origin codes are therefore literals here — ``0``
photon, ``1`` dark count, ``2`` afterpulse, ``3`` crosstalk, ``-1`` missed —
matching :data:`repro.spad.device.ORIGIN_BY_CODE`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

_INF = float("inf")
_NAN = float("nan")


def scan_windows(
    photon_rel: np.ndarray,
    photon_valid: np.ndarray,
    dark_rel: np.ndarray,
    dark_bounds: np.ndarray,
    trap_filled: np.ndarray,
    trap_release: np.ndarray,
    dead_time: float,
    gate_recovery: float,
    duration: float,
    base: float,
    last_fire: float,
    pending: float,
) -> Tuple[np.ndarray, np.ndarray, float, float]:
    """Sequential dead-time winner scan over one channel's windows.

    Inputs are the pre-drawn per-window randomness of the single-channel
    batch pass (photon candidate offsets + validity, CSR-indexed dark-count
    offsets, afterpulse trap draws) plus the device state encoded per the
    module sentinel convention.  Returns ``(times, origins, last_fire,
    pending)`` — absolute detection times (``NaN`` = missed), int8 origin
    codes, and the carried-over state, same encoding.
    """
    count = int(photon_rel.shape[0])
    # Python-list views: ~3x faster to index than NumPy scalars in a Python
    # loop, and list floats are exactly the C doubles of the arrays.
    photon_rel_l = photon_rel.tolist()
    photon_valid_l = photon_valid.tolist()
    dark_rel_l = dark_rel.tolist()
    dark_bounds_l = dark_bounds.tolist()
    trap_filled_l = trap_filled.tolist()
    trap_release_l = trap_release.tolist()
    out_times = []
    out_origins = []
    for index in range(count):
        window_start = base + index * duration
        window_end = window_start + duration
        if window_start - last_fire >= gate_recovery:
            ready = window_start
        else:
            ready = last_fire + dead_time
        best = _INF
        origin = -1
        if photon_valid_l[index]:
            time = window_start + photon_rel_l[index]
            if time >= ready:
                best = time
                origin = 0
        for position in range(dark_bounds_l[index], dark_bounds_l[index + 1]):
            time = window_start + dark_rel_l[position]
            if time >= ready and time < best:
                best = time
                origin = 1
        if (
            window_start <= pending < window_end
            and pending >= ready
            and pending < best
        ):
            best = pending
            origin = 2
        if pending < window_end:
            pending = _INF
        if origin >= 0:
            out_times.append(best)
            out_origins.append(origin)
            last_fire = best
            if trap_filled_l[index]:
                pending = best + trap_release_l[index]
            else:
                pending = _INF
        else:
            out_times.append(_NAN)
            out_origins.append(-1)
    return (
        np.asarray(out_times, dtype=float),
        np.asarray(out_origins, dtype=np.int8),
        last_fire,
        pending,
    )


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

    No tier registers this loop; it is the oracle the registered resolvers
    are tested against (``"python"``/``"vector"`` run
    :mod:`repro.kernels.speculative`, ``"cext"`` a C port of this loop).
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
