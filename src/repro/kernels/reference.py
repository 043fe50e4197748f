"""The reference compute kernels — the plain window-by-window loop.

:func:`scan_windows` is the *semantics-defining* implementation of the one
sequential hot loop the kernel layer accelerates: the dead-time winner scan
behind :meth:`~repro.spad.device.SpadDevice.detect_in_windows` and, one
segment per channel, :func:`~repro.spad.array.detect_in_windows_multichannel`,
importance-sampled passes included.  It is also the ``"python"`` tier's
scan; the ``"cext"`` port must match it **bit for bit** on the same
pre-drawn inputs (locked by ``tests/test_kernels.py``); any behaviour change
lands here first and propagates outward.

The detection decode (:func:`decode_windows`) is defined here too: the
receiver's TDC and slot decision over every window, as NumPy array passes,
and the ``"python"`` tier's decode.  Given segment starts it decodes each
segment on a TDC of its own, its windows counted from 0, so a segmented
decode is one call per segment, concatenated, bit for bit.  Its three
steps, :func:`split_times`, :func:`reconstruct_times` and
:func:`slots_of_times`, are also the bodies of
:meth:`~repro.tdc.converter.TimeToDigitalConverter.convert_array`,
:meth:`~repro.tdc.converter.TimeToDigitalConverter.reconstruct_times` and
:meth:`~repro.modulation.symbols.SlotGrid.slots_of_times`, so the engines'
decode and the public converter share one NumPy definition.

Sentinel convention at the kernel boundary
------------------------------------------
The device's optional state crosses into kernels as floats: a ``None``
``last_fire`` becomes ``-inf`` (armed since forever) and a ``None`` pending
afterpulse becomes ``+inf`` (never).  With that encoding every ``is not
None`` guard of the original loop reduces to the plain float comparison that
follows it (``pending < window_end`` is false for ``+inf``;
``window_start - (-inf) >= gate_recovery`` is true), so the loop below works
on floats only.

Input checks
------------
Every tier checks its scan inputs with :func:`check_scan_inputs` before it
indexes them: a per-window array of the wrong length or CSR bounds that
reach outside the candidate list raise :class:`ValueError` instead of
reading past an array.

Segmented scans
---------------
:func:`scan_windows` optionally takes segment starts (validated by
:func:`check_segments` on every tier): each later segment is an independent
device, armed and trap-free at its first window, with its window clock back
at ``base``.  The loop indexes each segment from 0, so the window start is
the float a separate call on the segment computes, and a segmented scan is
one call per segment, concatenated, bit for bit; it returns every
segment's final state.

Candidate origins
-----------------
A window's CSR candidate list (``dark_rel``) holds dark counts unless the
scan is given one origin code per entry (:func:`check_origins`): the array
pass lists its interference pulses and background events there as code
``3``.  The scan keeps the earliest candidate at or after the window's
ready time; on a tie the first listed wins (the photon, then the list in
order, then a pending afterpulse), so the list's order is its precedence.

Likelihood weights
------------------
An importance-sampled pass hands :func:`scan_windows` per-window photon,
dark-count and trap-fill likelihood factors (:func:`check_factors`).  The
weights depend on the scan only through whether a window fired and whether
it began armed with no trap pending, so the scan keeps one running product:
``1.0`` at such a fresh start (every segment's first window is one), times
the photon, then the dark-count factor, times the trap factor on a fire.
Every tier multiplies in that order, so the weights are bit-identical too.

This module is a leaf: it imports NumPy and nothing from :mod:`repro`, so the
registry (and :class:`~repro.scenarios.scenario.Scenario` validation) can
import it without cycles.  Origin codes are therefore literals here — ``0``
photon, ``1`` dark count, ``2`` afterpulse, ``3`` crosstalk, ``-1`` missed —
matching :data:`repro.spad.device.ORIGIN_BY_CODE`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

_INF = float("inf")
_NAN = float("nan")


def check_segments(segments, count: int) -> np.ndarray:
    """Validated ``int64`` segment starts of a ``count``-window scan.

    Every tier calls this before a segmented scan: the starts must be a
    1-D integer array opening at window 0, strictly increasing and each
    below ``count``, so no segment is empty.
    """
    starts = np.asarray(segments)
    if starts.ndim != 1 or starts.size == 0 or starts.dtype.kind not in "iu":
        raise ValueError("segment starts must be a non-empty 1-D integer array")
    if starts[0] != 0 or starts[-1] >= count or (starts[1:] <= starts[:-1]).any():
        raise ValueError(
            f"segment starts must open at 0, increase strictly and stay below {count}"
        )
    return starts.astype(np.int64, copy=False)


def check_origins(origins, count: int) -> np.ndarray:
    """Validated ``int8`` origin codes of a ``count``-entry candidate list.

    One code per entry, each a detection's origin (``0`` to ``3``): a
    negative code would read as a missed window after the detector fired.
    """
    codes = np.asarray(origins)
    if codes.shape != (count,) or codes.dtype.kind not in "iu":
        raise ValueError(f"candidate origins must be {count} integer codes, one per candidate")
    if count and (codes.min() < 0 or codes.max() > 3):
        raise ValueError("candidate origins must be detection origin codes (0 to 3)")
    return np.ascontiguousarray(codes, dtype=np.int8)


def check_scan_inputs(
    photon_valid, dark_rel, dark_bounds, trap_filled, trap_release, count: int
) -> np.ndarray:
    """Validated ``int64`` CSR bounds of a ``count``-window scan.

    Every tier calls this before it scans, so no tier reads past an array:
    the photon validity and trap draws hold one entry per window, and the
    candidate bounds are ``count + 1`` integers that start at 0 or above,
    never decrease and end within ``dark_rel``.
    """
    if any(np.shape(array) != (count,) for array in (photon_valid, trap_filled, trap_release)):
        raise ValueError(f"photon validity and trap draws must hold {count} windows each")
    bounds = np.asarray(dark_bounds)
    if bounds.shape != (count + 1,) or bounds.dtype.kind not in "iu":
        raise ValueError(f"candidate bounds must be {count + 1} integers")
    if bounds[0] < 0 or bounds[-1] > np.size(dark_rel) or (bounds[1:] < bounds[:-1]).any():
        raise ValueError(
            f"candidate bounds must start at 0 or above, never decrease and end "
            f"at or below the {np.size(dark_rel)} candidates"
        )
    return bounds.astype(np.int64, copy=False)


def check_factors(factors, count: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated ``float64`` ``(photon, dark, trap)`` factors of a ``count``-window scan."""
    arrays = tuple(np.ascontiguousarray(factor, dtype=np.float64) for factor in factors)
    if len(arrays) != 3 or any(array.shape != (count,) for array in arrays):
        raise ValueError(f"likelihood factors must be three arrays of {count} windows")
    return arrays


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
    segments: Optional[np.ndarray] = None,
    factors: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
    candidate_origins: Optional[np.ndarray] = None,
) -> Tuple:
    """Sequential dead-time winner scan over one channel's windows.

    Inputs are the pre-drawn per-window randomness of a batch pass (photon
    candidate offsets + validity, CSR-indexed candidate offsets — dark
    counts unless ``candidate_origins`` says otherwise — and afterpulse trap
    draws) plus the device state encoded per the module sentinel convention.
    Returns ``(times, origins, last_fire, pending)`` — absolute detection
    times (``NaN`` = missed), int8 origin codes, and the carried-over state,
    same encoding.

    ``segments`` optionally lists the windows at which independent devices
    start (see :func:`check_segments`): at each start after the first the
    device is armed and trap-free and the window clock restarts at
    ``base``, so one call scans many links back to back exactly as one call
    per segment would.  The carried-in state applies to the first segment,
    and the returned ``last_fire`` and ``pending`` are then float arrays,
    each segment's final state.

    ``factors`` optionally gives the ``(photon, dark, trap)`` likelihood
    factors of an importance-sampled pass, one per window (see the module
    notes); the scan then returns the per-window weights as a fifth value,
    ``(times, origins, last_fire, pending, weights)``.

    ``candidate_origins`` optionally gives the origin code of each entry of
    the candidate list (see the module notes); ``None`` reports every one as
    a dark count (code ``1``).
    """
    count = int(photon_rel.shape[0])
    dark_bounds = check_scan_inputs(
        photon_valid, dark_rel, dark_bounds, trap_filled, trap_release, count
    )
    starts = [0] if segments is None else check_segments(segments, count).tolist()
    weighted = factors is not None
    if weighted:
        photon_f, dark_f, trap_f = (factor.tolist() for factor in check_factors(factors, count))
        out_weights = [1.0] * count
    running = 1.0
    end_fires = []
    end_pendings = []
    # Python-list views: ~3x faster to index than NumPy scalars in a Python
    # loop, and list floats are exactly the C doubles of the arrays.
    photon_rel_l = photon_rel.tolist()
    photon_valid_l = photon_valid.tolist()
    dark_rel_l = dark_rel.tolist()
    dark_bounds_l = dark_bounds.tolist()
    if candidate_origins is None:
        codes_l = [1] * len(dark_rel_l)
    else:
        codes_l = check_origins(candidate_origins, len(dark_rel_l)).tolist()
    trap_filled_l = trap_filled.tolist()
    trap_release_l = trap_release.tolist()
    out_times = [_NAN] * count  # a window that reports nothing keeps these
    out_origins = [-1] * count
    for first, stop in zip(starts, starts[1:] + [count]):
        if first:
            last_fire = -_INF
            pending = _INF
        for index in range(first, stop):
            # Counting from the segment's start keeps the window start the
            # float a call on the segment alone computes.
            window_start = base + (index - first) * duration
            window_end = window_start + duration
            if window_start - last_fire >= gate_recovery:
                ready = window_start
                if pending == _INF:  # a fresh start: the weight restarts
                    running = 1.0
            else:
                ready = last_fire + dead_time
            best = _INF
            origin = -1
            if photon_valid_l[index]:
                time = window_start + photon_rel_l[index]
                if time >= ready:
                    best = time
                    origin = 0
            dark_end = dark_bounds_l[index + 1]
            if dark_end != dark_bounds_l[index]:  # most windows have none: skip the range
                for position in range(dark_bounds_l[index], dark_end):
                    time = window_start + dark_rel_l[position]
                    if time >= ready and time < best:
                        best = time
                        origin = codes_l[position]
            if pending < window_end:  # a trap release in this window, fired or absorbed
                if window_start <= pending and pending >= ready and pending < best:
                    best = pending
                    origin = 2
                pending = _INF
            if origin >= 0:
                out_times[index] = best
                out_origins[index] = origin
                last_fire = best
                if trap_filled_l[index]:
                    pending = best + trap_release_l[index]
                else:
                    pending = _INF
            if weighted:
                running = running * photon_f[index] * dark_f[index]
                if origin >= 0:
                    running = running * trap_f[index]
                out_weights[index] = running
        end_fires.append(last_fire)
        end_pendings.append(pending)
    if segments is not None:
        last_fire = np.asarray(end_fires, dtype=float)
        pending = np.asarray(end_pendings, dtype=float)
    result = (
        np.asarray(out_times, dtype=float),
        np.asarray(out_origins, dtype=np.int8),
        last_fire,
        pending,
    )
    return result + (np.asarray(out_weights, dtype=float),) if weighted else result


# -- detection decode: two-level TDC and slot decision ---------------------------

#: The engines clip a time to this fraction of a range, so a detection on the
#: range edge quantises inside it.
_EDGE = 0.999999


def split_times(
    times: np.ndarray, period: float, modulus: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Coarse codes and time to the next clock edge of non-negative arrival times.

    Times at or past the counter's range ``modulus * period`` clamp to just
    below it.  A hit exactly on an edge (phase 0) measures one full period to
    the next edge, which keeps the code-versus-time mapping monotonic.
    """
    if np.any(times < 0):
        raise ValueError("arrival times must be non-negative")
    clamped = np.minimum(times, np.nextafter(modulus * period, 0.0))
    coarse_codes = np.floor(clamped / period).astype(int) % modulus
    return coarse_codes, period - np.mod(clamped, period)


def reconstruct_times(
    coarse_codes: np.ndarray,
    fine_codes: np.ndarray,
    period: float,
    modulus: int,
    lsb: float,
) -> np.ndarray:
    """Mid-bin arrival-time estimate: next edge minus ``(fine + 0.5)·lsb``."""
    if np.any((coarse_codes < 0) | (coarse_codes >= modulus)):
        raise ValueError(f"coarse codes must be within [0, {modulus})")
    fine_time_to_edge = np.minimum((fine_codes + 0.5) * lsb, period)
    return (coarse_codes + 1) * period - fine_time_to_edge


def slots_of_times(
    times: np.ndarray, slot_duration: float, slot_count: int, symbol_duration: float
) -> np.ndarray:
    """Slot of each time within a symbol; the guard interval maps to the last slot."""
    if times.size and (times.min() < 0 or times.max() >= symbol_duration):
        raise ValueError(
            f"times must lie within the symbol range [0, {symbol_duration})"
        )
    slots = np.minimum((times / slot_duration).astype(np.int64), slot_count - 1)
    return np.where(times >= slot_count * slot_duration, slot_count - 1, slots)


def check_decode_inputs(
    times: np.ndarray,
    origins: np.ndarray,
    channels: int,
    period,
    modulus,
    taps,
    lsb,
    segments=None,
) -> Optional[Tuple]:
    """Reject what no tier could index or divide by (every tier calls this).

    Without ``segments`` the TDC is one table: ``modulus`` and the tap
    count must be positive, and ``None`` is returned.  With segment starts
    (:func:`check_segments` over the flat windows) every segment has its own
    TDC: ``period``, ``modulus`` and ``lsb`` hold one positive value per
    segment and ``taps`` one non-empty 1-D array per segment.  Returns
    ``(starts, periods, moduli, taps, lsbs)`` as ``int64``, ``float64``,
    ``int64``, a list of ``float64`` arrays and ``float64``.
    """
    if np.shape(times) != np.shape(origins):
        raise ValueError("times and origins must have the same shape")
    if segments is None:
        if channels < 1 or modulus < 1 or np.size(taps) < 1:
            raise ValueError("channels, modulus and the tap count must be positive")
        return None
    if channels < 1:
        raise ValueError("channels must be positive")
    starts = check_segments(segments, int(np.size(origins)))
    periods = np.asarray(period, dtype=np.float64)
    moduli = np.asarray(modulus)
    lsbs = np.asarray(lsb, dtype=np.float64)
    taps = [np.ascontiguousarray(table, dtype=np.float64) for table in taps]
    if (
        periods.shape != starts.shape or moduli.shape != starts.shape
        or lsbs.shape != starts.shape or len(taps) != starts.size
    ):
        raise ValueError(
            f"a segmented decode needs one period, modulus, tap table and LSB "
            f"for each of its {starts.size} segments"
        )
    if moduli.dtype.kind not in "iu":
        raise ValueError("coarse moduli must be integers")
    moduli = moduli.astype(np.int64, copy=False)
    if not (periods.min() > 0 and moduli.min() > 0 and lsbs.min() > 0):
        raise ValueError("every segment's period, modulus and LSB must be positive")
    if any(table.ndim != 1 or table.size == 0 for table in taps):
        raise ValueError("every segment needs a 1-D table of at least one tap")
    return starts, periods, moduli, taps, lsbs


def decode_windows(
    times: np.ndarray,
    origins: np.ndarray,
    channels: int,
    window: float,
    period: float,
    modulus: int,
    taps: np.ndarray,
    lsb: float,
    slot_duration: float,
    slot_count: int,
    segments: Optional[np.ndarray] = None,
) -> np.ndarray:
    """PPM symbol value of every window's detection, ``0`` for a missed window.

    ``times`` and ``origins`` are a detection pass's outputs, flat or
    ``(S, C)``; flat element ``i`` lies in window ``i // channels``, which
    starts at ``(i // channels) * window``.  Each detection is made
    window-relative and clipped into the TDC range, quantised by the
    two-level TDC (coarse code, residual to the next edge, tap search over
    the delay line's cumulative ``taps``, mid-bin reconstruction), clipped
    into the window and decided to a slot.  Returns ``int64`` values shaped
    like ``origins``.  Detected windows carry finite times, as the detection
    kernels produce them.

    ``segments`` optionally lists the flat elements at which the passes of
    different receivers start (see :func:`check_decode_inputs`); ``period``,
    ``modulus``, ``taps`` and ``lsb`` then hold one TDC per segment, and a
    segment's elements count their windows from 0, as the segmented scan
    clocks them.  A segmented call is one call per segment, concatenated,
    bit for bit.
    """
    tables = check_decode_inputs(times, origins, channels, period, modulus, taps, lsb, segments)
    flat_origins = np.asarray(origins).reshape(-1)
    decoded = np.zeros(flat_origins.size, dtype=np.int64)
    detected = np.flatnonzero(flat_origins >= 0)
    if detected.size:
        index = detected
        if tables is not None:
            # Each detection's segment, its window counted from the
            # segment's start, and that segment's TDC.
            starts, periods, moduli, taps, lsbs = tables
            cuts = np.searchsorted(detected, starts).tolist() + [detected.size]
            owner = np.repeat(np.arange(starts.size), np.diff(cuts))
            index = detected - starts[owner]
            period, modulus, lsb = periods[owner], moduli[owner], lsbs[owner]
        relative = np.asarray(times).reshape(-1)[detected] - (index // channels) * window
        relative = np.clip(relative, 0.0, modulus * period * _EDGE)
        coarse_codes, residual = split_times(relative, period, modulus)
        if tables is None:
            fine_codes = np.searchsorted(taps, residual, side="right")
            fine_codes = np.minimum(fine_codes, np.size(taps) - 1)
        else:
            fine_codes = np.concatenate([
                np.minimum(np.searchsorted(table, residual[lo:hi], side="right"), table.size - 1)
                for table, lo, hi in zip(taps, cuts, cuts[1:])
            ])
        measured = reconstruct_times(coarse_codes, fine_codes, period, modulus, lsb)
        decoded[detected] = slots_of_times(
            np.clip(measured, 0.0, window * _EDGE), slot_duration, slot_count, window
        )
    return decoded.reshape(np.shape(origins))
