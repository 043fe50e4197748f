"""Speculate-then-correct multichannel window resolution (NumPy + Python).

The ``resolve_windows`` of the ``"python"`` and ``"vector"`` tiers: same
signature, inputs and outputs as :func:`repro.kernels.reference.resolve_windows`
and bit-identical to it on every input that meets the array pass's
precondition — each candidate time lies inside its own window (locked by
``tests/test_kernels.py`` and ``tests/test_spad_array.py``).

Like :mod:`repro.kernels.reference`, this module is a leaf: origin codes are
literals (``0`` photon, ``1`` dark count, ``2`` afterpulse, ``3`` crosstalk,
``-1`` missed).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

_MISSED = -1


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
    """Speculate-then-correct winner resolution, bit-identical to the reference.

    Every candidate time lies inside its own window, so whenever a window's
    gated re-arm succeeds at the window start (``ready == window_start``) and
    no afterpulse is pending, the winner is simply the earliest candidate —
    computable for *all* windows and channels in one vectorised pass.  The
    sequential sweep then walks the windows touching only the exceptions:

    * channels whose previous avalanche happened within ``gate_recovery`` of
      this window's start (the dead time reaches in; candidates before
      ``last_fire + dead_time`` must be refiltered), and
    * channels with a pending trap release landing in this window (it may
      pre-empt the speculative winner, or fire a speculatively-missed window).

    Both are rare — a few percent of windows even with heavy afterpulsing —
    so the sweep is O(exceptions) Python work plus O(1) bookkeeping per
    window, instead of the reference's O(channels) work per window.
    """
    windows, channels = primary.shape
    secondaries = list(secondary)
    out_times = primary.copy()
    out_origins = np.where(np.isfinite(primary), 0, _MISSED).astype(np.int8)
    for sec in secondaries:
        better = sec < out_times
        out_times[better] = sec[better]
        out_origins[better] = 3
    # Sparse dark/background candidates fold in with the same strict-< tie
    # rule the reference applies (primary, then secondaries, darks, floor).
    for flat in np.flatnonzero(np.diff(dark_bounds)):
        s, c = divmod(int(flat), channels)
        ws = base + s * duration
        for t in dark_rel[dark_bounds[flat] : dark_bounds[flat + 1]]:
            if ws + t < out_times[s, c]:
                out_times[s, c] = ws + t
                out_origins[s, c] = 1
    for flat in np.flatnonzero(np.diff(background_bounds)):
        s, c = divmod(int(flat), channels)
        ws = base + s * duration
        for t in background_rel[background_bounds[flat] : background_bounds[flat + 1]]:
            if ws + t < out_times[s, c]:
                out_times[s, c] = ws + t
                out_origins[s, c] = 3
    out_times[out_origins < 0] = np.nan
    # Row-wise latest speculative fire (for the scalar gate-violation check)
    # and the trap releases the speculative fires would sample.
    row_latest = np.max(np.where(out_origins >= 0, out_times, -np.inf), axis=1)
    trap_s, trap_c = np.nonzero(trap_filled & (out_origins >= 0))
    trap_row_bounds = np.searchsorted(trap_s, np.arange(windows + 1))

    def candidates_for(s, c, ws, ready):
        """Earliest valid candidate of (s, c) given a re-filter threshold."""
        best = np.inf
        origin = _MISSED
        t = primary[s, c]
        if np.isfinite(t) and t >= ready:
            best, origin = t, 0
        for sec in secondaries:
            t = sec[s, c]
            if t >= ready and t < best:
                best, origin = t, 3
        flat = s * channels + c
        for t in dark_rel[dark_bounds[flat] : dark_bounds[flat + 1]]:
            if ws + t >= ready and ws + t < best:
                best, origin = ws + t, 1
        for t in background_rel[background_bounds[flat] : background_bounds[flat + 1]]:
            if ws + t >= ready and ws + t < best:
                best, origin = ws + t, 3
        return best, origin

    last_fire = np.full(channels, -np.inf)
    max_last_fire = -np.inf
    pending: dict = {}  # channel -> absolute trap-release time
    for s in range(windows):
        ws = base + s * duration
        we = ws + duration
        resolve: dict = {}  # channel -> ready threshold (gate-blocked channels)
        if not ws - max_last_fire >= gate_recovery:
            # Same float expression as the reference's ready computation, so
            # borderline comparisons resolve identically.
            for c in np.flatnonzero(~(ws - last_fire >= gate_recovery)):
                resolve[int(c)] = last_fire[c] + dead_time
        resolved = ()
        row_changed = False
        if resolve:
            resolved = tuple(resolve)
            row_changed = True
            for c, ready in resolve.items():
                best, origin = candidates_for(s, c, ws, ready)
                release = pending.get(c)
                if (
                    release is not None
                    and ws <= release < we
                    and release >= ready
                    and release < best
                ):
                    best, origin = release, 2
                if origin >= 0:
                    out_times[s, c] = best
                    out_origins[s, c] = origin
                    # The fire consumes/replaces any pending release and
                    # samples the next one.
                    if trap_filled[s, c]:
                        pending[c] = best + trap_release[s, c]
                    else:
                        pending.pop(c, None)
                else:
                    out_times[s, c] = np.nan
                    out_origins[s, c] = _MISSED
                    if release is not None and release < we:
                        del pending[c]  # consumed without firing
        if pending:
            # Unblocked channels: every speculative candidate was valid, so a
            # pending release wins exactly when it is strictly earliest — an
            # O(1) comparison against the speculative winner, no recompute.
            for c in list(pending):
                if c in resolved:
                    continue
                release = pending[c]
                if release < we:
                    speculative = out_times[s, c]
                    if release >= ws and (np.isnan(speculative) or release < speculative):
                        out_times[s, c] = release
                        out_origins[s, c] = 2
                        row_changed = True
                        if trap_filled[s, c]:
                            pending[c] = release + trap_release[s, c]
                        else:
                            del pending[c]
                    else:
                        del pending[c]  # consumed: lost the race or stale
                elif out_origins[s, c] >= 0:
                    del pending[c]  # replaced by this window's fire
        # Bookkeeping from the row's final outcomes.
        row = out_times[s]
        if row_changed:
            finite = row[~np.isnan(row)]
            latest = finite.max() if finite.size else -np.inf
        else:
            latest = row_latest[s]
        if latest > -np.inf:
            fired_row = ~np.isnan(row)
            last_fire[fired_row] = row[fired_row]
            if latest > max_last_fire:
                max_last_fire = latest
        for i in range(trap_row_bounds[s], trap_row_bounds[s + 1]):
            c = int(trap_c[i])
            if c not in resolved and out_origins[s, c] >= 0:
                pending[c] = out_times[s, c] + trap_release[s, c]
    return out_times, out_origins
