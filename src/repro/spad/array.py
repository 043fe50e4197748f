"""SPAD receiver arrays.

The paper's optical bus services many channels; each channel terminates on a
SPAD pixel.  :func:`detect_in_windows_multichannel` is the array analogue of
the batch window pass :meth:`~repro.spad.device.SpadDevice.detect_in_windows`:
one ``(symbols, channels)`` pass over every pixel of a parallel channel array,
with the per-element datapaths folded into a shared pipeline the way hardware
arrays fold them.  It is the detection core of the ``"multichannel"`` link
backend (:mod:`repro.core.multilink`).  After the bulk draws, naive and
importance-sampled passes alike are one segmented ``scan_windows`` call.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.kernels import get_kernel
from repro.spad.device import ImportanceSettings, SpadDevice, draw_probabilities, likelihood_factors


def _channel_major(grid: np.ndarray) -> np.ndarray:
    """The entries of an ``(S, C)`` grid, flat and channel-major (channel 0's windows first)."""
    windows, channels = grid.shape
    if windows > 4:
        return grid.T.ravel()
    # A transposed copy walks its short inner axis element by element; for
    # a few windows of many channels, one strided copy per window is faster.
    flat = np.empty((channels, windows), dtype=grid.dtype)
    for window in range(windows):
        flat[:, window] = grid[window]
    return flat.ravel()


def channel_major_draws(
    relative: np.ndarray,
    valid: np.ndarray,
    interference: Sequence[Tuple[np.ndarray, np.ndarray]],
    dark_counts: np.ndarray,
    dark_rel: np.ndarray,
    background_counts: np.ndarray,
    background_rel: np.ndarray,
    trap_filled: np.ndarray,
    trap_release: np.ndarray,
) -> Tuple[np.ndarray, ...]:
    """An array pass's draws as the inputs of one segmented ``scan_windows`` call.

    The draws come window-major, as drawn: ``relative`` and ``valid`` are
    each window's own avalanche offset and whether it lands, ``interference``
    holds one such ``(relative, valid)`` pair per interference pulse set, the
    dark and background offsets are flat in window-major order behind their
    ``(S, C)`` counts, and the trap draws are ``(S, C)``.

    Returns ``(photon_rel, photon_valid, candidate_rel, candidate_bounds,
    trap_filled, trap_release, candidate_origins)``: the scan's six array
    inputs, then its candidate origin codes, all flat and channel-major
    (channel ``c``'s windows are entries ``c*S`` to ``c*S + S - 1``).  Each
    window's candidate list holds its landing interference pulses set by set
    (code 3), its dark counts (code 1) and its background events (code 3),
    each source in draw order: the order in which ties go to the first.
    """
    windows, channels = relative.shape
    counts = dark_counts + background_counts
    for _, pulse_valid in interference:
        counts += pulse_valid
    bounds = np.zeros(windows * channels + 1, dtype=np.int64)
    np.cumsum(_channel_major(counts), out=bounds[1:])
    candidate_rel = np.empty(int(bounds[-1]))
    candidate_origins = np.empty(candidate_rel.size, dtype=np.int8)
    # The next free entry of each window's list, window-major (a copy).
    free = bounds[:-1].reshape(channels, windows).T.flatten()
    for pulse_rel, pulse_valid in interference:
        hits = np.flatnonzero(pulse_valid)
        slots = free[hits]
        candidate_rel[slots] = pulse_rel.ravel()[hits]
        candidate_origins[slots] = 3
        free[hits] += 1
    for code, event_counts, event_rel in (
        (1, dark_counts, dark_rel),
        (3, background_counts, background_rel),
    ):
        if event_rel.size:
            # Events lie window-major, as the windows holding them: event e
            # goes to its window's next free entry plus its rank there.
            hits = np.flatnonzero(event_counts > 0)
            per_window = event_counts.ravel()[hits]
            first = np.cumsum(per_window) - per_window
            slots = np.repeat(free[hits] - first, per_window) + np.arange(event_rel.size)
            candidate_rel[slots] = event_rel
            candidate_origins[slots] = code
            free[hits] += per_window
    return (
        _channel_major(relative),
        _channel_major(valid),
        candidate_rel,
        bounds,
        _channel_major(trap_filled),
        _channel_major(trap_release),
        candidate_origins,
    )


def _checked_budget(photons, name: str) -> np.ndarray:
    """A photon budget (scalar or per channel) as floats; ``+inf`` is a valid budget."""
    budget = np.asarray(photons, dtype=float)
    if not np.all(budget >= 0.0):
        raise ValueError(f"{name} must be non-negative (and not NaN)")
    return budget


def detect_in_windows_multichannel(
    device: SpadDevice,
    window_duration: float,
    photon_offsets: np.ndarray,
    mean_photons=1.0,
    generator: Optional[np.random.Generator] = None,
    secondary_offsets: Sequence[np.ndarray] = (),
    secondary_photons: Sequence[float] = (),
    background_mean=0.0,
    start_time: float = 0.0,
    importance: Optional[ImportanceSettings] = None,
) -> Tuple[np.ndarray, ...]:
    """Batch window detection across ``C`` parallel channels at once.

    The multichannel analogue of
    :meth:`~repro.spad.device.SpadDevice.detect_in_windows`: window ``s`` of
    channel ``c`` spans ``[start_time + s*T, start_time + (s+1)*T)``, every
    channel is an *independent* pixel sharing ``device``'s physical models
    (PDP, quenching, dark counts, afterpulsing, jitter), and all randomness is
    pre-drawn as ``(S, C)`` bulk arrays — one draw per physical process, the
    same layout as the single-channel batch pass.

    Channels never couple through the detector state, so after the bulk
    draws the only sequential work — the dead-time/afterpulse recursion
    along each channel's windows — is one ``scan_windows`` call of the
    resolved compute kernel (:mod:`repro.kernels`) over the channel-major
    draws (:func:`channel_major_draws`), a segment per channel.

    Parameters
    ----------
    device:
        Template pixel; its models are shared by every channel.  The pass is
        stateless — each call starts from a fully armed, trap-free array and
        ``device`` state is never touched.
    window_duration:
        Window length ``T`` [s].
    photon_offsets:
        ``(S, C)`` window-relative arrival times of each channel's own optical
        pulse; ``NaN`` marks a window with no pulse.
    mean_photons:
        Mean photons per pulse on each channel's active area (scalar or
        ``(C,)``; non-negative, ``inf`` allowed).
    generator:
        Bulk randomness source; a fresh default generator when ``None``.
    secondary_offsets / secondary_photons:
        Optional interference pulses (optical crosstalk): each entry of
        ``secondary_offsets`` is an ``(S, C)`` offset array (``NaN`` = none)
        giving, per victim channel, the arrival time of one neighbour's pulse;
        the matching ``secondary_photons`` entry is its mean photon count
        (as ``mean_photons``).  Detections they cause report origin code ``3``
        (:attr:`~repro.spad.device.DetectionOrigin.CROSSTALK`).
    background_mean:
        Expected *detected* background events per window and channel (scalar
        or ``(C,)``), uniform over the window — the merged scattered-light
        floor of many far channels.  Also reported as crosstalk.
    start_time:
        Absolute start of window 0 [s].

    Returns ``(times, origins)``: ``(S, C)`` absolute detection times (``NaN``
    when a window reported nothing) and int8 origin codes (see
    :data:`~repro.spad.device.ORIGIN_BY_CODE`; ``-1`` = missed).  On a tie
    the channel's own photon wins, then the interference pulses in order,
    dark counts, background events and a pending afterpulse.

    When ``importance`` is given the photon/dark/afterpulse draws come from
    floored proposal distributions (:class:`~repro.spad.device.ImportanceSettings`)
    and a third ``(S, C)`` array of per-window likelihood weights is returned:
    ``(times, origins, weights)``, each channel weighted as
    :meth:`~repro.spad.device.SpadDevice.detect_in_windows` weighs one
    device.  Crosstalk interference couples channel likelihoods and is not
    supported under importance sampling.
    """
    if window_duration <= 0:
        raise ValueError("window_duration must be positive")
    offsets = np.asarray(photon_offsets, dtype=float)
    if offsets.ndim != 2:
        raise ValueError("photon_offsets must have shape (symbols, channels)")
    if len(secondary_offsets) != len(secondary_photons):
        raise ValueError("secondary_offsets and secondary_photons must pair up")
    mean_photons = _checked_budget(mean_photons, "mean_photons")
    secondary_photons = [
        _checked_budget(photons, "secondary_photons") for photons in secondary_photons
    ]
    windows, channels = offsets.shape
    if windows == 0 or channels == 0:
        empty = (np.empty(offsets.shape), np.empty(offsets.shape, dtype=np.int8))
        return empty if importance is None else empty + (np.empty(offsets.shape),)
    duration = float(window_duration)
    if np.any((offsets < 0) | (offsets >= duration)):  # NaN, no pulse, compares false
        raise ValueError("photon offsets must lie inside the window")
    rng = generator if generator is not None else np.random.default_rng()
    if importance is not None and (
        secondary_offsets or np.any(np.asarray(background_mean, dtype=float) > 0.0)
    ):
        raise ValueError(
            "importance sampling does not support crosstalk interference "
            "(secondary pulses or background floor couple channel likelihoods)"
        )
    for sec in secondary_offsets:
        if np.asarray(sec).shape != offsets.shape:
            raise ValueError("secondary offsets must match photon_offsets' shape")

    pdp = device.detection_probability
    shape = (windows, channels)

    def detect_probability(photons: np.ndarray) -> np.ndarray:
        return 1.0 - np.exp(-pdp * photons)

    def pulse_draw(pulse_offsets: np.ndarray, p_detect) -> Tuple[np.ndarray, ...]:
        """Detected pulses, their window-relative avalanche times, which land in the window."""
        present = ~np.isnan(pulse_offsets)
        detected = (rng.random(shape) < p_detect) & present
        jitter = device.jitter.sample_array(rng, shape)
        relative = np.maximum(np.where(present, pulse_offsets, 0.0) + jitter, 0.0)
        return detected, relative, detected & (relative < duration)

    # Pre-drawn randomness, one bulk draw per physical process (the
    # detect_in_windows layout, widened to (S, C)).  Importance sampling
    # makes the same draws from the floored proposals: it has no crosstalk,
    # so the interference draws are empty (a zero-mean Poisson and an empty
    # uniform consume nothing).
    natural = (
        detect_probability(mean_photons),
        device.dark_count_rate * duration,
        device.afterpulsing.probability,
    )
    p_detect, dark_mean, trap_prob = draw_probabilities(natural, importance)
    detected, relative, valid = pulse_draw(offsets, p_detect)
    interference = [
        pulse_draw(np.asarray(sec, dtype=float), detect_probability(photons))[1:]
        for sec, photons in zip(secondary_offsets, secondary_photons)
    ]
    dark_counts = rng.poisson(dark_mean, shape)
    dark_rel = rng.uniform(0.0, duration, int(dark_counts.sum()))
    background_counts = rng.poisson(np.broadcast_to(background_mean, (channels,)), shape)
    background_rel = rng.uniform(0.0, duration, int(background_counts.sum()))
    trap_filled = rng.random(shape) < trap_prob
    trap_release = rng.exponential(device.afterpulsing.time_constant, shape)

    factors = None
    if importance is not None:
        factors = tuple(
            _channel_major(factor)
            for factor in likelihood_factors(
                natural, importance, ~np.isnan(offsets), detected, dark_counts, trap_filled
            )
        )
    # Every channel starts armed and trap-free: one segment per channel.
    *draws, candidate_origins = channel_major_draws(
        relative, valid, interference, dark_counts, dark_rel,
        background_counts, background_rel, trap_filled, trap_release,
    )
    times, origins, _, _, *weights = get_kernel().scan_windows(
        *draws, device.quenching.dead_time, device.quenching.effective_gate_recovery,
        duration, float(start_time), -np.inf, np.inf,
        np.arange(channels) * windows, factors, candidate_origins,
    )
    return tuple(out.reshape(channels, windows).T for out in (times, origins, *weights))
