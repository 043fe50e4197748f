"""SPAD receiver arrays.

The paper's optical bus services many channels; each channel terminates on a
SPAD pixel.  :func:`detect_in_windows_multichannel` is the array analogue of
the batch window pass :meth:`~repro.spad.device.SpadDevice.detect_in_windows`:
one ``(symbols, channels)`` pass over every pixel of a parallel channel array,
with the per-element datapaths folded into a shared pipeline the way hardware
arrays fold them.  It is the detection core of the ``"multichannel"`` link
backend (:mod:`repro.core.multilink`).  Importance-sampled passes run the same
draws, channel-major, through the kernel's weighted ``scan_windows``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.kernels import get_kernel
from repro.spad.device import ImportanceSettings, SpadDevice, draw_probabilities, likelihood_factors


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
    kernel: Optional[str] = None,
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
    along each channel's windows — is one call to the resolved compute
    kernel (:mod:`repro.kernels`): ``resolve_windows``, or under importance
    sampling ``scan_windows`` over the channel-major draws with a segment
    per channel.

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
        ``(C,)``).
    generator:
        Bulk randomness source; a fresh default generator when ``None``.
    secondary_offsets / secondary_photons:
        Optional interference pulses (optical crosstalk): each entry of
        ``secondary_offsets`` is an ``(S, C)`` offset array (``NaN`` = none)
        giving, per victim channel, the arrival time of one neighbour's pulse;
        the matching ``secondary_photons`` entry is its mean photon count
        (scalar or ``(C,)``).  Detections they cause report origin code ``3``
        (:attr:`~repro.spad.device.DetectionOrigin.CROSSTALK`).
    background_mean:
        Expected *detected* background events per window and channel (scalar
        or ``(C,)``), uniform over the window — the merged scattered-light
        floor of many far channels.  Also reported as crosstalk.
    start_time:
        Absolute start of window 0 [s].
    kernel:
        Compute-kernel name (see :func:`repro.kernels.get_kernel`; ``None``
        defers to ``$REPRO_KERNEL`` / ``"auto"``).  Every kernel is
        bit-identical to :mod:`repro.kernels.reference` on the same
        pre-drawn randomness, so the choice affects speed only.

    Returns ``(times, origins)``: ``(S, C)`` absolute detection times (``NaN``
    when a window reported nothing) and int8 origin codes (see
    :data:`~repro.spad.device.ORIGIN_BY_CODE`; ``-1`` = missed).

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
    windows, channels = offsets.shape
    if windows == 0 or channels == 0:
        empty = (np.empty(offsets.shape), np.empty(offsets.shape, dtype=np.int8))
        return empty if importance is None else empty + (np.empty(offsets.shape),)
    duration = float(window_duration)
    has_pulse = ~np.isnan(offsets)
    if np.any((offsets[has_pulse] < 0) | (offsets[has_pulse] >= duration)):
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
    base = float(start_time)
    window_starts = base + np.arange(windows)[:, None] * duration

    def detect_probability(photons) -> np.ndarray:
        return 1.0 - np.exp(-pdp * np.asarray(photons, dtype=float))

    def pulse_draw(pulse_offsets: np.ndarray, p_detect) -> Tuple[np.ndarray, ...]:
        """Detected pulses, their window-relative avalanche times, which land in the window."""
        present = ~np.isnan(pulse_offsets)
        detected = (rng.random(shape) < p_detect) & present
        jitter = device.jitter.sample_array(rng, shape)
        relative = np.maximum(np.where(present, pulse_offsets, 0.0) + jitter, 0.0)
        return detected, relative, detected & (relative < duration)

    def candidates(relative: np.ndarray, valid: np.ndarray) -> np.ndarray:
        """Absolute avalanche-candidate times (inf = none)."""
        return np.where(valid, window_starts + relative, np.inf)

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
    # Interference candidates stacked to (K, S, C), the resolver's layout.
    secondary = np.empty((len(secondary_offsets), windows, channels))
    for k, (sec, photons) in enumerate(zip(secondary_offsets, secondary_photons)):
        _, sec_relative, sec_valid = pulse_draw(
            np.asarray(sec, dtype=float), detect_probability(photons)
        )
        secondary[k] = candidates(sec_relative, sec_valid)
    dark_counts = rng.poisson(dark_mean, shape)
    dark_rel = rng.uniform(0.0, duration, int(dark_counts.sum()))
    background_counts = rng.poisson(np.broadcast_to(background_mean, (channels,)), shape)
    background_rel = rng.uniform(0.0, duration, int(background_counts.sum()))
    trap_filled = rng.random(shape) < trap_prob
    trap_release = rng.exponential(device.afterpulsing.time_constant, shape)
    dead_time = device.quenching.dead_time
    gate_recovery = device.quenching.effective_gate_recovery

    if importance is not None:
        # Every channel starts armed and trap-free, so the channel-major
        # layout of the draws is one segmented scan, a segment per channel.
        # Dark offsets lie window-major; a stable sort on the channel
        # regroups them (channel, window) with each window's order kept.
        factors = likelihood_factors(
            natural, importance, has_pulse, detected, dark_counts, trap_filled
        )
        dark_channel = np.repeat(np.tile(np.arange(channels), windows), dark_counts.ravel())
        dark_bounds = np.zeros(windows * channels + 1, dtype=np.int64)
        np.cumsum(dark_counts.T.ravel(), out=dark_bounds[1:])
        times, origins, _, _, weights = get_kernel(kernel).scan_windows(
            relative.T.ravel(),
            valid.T.ravel(),
            dark_rel[np.argsort(dark_channel, kind="stable")],
            dark_bounds,
            trap_filled.T.ravel(),
            trap_release.T.ravel(),
            dead_time,
            gate_recovery,
            duration,
            base,
            -np.inf,
            np.inf,
            np.arange(channels) * windows,
            tuple(factor.T.ravel() for factor in factors),
        )
        return tuple(out.reshape(channels, windows).T for out in (times, origins, weights))

    # CSR-style bounds so the (rare) dark/background events of window s,
    # channel c can be looked up without per-window array scans.
    dark_bounds = np.zeros(windows * channels + 1, dtype=np.int64)
    np.cumsum(dark_counts.ravel(), out=dark_bounds[1:])
    background_bounds = np.zeros(windows * channels + 1, dtype=np.int64)
    np.cumsum(background_counts.ravel(), out=background_bounds[1:])

    return get_kernel(kernel).resolve_windows(
        candidates(relative, valid),
        secondary,
        dark_rel,
        dark_bounds,
        background_rel,
        background_bounds,
        trap_filled,
        trap_release,
        dead_time,
        gate_recovery,
        duration,
        base,
    )
