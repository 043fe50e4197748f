"""SPAD receiver arrays.

The paper's optical bus services many channels; each channel terminates on a
SPAD pixel.  A :class:`SpadArray` groups pixels and provides aggregate
figures: total area, aggregate throughput when channels run in parallel, and
coincidence (M-of-N) detection, which is a standard way to suppress dark
counts at the cost of requiring more optical power.

:func:`detect_in_windows_multichannel` is the array analogue of the batch
window pass :meth:`~repro.spad.device.SpadDevice.detect_in_windows`: one
``(symbols, channels)`` pass over every pixel of a parallel channel array,
with the per-element datapaths folded into a shared pipeline the way hardware
arrays fold them.  It is the detection core of the ``"multichannel"`` link
backend (:mod:`repro.core.multilink`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels import get_kernel
from repro.simulation.randomness import RandomSource
from repro.spad.device import (
    ORIGIN_CODE_MISSED,
    DetectionEvent,
    DetectionOrigin,
    ImportanceSettings,
    SpadConfig,
    SpadDevice,
)


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
    kernel's ``resolve_windows`` (:mod:`repro.kernels`).

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
        defers to ``$REPRO_KERNEL`` / ``"auto"``).  Every kernel's resolver
        is bit-identical to :func:`repro.kernels.reference.resolve_windows`
        on the same pre-drawn randomness, so the choice affects speed only.

    Returns ``(times, origins)``: ``(S, C)`` absolute detection times (``NaN``
    when a window reported nothing) and int8 origin codes (see
    :data:`~repro.spad.device.ORIGIN_BY_CODE`; ``-1`` = missed).

    When ``importance`` is given the photon/dark/afterpulse draws come from
    floored proposal distributions (:class:`~repro.spad.device.ImportanceSettings`)
    and a third ``(S, C)`` array of per-window likelihood weights is returned:
    ``(times, origins, weights)`` — the multichannel twin of the
    single-channel importance path.  Crosstalk interference couples channel
    likelihoods and is not supported under importance sampling.
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
        if importance is not None:
            return np.empty(offsets.shape), np.empty(offsets.shape, dtype=np.int8), np.empty(offsets.shape)
        return np.empty(offsets.shape), np.empty(offsets.shape, dtype=np.int8)
    duration = float(window_duration)
    has_pulse = ~np.isnan(offsets)
    if np.any((offsets[has_pulse] < 0) | (offsets[has_pulse] >= duration)):
        raise ValueError("photon offsets must lie inside the window")
    rng = generator if generator is not None else np.random.default_rng()
    if importance is not None:
        if secondary_offsets or np.any(np.asarray(background_mean, dtype=float) > 0.0):
            raise ValueError(
                "importance sampling does not support crosstalk interference "
                "(secondary pulses or background floor couple channel likelihoods)"
            )
        return _detect_multichannel_importance(
            device, duration, offsets, has_pulse, mean_photons, rng, start_time, importance
        )

    pdp = device.detection_probability
    shape = (windows, channels)
    base = float(start_time)
    window_starts = base + np.arange(windows)[:, None] * duration

    def pulse_candidates(pulse_offsets: np.ndarray, photons) -> np.ndarray:
        """Absolute avalanche-candidate times of one optical pulse set (inf = none)."""
        present = ~np.isnan(pulse_offsets)
        p_detect = 1.0 - np.exp(-pdp * np.asarray(photons, dtype=float))
        detected = (rng.random(shape) < p_detect) & present
        jitter = device.jitter.sample_array(rng, shape)
        relative = np.maximum(np.where(present, pulse_offsets, 0.0) + jitter, 0.0)
        valid = detected & (relative < duration)
        return np.where(valid, window_starts + relative, np.inf)

    # Pre-drawn randomness, one bulk draw per physical process (the
    # detect_in_windows layout, widened to (S, C)).
    for sec in secondary_offsets:
        if np.asarray(sec).shape != offsets.shape:
            raise ValueError("secondary offsets must match photon_offsets' shape")
    primary = pulse_candidates(offsets, mean_photons)
    # Interference candidates stacked to (K, S, C), the kernel layout.
    secondary = np.empty((len(secondary_offsets), windows, channels))
    for k, (sec, photons) in enumerate(zip(secondary_offsets, secondary_photons)):
        secondary[k] = pulse_candidates(np.asarray(sec, dtype=float), photons)

    dark_rate = device.dark_counts.rate(device.config.temperature, device.config.excess_bias)
    dark_counts = rng.poisson(dark_rate * duration, shape)
    dark_rel = rng.uniform(0.0, duration, int(dark_counts.sum()))
    background_counts = rng.poisson(np.broadcast_to(background_mean, (channels,)), shape)
    background_rel = rng.uniform(0.0, duration, int(background_counts.sum()))
    trap_filled = rng.random(shape) < device.afterpulsing.probability
    trap_release = rng.exponential(device.afterpulsing.time_constant, shape)

    # CSR-style bounds so the (rare) dark/background events of window s,
    # channel c can be looked up without per-window array scans.
    dark_bounds = np.zeros(windows * channels + 1, dtype=np.int64)
    np.cumsum(dark_counts.ravel(), out=dark_bounds[1:])
    background_bounds = np.zeros(windows * channels + 1, dtype=np.int64)
    np.cumsum(background_counts.ravel(), out=background_bounds[1:])

    return get_kernel(kernel).resolve_windows(
        primary,
        secondary,
        dark_rel,
        dark_bounds,
        background_rel,
        background_bounds,
        trap_filled,
        trap_release,
        device.quenching.dead_time,
        device.quenching.effective_gate_recovery,
        duration,
        base,
    )


def _detect_multichannel_importance(
    device: SpadDevice,
    duration: float,
    offsets: np.ndarray,
    has_pulse: np.ndarray,
    mean_photons,
    rng: np.random.Generator,
    start_time: float,
    importance: ImportanceSettings,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Importance-sampled multichannel pass: biased pre-draws + weighted scan.

    Channels are independent pixels, so each channel carries its own running
    likelihood-weight product with the same regenerative reset rule as the
    single-channel path (:meth:`SpadDevice.detect_in_windows` with
    ``importance``): the product restarts whenever the channel enters a
    window armed with no pending trap release.
    """
    windows, channels = offsets.shape
    shape = (windows, channels)
    base = float(start_time)
    window_starts = base + np.arange(windows)[:, None] * duration

    # Photon detection: floor the per-channel miss probability.
    pdp = device.detection_probability
    p_detect = 1.0 - np.exp(-pdp * np.asarray(mean_photons, dtype=float))
    miss_prob = 1.0 - p_detect
    proposal_miss = np.maximum(miss_prob, importance.min_miss_probability)
    proposal_detect = 1.0 - proposal_miss
    safe_detect = np.where(proposal_detect > 0.0, proposal_detect, 1.0)
    weight_detect = np.where(proposal_detect > 0.0, p_detect / safe_detect, 0.0)
    weight_miss = miss_prob / proposal_miss
    detected = (rng.random(shape) < proposal_detect) & has_pulse
    jitter = device.jitter.sample_array(rng, shape)
    relative = np.maximum(np.where(has_pulse, offsets, 0.0) + jitter, 0.0)
    valid = detected & (relative < duration)
    primary = np.where(valid, window_starts + relative, np.inf)
    photon_weight = np.where(has_pulse, np.where(detected, weight_detect, weight_miss), 1.0)

    # Dark counts: floor the expected counts per window; only the Poisson
    # count carries weight (positions are uniform under both measures).
    dark_rate = device.dark_counts.rate(device.config.temperature, device.config.excess_bias)
    dark_mean = dark_rate * duration
    proposal_dark_mean = max(dark_mean, importance.min_dark_expectation)
    dark_counts = rng.poisson(proposal_dark_mean, shape)
    dark_rel = rng.uniform(0.0, duration, int(dark_counts.sum()))
    dark_bounds = np.zeros(windows * channels + 1, dtype=np.int64)
    np.cumsum(dark_counts.ravel(), out=dark_bounds[1:])
    if proposal_dark_mean > 0.0:
        dark_weight = np.exp(proposal_dark_mean - dark_mean) * np.power(
            dark_mean / proposal_dark_mean, dark_counts.astype(float)
        )
    else:
        dark_weight = np.ones(shape)

    # Afterpulse trap fill: floor the fill probability; the factor applies at
    # the fire site where the draw is consumed.
    trap_prob = device.afterpulsing.probability
    proposal_trap = max(trap_prob, importance.min_trap_probability)
    trap_filled = rng.random(shape) < proposal_trap
    trap_release = rng.exponential(device.afterpulsing.time_constant, shape)
    weight_trap_filled = trap_prob / proposal_trap if proposal_trap > 0.0 else 1.0
    weight_trap_empty = (
        (1.0 - trap_prob) / (1.0 - proposal_trap) if proposal_trap < 1.0 else 0.0
    )
    trap_weight = np.where(trap_filled, weight_trap_filled, weight_trap_empty)

    dead_time = device.quenching.dead_time
    gate_recovery = device.quenching.effective_gate_recovery
    dark_in_row = dark_counts.any(axis=1)
    last_fire = np.full(channels, -np.inf)
    pending = np.full(channels, np.inf)
    running = np.ones(channels)
    out_times = np.full(shape, np.nan)
    out_origins = np.full(shape, ORIGIN_CODE_MISSED, dtype=np.int8)
    out_weights = np.ones(shape)

    # Window-axis scan resolving all channels per step (the winner rules of
    # repro.kernels.reference.resolve_windows), with per-channel weight
    # bookkeeping folded in.
    for s in range(windows):
        ws = base + s * duration
        we = ws + duration
        armed = ws - last_fire >= gate_recovery
        ready = np.where(armed, ws, last_fire + dead_time)
        running = np.where(armed & np.isinf(pending), 1.0, running)
        running = running * photon_weight[s] * dark_weight[s]

        candidate = primary[s]
        wins = (candidate >= ready) & np.isfinite(candidate)
        best = np.where(wins, candidate, np.inf)
        origin = np.where(wins, 0, ORIGIN_CODE_MISSED)
        if dark_in_row[s]:
            for c in np.flatnonzero(dark_counts[s]):
                flat = s * channels + c
                for t in dark_rel[dark_bounds[flat] : dark_bounds[flat + 1]]:
                    t_abs = ws + t
                    if t_abs >= ready[c] and t_abs < best[c]:
                        best[c] = t_abs
                        origin[c] = 1
        wins = (pending >= ws) & (pending < we) & (pending >= ready) & (pending < best)
        best = np.where(wins, pending, best)
        origin = np.where(wins, 2, origin)

        consumed = pending < we
        fired = origin >= 0
        running = np.where(fired, running * trap_weight[s], running)
        out_times[s] = np.where(fired, best, np.nan)
        out_origins[s] = origin
        out_weights[s] = running
        last_fire = np.where(fired, best, last_fire)
        pending = np.where(
            fired,
            np.where(trap_filled[s], best + trap_release[s], np.inf),
            np.where(consumed, np.inf, pending),
        )
    return out_times, out_origins, out_weights


class SpadArray:
    """A rectangular array of identical SPAD pixels.

    Parameters
    ----------
    rows, columns:
        Array geometry; ref [5] demonstrated a 64x64 array.
    pixel_pitch:
        Centre-to-centre pixel spacing [m].
    config:
        Per-pixel configuration shared by all pixels.
    seed:
        Seed used to derive independent random streams per pixel.
    """

    def __init__(
        self,
        rows: int,
        columns: int,
        pixel_pitch: float = 25e-6,
        config: SpadConfig = SpadConfig(),
        seed: int = 0,
    ) -> None:
        if rows <= 0 or columns <= 0:
            raise ValueError("rows and columns must be positive")
        if pixel_pitch <= 0:
            raise ValueError("pixel_pitch must be positive")
        self.rows = rows
        self.columns = columns
        self.pixel_pitch = pixel_pitch
        self.config = config
        root = RandomSource(seed)
        self._pixels: List[SpadDevice] = [
            SpadDevice(config=config, random_source=root.spawn(f"pixel:{index}"))
            for index in range(rows * columns)
        ]
        # Bulk stream for the vectorised multichannel window pass; independent
        # of the per-pixel streams so scalar and batch use stay reproducible.
        self._batch_source = root.spawn("batch")

    # -- geometry -------------------------------------------------------------
    @property
    def pixel_count(self) -> int:
        return self.rows * self.columns

    @property
    def footprint_area(self) -> float:
        """Total silicon area of the array [m^2]."""
        return self.rows * self.columns * self.pixel_pitch ** 2

    def pixel(self, row: int, column: int) -> SpadDevice:
        if not (0 <= row < self.rows and 0 <= column < self.columns):
            raise IndexError(f"pixel ({row}, {column}) outside {self.rows}x{self.columns} array")
        return self._pixels[row * self.columns + column]

    def pixels(self) -> Sequence[SpadDevice]:
        return tuple(self._pixels)

    def reset(self) -> None:
        for pixel in self._pixels:
            pixel.reset()

    # -- aggregate behaviour -----------------------------------------------------
    def aggregate_dark_count_rate(self) -> float:
        """Total DCR of the array [counts/s]."""
        return sum(pixel.dark_count_rate for pixel in self._pixels)

    def detect_in_window(
        self,
        window_start: float,
        window_duration: float,
        photon_time: Optional[float],
        mean_photons_per_pixel: float,
    ) -> List[Optional[DetectionEvent]]:
        """Run the same measurement window on every pixel (broadcast pulse)."""
        return [
            pixel.detect_in_window(window_start, window_duration, photon_time, mean_photons_per_pixel)
            for pixel in self._pixels
        ]

    def detect_in_windows(
        self,
        window_duration: float,
        photon_offsets: np.ndarray,
        mean_photons_per_pixel=1.0,
        start_time: float = 0.0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised batch window pass over the first ``C`` pixels.

        ``photon_offsets`` has shape ``(symbols, C)`` with ``C`` at most
        :attr:`pixel_count` — column ``c`` is the per-window pulse offset seen
        by pixel ``c`` (``NaN`` = no pulse), as in
        :meth:`SpadDevice.detect_in_windows`.  All pixels are simulated in one
        :func:`detect_in_windows_multichannel` pass; statistically equivalent
        to running each pixel's scalar window loop, deterministic per array
        seed, and stateless (per-pixel scalar state is untouched).
        """
        offsets = np.asarray(photon_offsets, dtype=float)
        if offsets.ndim != 2:
            raise ValueError("photon_offsets must have shape (symbols, channels)")
        if offsets.shape[1] > self.pixel_count:
            raise ValueError(
                f"array has {self.pixel_count} pixels, got {offsets.shape[1]} channels"
            )
        return detect_in_windows_multichannel(
            self._pixels[0],
            window_duration,
            offsets,
            mean_photons=mean_photons_per_pixel,
            generator=self._batch_source.generator,
            start_time=start_time,
        )

    def coincidence_detect(
        self,
        window_start: float,
        window_duration: float,
        photon_time: Optional[float],
        mean_photons_per_pixel: float,
        required: int,
        coincidence_window: float,
    ) -> Optional[float]:
        """M-of-N coincidence detection across the array.

        Returns the median detection time of the earliest group of at least
        ``required`` pixels whose detections fall within ``coincidence_window``
        of each other, or ``None``.  Dark counts are uncorrelated between
        pixels, so requiring a coincidence suppresses them exponentially.
        """
        if required <= 0 or required > self.pixel_count:
            raise ValueError("required must be within [1, pixel_count]")
        if coincidence_window <= 0:
            raise ValueError("coincidence_window must be positive")
        events = self.detect_in_window(
            window_start, window_duration, photon_time, mean_photons_per_pixel
        )
        times = np.sort(np.asarray([e.time for e in events if e is not None], dtype=float))
        if times.size < required:
            return None
        for i in range(times.size - required + 1):
            group = times[i : i + required]
            if group[-1] - group[0] <= coincidence_window:
                return float(np.median(group))
        return None

    def channel_slice(self, count: int) -> List[SpadDevice]:
        """The first ``count`` pixels, used as independent parallel channels."""
        if not 0 < count <= self.pixel_count:
            raise ValueError(f"count must be within [1, {self.pixel_count}]")
        return list(self._pixels[:count])
