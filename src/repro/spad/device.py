"""Composite SPAD device model.

:class:`SpadDevice` combines the photon detection probability, dead-time
(quenching), dark-count, afterpulsing and jitter sub-models into a stochastic
detector with one interface, the measurement window: given the arrival time
of the (attenuated) optical pulse within each of many consecutive windows,
:meth:`SpadDevice.detect_in_windows` returns which detection — signal
photon, dark count or afterpulse — the SPAD reports first in each, if any.
:func:`detect_in_segments` runs several devices back to back in one pass.

The device keeps the time of its last avalanche so that dead time and
afterpulsing carry over from one window to the next, exactly the coupling that
forces the paper to match the detection cycle to the TDC range.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import inf, isinf
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.units import NM, UM
from repro.kernels import get_kernel
from repro.kernels.reference import check_segments
from repro.simulation.randomness import RandomSource
from repro.spad.afterpulsing import AfterpulsingModel
from repro.spad.dark_counts import DarkCountModel
from repro.spad.jitter import JitterModel, tail_mix
from repro.spad.pdp import PdpCurve, default_cmos_pdp
from repro.spad.quenching import QuenchingCircuit


class DetectionOrigin(enum.Enum):
    """What caused a reported detection."""

    PHOTON = "photon"
    DARK_COUNT = "dark_count"
    AFTERPULSE = "afterpulse"
    #: A photon from a *neighbouring* channel (optical crosstalk or the
    #: scattered-light floor).  Only multichannel detection passes produce it;
    #: a single isolated device never does.
    CROSSTALK = "crosstalk"


#: Integer origin codes used by the batch interfaces
#: (:meth:`SpadDevice.detect_in_windows` and
#: :func:`repro.spad.array.detect_in_windows_multichannel`): ``-1`` means no
#: detection in the window.
ORIGIN_BY_CODE = {
    0: DetectionOrigin.PHOTON,
    1: DetectionOrigin.DARK_COUNT,
    2: DetectionOrigin.AFTERPULSE,
    3: DetectionOrigin.CROSSTALK,
}
CODE_BY_ORIGIN = {origin: code for code, origin in ORIGIN_BY_CODE.items()}

#: The curve of every device built without one: ``PdpCurve`` is frozen, so
#: one validated instance serves them all.
_DEFAULT_PDP = default_cmos_pdp()


@dataclass(frozen=True)
class ImportanceSettings:
    """Proposal floors for importance-sampled window detection.

    Rare-event BER simulation biases the three *error-producing* draw
    families so the rare outcomes happen often enough to measure, and
    compensates with per-window likelihood weights:

    * photon-miss probability is floored at ``min_miss_probability``
      (a missed pulse is the dominant error at high photon budgets);
    * the expected dark counts per window are floored at
      ``min_dark_expectation``;
    * the afterpulse trap-fill probability is floored at
      ``min_trap_probability``.

    Proposals only ever *raise* the natural rare-event probabilities —
    whenever a floor does not bind, the proposal equals the natural
    distribution and the likelihood weight is exactly 1.
    """

    min_miss_probability: float = 0.02
    min_dark_expectation: float = 0.05
    min_trap_probability: float = 0.1

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, not a bool")
        if not 0.0 < self.min_miss_probability < 1.0:
            raise ValueError("min_miss_probability must be within (0, 1)")
        # NaN would switch the floor off (max(mean, nan) is mean); inf cannot be drawn.
        if not 0.0 <= self.min_dark_expectation < inf:
            raise ValueError("min_dark_expectation must be finite and non-negative")
        if not 0.0 <= self.min_trap_probability < 1.0:
            raise ValueError("min_trap_probability must be within [0, 1)")

    def proposal(self, p_detect, dark_mean: float, trap_prob: float) -> Tuple:
        """Floored ``(miss, dark mean, trap fill)`` proposal of the natural probabilities.

        ``p_detect`` may be a per-channel array.  The miss probability is kept
        as it is: ``1.0 - (1.0 - p)`` is not ``p`` in floating point.
        """
        return (
            np.maximum(1.0 - p_detect, self.min_miss_probability),
            max(dark_mean, self.min_dark_expectation),
            max(trap_prob, self.min_trap_probability),
        )


@dataclass(frozen=True)
class SpadConfig:
    """Static configuration of a SPAD receiver pixel.

    Attributes
    ----------
    active_diameter:
        Diameter of the active area [m] (ref [5] devices are ~7-10 um).
    wavelength:
        Operating wavelength of the link [m].
    excess_bias:
        Operating excess bias [V].
    temperature:
        Operating temperature [degC].
    fill_factor:
        Fraction of the pixel footprint that is photosensitive.
    """

    active_diameter: float = 8.0 * UM
    wavelength: float = 650.0 * NM
    excess_bias: float = 3.3
    temperature: float = 20.0
    fill_factor: float = 0.6

    def __post_init__(self) -> None:
        if self.active_diameter <= 0:
            raise ValueError("active_diameter must be positive")
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")
        if self.excess_bias < 0:
            raise ValueError("excess_bias must be non-negative")
        if not 0 < self.fill_factor <= 1:
            raise ValueError("fill_factor must be within (0, 1]")

    @property
    def active_area(self) -> float:
        """Photosensitive area [m^2]."""
        return np.pi * (self.active_diameter / 2.0) ** 2


class SpadDevice:
    """Stochastic single-photon avalanche diode."""

    def __init__(
        self,
        config: SpadConfig = SpadConfig(),
        pdp_curve: Optional[PdpCurve] = None,
        quenching: Optional[QuenchingCircuit] = None,
        dark_counts: Optional[DarkCountModel] = None,
        afterpulsing: Optional[AfterpulsingModel] = None,
        jitter: Optional[JitterModel] = None,
        random_source: Optional[RandomSource] = None,
    ) -> None:
        self.config = config
        self.pdp_curve = pdp_curve if pdp_curve is not None else _DEFAULT_PDP
        self.quenching = quenching if quenching is not None else QuenchingCircuit()
        self.dark_counts = dark_counts if dark_counts is not None else DarkCountModel()
        self.afterpulsing = afterpulsing if afterpulsing is not None else AfterpulsingModel()
        self.jitter = jitter if jitter is not None else JitterModel()
        self._random = random_source if random_source is not None else RandomSource(0)
        self._last_fire_time: Optional[float] = None
        self._pending_afterpulse: Optional[float] = None
        self._pdp_cache: Optional[Tuple[SpadConfig, PdpCurve, float]] = None

    # -- static characteristics ------------------------------------------------
    @property
    def detection_probability(self) -> float:
        """PDP at the configured wavelength and excess bias.

        Cached per ``(config, pdp_curve)`` pair: both are frozen, so the
        value changes only when either attribute is rebound.
        """
        cached = self._pdp_cache
        if cached is None or cached[0] is not self.config or cached[1] is not self.pdp_curve:
            value = self.pdp_curve.pdp(self.config.wavelength, self.config.excess_bias)
            cached = self._pdp_cache = (self.config, self.pdp_curve, value)
        return cached[2]

    @property
    def dead_time(self) -> float:
        """Programmed dead time [s]."""
        return self.quenching.dead_time

    @property
    def dark_count_rate(self) -> float:
        """DCR at the configured operating point [counts/s]."""
        return self.dark_counts.rate(self.config.temperature, self.config.excess_bias)

    def detection_probability_for_photons(self, mean_photons: float) -> float:
        """Probability of detecting a pulse carrying ``mean_photons`` on the active area.

        Photon statistics are Poissonian, so the detection probability of the
        pulse is ``1 - exp(-PDP * mean_photons)``; an unbounded (``inf``)
        budget is a certain detection, a NaN budget is refused.
        """
        if not mean_photons >= 0:
            raise ValueError("mean_photons must be non-negative (and not NaN)")
        return float(1.0 - np.exp(-self.detection_probability * mean_photons))

    # -- state handling ----------------------------------------------------------
    def reset(self) -> None:
        """Forget any previous avalanche (device armed and trap-free)."""
        self._last_fire_time = None
        self._pending_afterpulse = None

    # -- window-based detection ----------------------------------------------------
    def detect_in_windows(
        self,
        window_duration: float,
        photon_offsets: np.ndarray,
        mean_photons: float = 1.0,
        start_time: float = 0.0,
        importance: Optional[ImportanceSettings] = None,
    ) -> Tuple[np.ndarray, ...]:
        """First detection in each of consecutive measurement windows.

        Simulates one measurement window per entry of ``photon_offsets``
        (arrival time of the optical pulse *relative to its window start*;
        ``NaN`` marks a window with no pulse), with window ``i`` spanning
        ``[start_time + i*T, start_time + (i+1)*T)``.  The receiver re-arms
        the device at a window start once the gate recovery has passed since
        its last avalanche (gated operation, which lets the detection cycle
        match the PPM range as the paper's ``DC(N, C)`` assumes); otherwise
        the device stays blind until the dead time has passed.

        All randomness — photon detection, jitter, dark-count arrivals and
        afterpulse trap releases — is pre-drawn as arrays; the only remaining
        per-window work is the *sequential-dependency scan* that cannot be
        vectorised: the dead-time/re-arm state and the pending afterpulse of
        window ``i`` depend on the winning detection of window ``i-1``.  The
        scan dispatches through the compute-kernel layer
        (:func:`repro.kernels.get_kernel`, which ``$REPRO_KERNEL`` or the
        ``"auto"`` preference resolves).  Every kernel is bit-identical to
        the ``"python"`` reference, so the choice affects speed only.  The
        pass is :func:`detect_in_segments` with this device alone.

        Returns ``(times, origins)``: absolute detection times (``NaN`` when
        the window reported nothing) and int8 origin codes (see
        :data:`ORIGIN_BY_CODE`; ``-1`` = missed).  Device state (last fire,
        pending afterpulse) is updated so batches can be chained.

        When ``importance`` is given, the photon/dark/afterpulse draws are
        taken from floored proposal distributions (see
        :class:`ImportanceSettings`) and a third array of per-window
        likelihood weights is returned: ``(times, origins, weights)``.
        ``weights[i]`` is the Radon–Nikodym ratio of the natural to the
        proposal distribution over every biased draw that can influence
        window ``i``'s outcome.  The weight product restarts whenever the
        device enters a window in the *fresh* state (armed, no pending
        afterpulse), since earlier draws can then no longer affect later
        windows — weighted statistics of any per-window outcome are
        unbiased estimates of the naive-path statistics.  The kernel scan
        forms the weights from :func:`likelihood_factors`, bit-identically.
        """
        return detect_in_segments(
            (self,), window_duration, photon_offsets, (0,), (mean_photons,), start_time,
            importance,
        )

    def _batch_offsets(
        self, window_duration: float, photon_offsets: np.ndarray, start_time: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Validated float pulse offsets of a batch pass, and which windows carry a pulse."""
        if window_duration <= 0:
            raise ValueError("window_duration must be positive")
        offsets = np.asarray(photon_offsets, dtype=float)
        if offsets.ndim != 1:
            raise ValueError("photon_offsets must be one-dimensional")
        if self._last_fire_time is not None and start_time < self._last_fire_time:
            raise ValueError("cannot start a batch before the last avalanche")
        has_pulse = ~np.isnan(offsets)
        if np.any((offsets[has_pulse] < 0) | (offsets[has_pulse] >= window_duration)):
            raise ValueError("photon offsets must lie inside the window")
        return offsets, has_pulse

    def _keep_state(self, last_fire: float, pending: float) -> None:
        """Persist a scan's carry-over state (kernel sentinels) for chained calls."""
        self._last_fire_time = None if isinf(last_fire) else last_fire
        self._pending_afterpulse = None if isinf(pending) else pending

    # -- aggregate characteristics ---------------------------------------------------
    def saturated_count_rate(self) -> float:
        """Maximum sustainable detection rate [counts/s]."""
        return self.quenching.max_count_rate()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpadDevice(pdp={self.detection_probability:.2f}, "
            f"dead_time={self.dead_time:.1e}s, dcr={self.dark_count_rate:.0f}cps)"
        )


def draw_probabilities(natural: Tuple, importance: Optional[ImportanceSettings]) -> Tuple:
    """The ``(detect, dark mean, trap fill)`` probabilities a pass draws: natural or proposal."""
    if importance is None:
        return natural
    miss, dark_mean, trap_prob = importance.proposal(*natural)
    return 1.0 - miss, dark_mean, trap_prob


def likelihood_factors(
    natural: Tuple, importance: ImportanceSettings, has_pulse: np.ndarray,
    detected: np.ndarray, dark_counts: np.ndarray, trap_filled: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-window ``(photon, dark, trap)`` likelihood factors of an importance pass.

    Each is the natural over the proposal probability of what the proposal
    draws gave: the detect or miss ratio (``1.0`` without a pulse); for ``k``
    dark counts ``exp(lam' - lam) * (lam / lam')**k``, as arrival positions
    are uniform under both measures; the trap filled or empty ratio, which
    the scan kernel applies only where the window fires and consumes it.
    """
    p_detect, dark_mean, trap_prob = natural
    proposal_miss, proposal_dark_mean, proposal_trap = importance.proposal(*natural)
    miss_prob = 1.0 - p_detect
    proposal_detect = 1.0 - proposal_miss
    safe_detect = np.where(proposal_detect > 0.0, proposal_detect, 1.0)
    weight_detect = np.where(proposal_detect > 0.0, p_detect / safe_detect, 0.0)
    weight_miss = miss_prob / proposal_miss
    photon = np.where(has_pulse, np.where(detected, weight_detect, weight_miss), 1.0)

    if proposal_dark_mean > 0.0:
        dark = np.exp(proposal_dark_mean - dark_mean) * np.power(
            dark_mean / proposal_dark_mean, dark_counts.astype(float)
        )
    else:
        dark = np.ones(dark_counts.shape)

    weight_filled = trap_prob / proposal_trap if proposal_trap > 0.0 else 1.0
    weight_empty = (1.0 - trap_prob) / (1.0 - proposal_trap) if proposal_trap < 1.0 else 0.0
    return photon, dark, np.where(trap_filled, weight_filled, weight_empty)


def detect_in_segments(
    devices: Sequence[SpadDevice],
    window_duration: float,
    photon_offsets: np.ndarray,
    segment_starts: Sequence[int],
    mean_photons: Sequence[float],
    start_time: float = 0.0,
    importance: Optional[ImportanceSettings] = None,
) -> Tuple[np.ndarray, ...]:
    """The batch pass of G devices, back to back in one segmented scan.

    Device ``g`` detects the windows of ``photon_offsets`` from
    ``segment_starts[g]`` up to the next start at ``mean_photons[g]``, its
    windows starting at ``start_time`` as in
    :meth:`SpadDevice.detect_in_windows`.  Each device draws its arrays from
    its own stream, in the order and sizes of a call of its own
    (:func:`_draw_windows`), and one kernel ``scan_windows`` call with the
    segment starts resolves every segment and returns each one's final
    state, so the results and every device's state equal G separate
    :meth:`~SpadDevice.detect_in_windows` calls bit for bit.  One device
    may own several segments (a NoC link carries one per epoch of a bus
    run): it draws them in order, each as a call of its own, and keeps its
    last segment's state.  The devices share one quenching circuit (one
    scan has one dead time).  The first device may carry detector state
    in; the others must be fresh (armed, no trap pending), as the segmented
    scan starts them.  G = 1 is :meth:`SpadDevice.detect_in_windows`.

    Returns ``(times, origins)`` over all windows, segment-major.  With
    ``importance`` (G = 1 only) the device draws from the floored
    proposals, the scan weighs each window with the factors of
    :func:`likelihood_factors`, and the per-window weights follow:
    ``(times, origins, weights)``.
    """
    first = devices[0]
    offsets, has_pulse = first._batch_offsets(window_duration, photon_offsets, start_time)
    count = offsets.size
    if count == 0 and len(devices) == 1:
        empty = (np.empty(0), np.empty(0, dtype=np.int8))
        return empty if importance is None else empty + (np.empty(0),)
    starts = check_segments(segment_starts, count).tolist()
    if len(starts) != len(devices) or len(mean_photons) != len(devices):
        raise ValueError("need one segment start and one photon budget per device")
    if importance is not None and len(devices) > 1:
        raise ValueError("an importance-sampled pass has one device")
    for device in devices[1:]:
        if device.quenching != first.quenching:
            raise ValueError("the devices of one pass must share one quenching circuit")
        if device._last_fire_time is not None or device._pending_afterpulse is not None:
            raise ValueError("only the first device may carry detector state into the pass")
    duration = float(window_duration)
    photon_rel, photon_valid, dark_rel, dark_counts, trap_filled, trap_release, *factors = (
        _draw_windows(devices, mean_photons, offsets, has_pulse, starts, duration, importance)
    )
    dark_bounds = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(dark_counts, out=dark_bounds[1:])

    # Optional state crosses the kernel boundary as float sentinels: last
    # fire ``None`` -> -inf (armed since forever), pending afterpulse
    # ``None`` -> +inf (never) — see ``repro.kernels.reference``.
    last_fire = -inf if first._last_fire_time is None else first._last_fire_time
    pending = inf if first._pending_afterpulse is None else first._pending_afterpulse
    segments = starts if len(devices) > 1 else None  # one device: the plain scan
    out_times, out_origins, last_fire, pending, *weights = get_kernel().scan_windows(
        photon_rel,
        photon_valid,
        dark_rel,
        dark_bounds,
        trap_filled,
        trap_release,
        first.quenching.dead_time,
        first.quenching.effective_gate_recovery,
        duration,
        float(start_time),
        last_fire,
        pending,
        segments,
        factors or None,
    )
    if segments is None:
        first._keep_state(last_fire, pending)
    else:
        for device, end_fire, end_pending in zip(devices, last_fire.tolist(), pending.tolist()):
            device._keep_state(end_fire, end_pending)
    return (out_times, out_origins, *weights)


def _draw_windows(
    devices: Sequence[SpadDevice],
    mean_photons: Sequence[float],
    offsets: np.ndarray,
    has_pulse: np.ndarray,
    starts: List[int],
    duration: float,
    importance: Optional[ImportanceSettings],
) -> Tuple[np.ndarray, ...]:
    """A pass's pre-drawn window randomness, one bulk draw per physical process and device.

    Device ``g`` draws its segment's windows from its own stream, as a pass
    of its own would: the detect uniforms, its jitter
    (:meth:`~repro.spad.jitter.JitterModel.draw_arrays`), the dark counts
    and their offsets, the trap uniforms and the trap releases.  The
    elementwise steps (detect compare, tail mix, offset clip, window
    validity, trap compare) then run once over all windows, each window
    with its own device's probabilities, so a segment's arrays equal its
    device's own pass bit for bit.  A device without a jitter tail draws
    none; beside devices with one, its windows mix in no delay.

    Returns ``(photon_rel, photon_valid, dark_rel, dark_counts,
    trap_filled, trap_release)`` in the scan's input layout, with the dark
    counts per window instead of their CSR bounds.  Importance sampling
    (one device) makes the same draws from the proposal probabilities and
    appends the three :func:`likelihood_factors`.
    """
    bounds = starts + [offsets.size]
    tailed = any(device.jitter.tail_fraction > 0 for device in devices)
    probabilities, draws = [], []
    for device, photons, lo, hi in zip(devices, mean_photons, bounds, bounds[1:]):
        natural = (
            device.detection_probability_for_photons(photons),
            device.dark_count_rate * duration,
            device.afterpulsing.probability,
        )
        p_detect, dark_mean, trap_prob = draw_probabilities(natural, importance)
        probabilities.append((p_detect, device.jitter.tail_fraction, trap_prob))
        rng = device._random.generator
        size = hi - lo
        detect = rng.random(size)
        core, uniforms, delays = device.jitter.draw_arrays(rng, size)
        if uniforms is None and tailed:
            uniforms = delays = np.zeros(size)
        dark_counts = rng.poisson(dark_mean, size)
        if np.count_nonzero(dark_counts):
            dark_rel = rng.uniform(0.0, duration, int(dark_counts.sum()))
        else:  # most passes have no dark count, and an empty draw takes nothing
            dark_rel = np.empty(0)
        trap = rng.random(size)
        release = rng.exponential(device.afterpulsing.time_constant, size)
        draws.append((detect, core, uniforms, delays, dark_counts, dark_rel, trap, release))
    if len(draws) == 1:
        (detect, core, uniforms, delays, dark_counts, dark_rel, trap, release), = draws
        p_detect, tail_fraction, trap_prob = probabilities[0]
    else:
        detect, core, uniforms, delays, dark_counts, dark_rel, trap, release = (
            None if parts[0] is None else np.concatenate(parts) for parts in zip(*draws)
        )
        sizes = np.diff(bounds)
        p_detect, tail_fraction, trap_prob = (
            np.repeat(values, sizes) for values in zip(*probabilities)
        )
    detected = (detect < p_detect) & has_pulse
    jitter = core if uniforms is None else tail_mix(core, uniforms, delays, tail_fraction)
    photon_rel = np.maximum(np.where(has_pulse, offsets, 0.0) + jitter, 0.0)
    photon_valid = detected & (photon_rel < duration)
    trap_filled = trap < trap_prob
    draws = (photon_rel, photon_valid, dark_rel, dark_counts, trap_filled, release)
    if importance is None:
        return draws
    return draws + likelihood_factors(
        natural, importance, has_pulse, detected, dark_counts, trap_filled
    )
