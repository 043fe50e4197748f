"""Composite SPAD device model.

:class:`SpadDevice` combines the photon detection probability, dead-time
(quenching), dark-count, afterpulsing and jitter sub-models into a stochastic
detector with one interface, the measurement window: given the arrival time
of the (attenuated) optical pulse within a window, :meth:`detect_in_window`
returns which detection — signal photon, dark count or afterpulse — the SPAD
actually reports first, if any.  :meth:`detect_in_windows` is its batch
analogue over many consecutive windows.

The device keeps the time of its last avalanche so that dead time and
afterpulsing carry over from one window to the next, exactly the coupling that
forces the paper to match the detection cycle to the TDC range.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import inf, isinf, nan
from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.units import NM, UM
from repro.kernels import get_kernel
from repro.simulation.randomness import RandomSource
from repro.spad.afterpulsing import AfterpulsingModel
from repro.spad.dark_counts import DarkCountModel
from repro.spad.jitter import JitterModel
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
ORIGIN_CODE_MISSED = -1
ORIGIN_BY_CODE = {
    0: DetectionOrigin.PHOTON,
    1: DetectionOrigin.DARK_COUNT,
    2: DetectionOrigin.AFTERPULSE,
    3: DetectionOrigin.CROSSTALK,
}
CODE_BY_ORIGIN = {origin: code for code, origin in ORIGIN_BY_CODE.items()}


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
        if not 0.0 < self.min_miss_probability < 1.0:
            raise ValueError("min_miss_probability must be within (0, 1)")
        if self.min_dark_expectation < 0.0:
            raise ValueError("min_dark_expectation must be non-negative")
        if not 0.0 <= self.min_trap_probability < 1.0:
            raise ValueError("min_trap_probability must be within [0, 1)")


@dataclass(frozen=True)
class DetectionEvent:
    """A single reported SPAD detection."""

    time: float
    origin: DetectionOrigin


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
        self.pdp_curve = pdp_curve if pdp_curve is not None else default_cmos_pdp()
        self.quenching = quenching if quenching is not None else QuenchingCircuit()
        self.dark_counts = dark_counts if dark_counts is not None else DarkCountModel()
        self.afterpulsing = afterpulsing if afterpulsing is not None else AfterpulsingModel()
        self.jitter = jitter if jitter is not None else JitterModel()
        self._random = random_source if random_source is not None else RandomSource(0)
        self._last_fire_time: Optional[float] = None
        self._pending_afterpulse: Optional[float] = None
        self._rearmed_at: Optional[float] = None

    # -- static characteristics ------------------------------------------------
    @property
    def detection_probability(self) -> float:
        """PDP at the configured wavelength and excess bias."""
        return self.pdp_curve.pdp(self.config.wavelength, self.config.excess_bias)

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
        pulse is ``1 - exp(-PDP * mean_photons)``.
        """
        if mean_photons < 0:
            raise ValueError("mean_photons must be non-negative")
        return float(1.0 - np.exp(-self.detection_probability * mean_photons))

    # -- state handling ----------------------------------------------------------
    def reset(self) -> None:
        """Forget any previous avalanche (device armed and trap-free)."""
        self._last_fire_time = None
        self._pending_afterpulse = None
        self._rearmed_at = None

    def is_ready(self, time: float) -> bool:
        """True when the device can fire at absolute time ``time``.

        The device is ready once the programmed dead time has elapsed, or — in
        gated operation — once it has been explicitly re-armed via
        :meth:`rearm` after the physical quench/recharge time.
        """
        if self._last_fire_time is None:
            return True
        if (
            self._rearmed_at is not None
            and self._rearmed_at > self._last_fire_time
            and time >= self._rearmed_at
        ):
            return True
        return self.quenching.is_ready(time - self._last_fire_time)

    def rearm(self, time: float) -> bool:
        """Force a gated re-arm at ``time`` (e.g. at a measurement-window start).

        Succeeds only when the physical quench/recharge time has elapsed since
        the last avalanche; returns whether the device is armed afterwards.
        Gated re-arming is how the receiver matches the SPAD detection cycle
        to the PPM range as the paper assumes (``DC(N, C)`` = the TDC range)
        even when the programmed free-running dead time is longer than one
        symbol.
        """
        if self._last_fire_time is None:
            return True
        if time < self._last_fire_time:
            raise ValueError("cannot re-arm before the last avalanche")
        if self.quenching.can_rearm(time - self._last_fire_time):
            self._rearmed_at = time
            return True
        return self.is_ready(time)

    def _register_fire(self, time: float) -> None:
        self._last_fire_time = time
        self._rearmed_at = None
        # Sample the trap release over the full distribution; whether the
        # release actually re-triggers the device depends on it being armed at
        # that instant (dead time or gated hold), which detect_in_window checks.
        if self._random.bernoulli(self.afterpulsing.probability):
            release = self._random.exponential(1.0 / self.afterpulsing.time_constant)
            self._pending_afterpulse = time + release
        else:
            self._pending_afterpulse = None

    # -- window-based detection ---------------------------------------------------
    def detect_in_window(
        self,
        window_start: float,
        window_duration: float,
        photon_time: Optional[float] = None,
        mean_photons: float = 1.0,
    ) -> Optional[DetectionEvent]:
        """First detection reported inside a measurement window.

        Parameters
        ----------
        window_start:
            Absolute start time of the window [s].
        window_duration:
            Window length [s].
        photon_time:
            Absolute arrival time of the optical pulse, or ``None`` when no
            pulse is sent in this window.
        mean_photons:
            Mean number of photons of the pulse reaching the active area.

        Returns the earliest :class:`DetectionEvent`, or ``None``.  The
        device state (dead time, pending afterpulse) is updated.
        """
        if window_duration <= 0:
            raise ValueError("window_duration must be positive")
        candidates: List[DetectionEvent] = []

        # Signal photon.
        if photon_time is not None:
            if photon_time < window_start or photon_time >= window_start + window_duration:
                raise ValueError("photon_time must lie inside the window")
            if self._random.bernoulli(self.detection_probability_for_photons(mean_photons)):
                jittered = photon_time + self.jitter.sample(self._random)
                jittered = max(window_start, jittered)
                if jittered < window_start + window_duration:
                    candidates.append(DetectionEvent(jittered, DetectionOrigin.PHOTON))

        # Dark counts.
        dark_times = self.dark_counts.sample_arrival_times(
            window_duration,
            self._random,
            temperature=self.config.temperature,
            excess_bias=self.config.excess_bias,
        )
        for offset in dark_times:
            candidates.append(DetectionEvent(window_start + float(offset), DetectionOrigin.DARK_COUNT))

        # Afterpulse pending from a previous avalanche.
        pending = self._pending_afterpulse
        if pending is not None and window_start <= pending < window_start + window_duration:
            candidates.append(DetectionEvent(pending, DetectionOrigin.AFTERPULSE))

        # Earliest candidate for which the device is armed wins.
        winner: Optional[DetectionEvent] = None
        for event in sorted(candidates, key=lambda item: item.time):
            if self.is_ready(event.time):
                winner = event
                break
        # A trap release whose time falls inside this window is consumed either
        # way: it fired if the device was armed, or was absorbed if it was not.
        if pending is not None and pending < window_start + window_duration:
            self._pending_afterpulse = None
        if winner is not None:
            self._register_fire(winner.time)
        return winner

    # -- batch window-based detection ----------------------------------------------
    def detect_in_windows(
        self,
        window_duration: float,
        photon_offsets: np.ndarray,
        mean_photons: float = 1.0,
        start_time: float = 0.0,
        importance: Optional[ImportanceSettings] = None,
        kernel: Optional[str] = None,
    ) -> Tuple[np.ndarray, ...]:
        """Batch analogue of :meth:`detect_in_window` over consecutive windows.

        Simulates one measurement window per entry of ``photon_offsets``
        (arrival time of the optical pulse *relative to its window start*;
        ``NaN`` marks a window with no pulse), with window ``i`` spanning
        ``[start_time + i*T, start_time + (i+1)*T)``.  As in the scalar path,
        the receiver attempts a gated re-arm at every window start.

        All randomness — photon detection, jitter, dark-count arrivals and
        afterpulse trap releases — is pre-drawn as arrays; the only remaining
        per-window work is the *sequential-dependency scan* that cannot be
        vectorised: the dead-time/re-arm state and the pending afterpulse of
        window ``i`` depend on the winning detection of window ``i-1``.  The
        scan dispatches through the compute-kernel layer
        (:func:`repro.kernels.get_kernel`): ``kernel`` selects an
        implementation by name, ``None`` defers to ``$REPRO_KERNEL`` and the
        ``"auto"`` preference.  Every kernel is bit-identical to the
        ``"python"`` reference, so the choice affects speed only.

        Returns ``(times, origins)``: absolute detection times (``NaN`` when
        the window reported nothing) and int8 origin codes (see
        :data:`ORIGIN_BY_CODE`; ``-1`` = missed).  Device state (last fire,
        pending afterpulse) is updated so batches can be chained with scalar
        calls.

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
        unbiased estimates of the naive-path statistics.
        """
        if window_duration <= 0:
            raise ValueError("window_duration must be positive")
        offsets = np.asarray(photon_offsets, dtype=float)
        if offsets.ndim != 1:
            raise ValueError("photon_offsets must be one-dimensional")
        if self._last_fire_time is not None and start_time < self._last_fire_time:
            raise ValueError("cannot start a batch before the last avalanche")
        count = offsets.size
        if count == 0:
            if importance is not None:
                return np.empty(0), np.empty(0, dtype=np.int8), np.empty(0)
            return np.empty(0), np.empty(0, dtype=np.int8)
        has_pulse = ~np.isnan(offsets)
        if np.any((offsets[has_pulse] < 0) | (offsets[has_pulse] >= window_duration)):
            raise ValueError("photon offsets must lie inside the window")
        if importance is not None:
            return self._detect_in_windows_importance(
                window_duration, offsets, has_pulse, mean_photons, start_time, importance
            )

        rng = self._random.generator
        duration = float(window_duration)

        # Pre-drawn randomness (one bulk draw per physical process).
        p_detect = self.detection_probability_for_photons(mean_photons)
        detected = (rng.random(count) < p_detect) & has_pulse
        jitter = self.jitter.sample_array(self._random, count)
        photon_rel = np.maximum(np.where(has_pulse, offsets, 0.0) + jitter, 0.0)
        photon_valid = detected & (photon_rel < duration)

        dark_rate = self.dark_counts.rate(self.config.temperature, self.config.excess_bias)
        dark_counts = rng.poisson(dark_rate * duration, count)
        dark_rel = rng.uniform(0.0, duration, int(dark_counts.sum()))
        dark_bounds = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(dark_counts, out=dark_bounds[1:])

        trap_filled = rng.random(count) < self.afterpulsing.probability
        trap_release = rng.exponential(self.afterpulsing.time_constant, count)

        # Sequential-dependency scan, dispatched through the kernel layer.
        # Optional state crosses the boundary as float sentinels: last fire
        # ``None`` -> -inf (armed since forever), pending afterpulse ``None``
        # -> +inf (never) — see ``repro.kernels.reference``.
        last_fire = -inf if self._last_fire_time is None else self._last_fire_time
        pending = inf if self._pending_afterpulse is None else self._pending_afterpulse
        out_times, out_origins, last_fire, pending = get_kernel(kernel).scan_windows(
            photon_rel,
            photon_valid,
            dark_rel,
            dark_bounds,
            trap_filled,
            trap_release,
            self.quenching.dead_time,
            self.quenching.effective_gate_recovery,
            duration,
            float(start_time),
            last_fire,
            pending,
        )

        # Persist the carry-over state for chained batches / scalar calls.
        self._last_fire_time = None if isinf(last_fire) else last_fire
        self._pending_afterpulse = None if isinf(pending) else pending
        self._rearmed_at = None
        return out_times, out_origins

    def _detect_in_windows_importance(
        self,
        window_duration: float,
        offsets: np.ndarray,
        has_pulse: np.ndarray,
        mean_photons: float,
        start_time: float,
        importance: ImportanceSettings,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Importance-sampled twin of the :meth:`detect_in_windows` scan.

        Same state machine, same winner rules; only the three Bernoulli /
        Poisson draw families are taken from floored proposals, and the scan
        additionally tracks a running likelihood-weight product with a
        regenerative reset at fresh-state window starts.
        """
        rng = self._random.generator
        count = offsets.size
        duration = float(window_duration)

        # Photon detection: floor the *miss* probability (the rare event).
        p_detect = self.detection_probability_for_photons(mean_photons)
        miss_prob = 1.0 - p_detect
        proposal_miss = max(miss_prob, importance.min_miss_probability)
        proposal_detect = 1.0 - proposal_miss
        weight_detect = p_detect / proposal_detect if proposal_detect > 0.0 else 0.0
        weight_miss = miss_prob / proposal_miss
        detected = (rng.random(count) < proposal_detect) & has_pulse
        jitter = self.jitter.sample_array(self._random, count)
        photon_rel = np.maximum(np.where(has_pulse, offsets, 0.0) + jitter, 0.0)
        photon_valid = detected & (photon_rel < duration)

        # Dark counts: floor the expected counts per window.  The count is
        # Poisson-biased; arrival positions stay uniform under both measures,
        # so only the count carries weight:
        # w(k) = exp(lam' - lam) * (lam / lam')**k.
        dark_rate = self.dark_counts.rate(self.config.temperature, self.config.excess_bias)
        dark_mean = dark_rate * duration
        proposal_dark_mean = max(dark_mean, importance.min_dark_expectation)
        dark_counts = rng.poisson(proposal_dark_mean, count)
        dark_rel = rng.uniform(0.0, duration, int(dark_counts.sum()))
        dark_bounds = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(dark_counts, out=dark_bounds[1:])
        if proposal_dark_mean > 0.0:
            dark_ratio = dark_mean / proposal_dark_mean
            dark_weight = np.exp(proposal_dark_mean - dark_mean) * np.power(
                dark_ratio, dark_counts.astype(float)
            )
        else:
            dark_weight = np.ones(count)

        # Afterpulse trap fill: floor the fill probability.  The trap draw is
        # only *consumed* when the window fires, so its weight factor applies
        # at the fire site.
        trap_prob = self.afterpulsing.probability
        proposal_trap = max(trap_prob, importance.min_trap_probability)
        trap_filled = rng.random(count) < proposal_trap
        trap_release = rng.exponential(self.afterpulsing.time_constant, count)
        weight_trap_filled = trap_prob / proposal_trap if proposal_trap > 0.0 else 1.0
        weight_trap_empty = (
            (1.0 - trap_prob) / (1.0 - proposal_trap) if proposal_trap < 1.0 else 0.0
        )

        photon_rel_l = photon_rel.tolist()
        photon_valid_l = photon_valid.tolist()
        has_pulse_l = has_pulse.tolist()
        detected_l = detected.tolist()
        dark_rel_l = dark_rel.tolist()
        dark_bounds_l = dark_bounds.tolist()
        dark_weight_l = dark_weight.tolist()
        trap_filled_l = trap_filled.tolist()
        trap_release_l = trap_release.tolist()

        dead_time = self.quenching.dead_time
        gate_recovery = self.quenching.effective_gate_recovery
        last_fire = -inf if self._last_fire_time is None else self._last_fire_time
        pending = self._pending_afterpulse

        out_times: List[float] = []
        out_origins: List[int] = []
        out_weights: List[float] = []
        running = 1.0
        base = float(start_time)
        for index in range(count):
            window_start = base + index * duration
            window_end = window_start + duration
            if window_start - last_fire >= gate_recovery:
                ready = window_start
                # Regenerative reset: with the device armed at the window
                # start and no trap pending, no earlier biased draw can
                # influence this or any later window.
                if pending is None:
                    running = 1.0
            else:
                ready = last_fire + dead_time
            if has_pulse_l[index]:
                running *= weight_detect if detected_l[index] else weight_miss
            running *= dark_weight_l[index]
            best = inf
            origin = ORIGIN_CODE_MISSED
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
                pending is not None
                and window_start <= pending < window_end
                and pending >= ready
                and pending < best
            ):
                best = pending
                origin = 2
            if pending is not None and pending < window_end:
                pending = None
            if origin >= 0:
                out_times.append(best)
                out_origins.append(origin)
                last_fire = best
                running *= weight_trap_filled if trap_filled_l[index] else weight_trap_empty
                if trap_filled_l[index]:
                    pending = best + trap_release_l[index]
                else:
                    pending = None
            else:
                out_times.append(nan)
                out_origins.append(ORIGIN_CODE_MISSED)
            out_weights.append(running)

        self._last_fire_time = None if isinf(last_fire) else last_fire
        self._pending_afterpulse = pending
        self._rearmed_at = None
        return (
            np.asarray(out_times, dtype=float),
            np.asarray(out_origins, dtype=np.int8),
            np.asarray(out_weights, dtype=float),
        )

    # -- aggregate characteristics ---------------------------------------------------
    def saturated_count_rate(self) -> float:
        """Maximum sustainable detection rate [counts/s]."""
        return self.quenching.max_count_rate()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpadDevice(pdp={self.detection_probability:.2f}, "
            f"dead_time={self.dead_time:.1e}s, dcr={self.dark_count_rate:.0f}cps)"
        )
