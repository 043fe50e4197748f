"""Multichannel batch transmission engine — parallel SPAD-array links.

The paper's headline configuration is not one SPAD but a parallel array of
vertical optical channels (up to the 64x64 imager of its ref [5]); the
communication *density* argument only works when many channels run side by
side.  :class:`MultichannelOpticalLink` simulates all ``S`` symbol windows of
all ``C`` channels as ``(S, C)`` NumPy passes:

1. The payload is PPM-encoded into one symbol-value array and striped across
   channels round-robin (symbol ``i`` rides channel ``i % C`` in window
   ``i // C``), so time slot ``s`` carries ``C`` symbols in parallel.
2. Per-channel photon budgets come from the link budget
   (:meth:`~repro.core.link.OpticalLink.mean_photons_at_detector`, i.e. the
   configured pulse energy through the shared optical channel); when a
   :class:`~repro.photonics.crosstalk.CrosstalkModel` is attached, the
   off-diagonal power of its (normalised) coupling matrix is injected as
   interference pulses at the neighbours' slot times, and the aggregated
   scattered-light floor of far channels as a uniform background.
3. :func:`~repro.spad.array.detect_in_windows_multichannel` bulk-draws one
   array of randomness per physical process; only the window axis is
   sequential (dead time / afterpulsing), so one segmented ``scan_windows``
   kernel call, a segment per channel, resolves every window of all ``C``
   pixels, crosstalk candidates listed beside the dark counts.
4. One ``decode_windows`` kernel call
   (:func:`~repro.core.link.decode_detections`) runs the TDC and
   the slot decision over the flattened ``(S*C,)`` grid, and each payload
   symbol's bit errors are one popcount lookup of ``sent ^ decoded``
   (:func:`~repro.modulation.symbols.symbol_bit_errors`); the result's
   ``received_bits`` are unpacked from the decoded values only when read.

Contract
--------
With crosstalk disabled, the per-channel error counts are *statistically
equivalent* to ``C`` independent ``"batch"`` links — same physics, same
distributions, not draw-for-draw identical — and the whole transmission is
deterministic per seed (locked by ``tests/test_core_multilink.py`` the same
way ``tests/test_core_fastlink.py`` locks the single-channel batch engine).
Construct through the registry: ``make_link(config, backend="multichannel",
channels=64, seed=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import LinkConfig
from repro.core.link import OpticalLink, TransmissionResult, decode_detections
from repro.modulation.symbols import symbol_bit_errors
from repro.photonics.channel import OpticalChannel
from repro.photonics.crosstalk import CrosstalkModel
from repro.spad.array import detect_in_windows_multichannel
from repro.spad.device import ORIGIN_BY_CODE, ImportanceSettings


@dataclass
class MultichannelResult(TransmissionResult):
    """Outcome of one parallel transmission across a channel array.

    The aggregate fields carry the :class:`TransmissionResult` contract over
    the whole payload — ``elapsed_time`` is the *parallel* wall-clock link
    time (``S`` windows, not ``S*C``), so the inherited :attr:`throughput` is
    the aggregate bandwidth of the array.  The per-symbol arrays
    (``decoded_values``, ``symbol_bit_errors``) are in payload order, symbol
    ``i`` having ridden channel ``i % C``.
    """

    #: Payload bits and bit errors per channel, as ``(C,)`` integer arrays —
    #: the per-channel split (one bincount of ``symbol_bit_errors`` at
    #: transmit time), counting *payload* positions only (the zero-padding of
    #: a final partial symbol is excluded, exactly as in the aggregate
    #: fields, so ``channel_bit_errors.sum() == bit_errors``).  The
    #: experiment runner accumulates these.
    channel_bits: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64), repr=False, compare=False
    )
    channel_bit_errors: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64), repr=False, compare=False
    )


class MultichannelOpticalLink(OpticalLink):
    """``C`` parallel PPM channels simulated as one ``(S, C)`` array pass.

    Parameters
    ----------
    config:
        Per-channel link configuration (all channels are identical pixels).
    channel:
        Optional shared :class:`~repro.photonics.channel.OpticalChannel`; as
        for every :class:`~repro.core.link.OpticalLink`, it turns
        ``mean_detected_photons`` into the *emitted* photon count.
    seed:
        Seed for all stochastic behaviour.
    channels:
        Number of parallel channels ``C``.
    crosstalk:
        Optional :class:`~repro.photonics.crosstalk.CrosstalkModel` for a
        linear array at its ``channel_pitch``; ``None`` means perfectly
        isolated channels.
    channel_gains:
        Optional per-channel optical power gains, shape ``(channels,)``: the
        mean photon budget of channel ``c`` is the link budget scaled by
        ``channel_gains[c]``.  This is how one ``(S, C)`` pass models
        receivers at *different* attenuations — e.g. the dies of a vertical
        broadcast column, each behind a different number of silicon layers
        (:mod:`repro.noc.broadcast`).  ``None`` means all channels see the
        full budget (identical pixels, the array-imager case).
    """

    def __init__(
        self,
        config: LinkConfig = LinkConfig(),
        channel: Optional[OpticalChannel] = None,
        seed: int = 0,
        channels: int = 1,
        crosstalk: Optional[CrosstalkModel] = None,
        channel_gains: Optional[Sequence[float]] = None,
        importance: Optional[ImportanceSettings] = None,
    ) -> None:
        super().__init__(config, channel=channel, seed=seed)
        if channels < 1:
            raise ValueError("channels must be at least 1")
        if importance is not None and crosstalk is not None:
            raise ValueError(
                "importance sampling does not support crosstalk "
                "(interference couples channel likelihoods)"
            )
        self.importance = importance
        self.channels = int(channels)
        self.crosstalk = crosstalk
        self.channel_gains: Optional[np.ndarray] = None
        if channel_gains is not None:
            gains = np.asarray(channel_gains, dtype=float)
            if gains.shape != (self.channels,):
                raise ValueError(
                    f"channel_gains must have shape ({self.channels},), "
                    f"got {gains.shape}"
                )
            if not np.all(gains > 0):
                raise ValueError("channel_gains must be positive")
            self.channel_gains = gains
        self._array_source = self._stream("multichannel")
        # Distance profile of the crosstalk coupling, split into the few
        # *near* neighbours that stand above the scattered-light floor
        # (injected as slot-timed interference pulses) and the many *far*
        # channels at the floor (merged into one uniform background process).
        self._near_coupling: np.ndarray = np.empty(0)
        self._far_channels: np.ndarray = np.zeros(self.channels)
        self._floor_coupling = 0.0
        if crosstalk is not None and self.channels > 1:
            profile = crosstalk.coupling_profile(self.channels)
            floor_rel = crosstalk.floor / crosstalk.coupling(0.0)
            threshold = max(floor_rel, 1e-12)
            reach = int(np.count_nonzero(profile[1:] > threshold))
            self._near_coupling = profile[1 : reach + 1]
            positions = np.arange(self.channels)
            near_neighbours = np.minimum(positions, reach) + np.minimum(
                self.channels - 1 - positions, reach
            )
            self._far_channels = (self.channels - 1) - near_neighbours
            self._floor_coupling = floor_rel

    # -- interference -----------------------------------------------------------
    def _interference(
        self, pulse_offsets: np.ndarray, mean_photons
    ) -> Tuple[List[np.ndarray], List, np.ndarray]:
        """Crosstalk inputs for the array pass at this photon budget.

        Returns ``(secondary_offsets, secondary_photons, background_mean)``:
        one shifted ``(S, C)`` offset array per near neighbour and direction
        (the aggressor's own slot time, seen by the victim at the coupled
        power), plus the per-channel mean of detected floor events per window
        (each far channel contributes its per-pulse detection probability at
        the floor coupling; the merged sum of those rare independent events is
        modelled as one Poisson background, uniform over the window).
        """
        offsets: List[np.ndarray] = []
        photons: List = []
        # With per-channel gains the *aggressor's* budget sets the coupled
        # power: the photon count of the pulse arriving from distance d is the
        # neighbour's own (gain-scaled) budget, shifted channel-wise exactly
        # like its slot times.
        per_channel = np.broadcast_to(
            np.asarray(mean_photons, dtype=float), (self.channels,)
        )
        uniform = np.ndim(mean_photons) == 0
        for distance, coupling in enumerate(self._near_coupling, start=1):
            from_left = np.full_like(pulse_offsets, np.nan)
            from_left[:, distance:] = pulse_offsets[:, :-distance]
            from_right = np.full_like(pulse_offsets, np.nan)
            from_right[:, :-distance] = pulse_offsets[:, distance:]
            offsets.extend((from_left, from_right))
            if uniform:
                photons.extend((mean_photons * coupling, mean_photons * coupling))
            else:
                left_budget = np.zeros(self.channels)
                left_budget[distance:] = per_channel[:-distance]
                right_budget = np.zeros(self.channels)
                right_budget[:-distance] = per_channel[distance:]
                photons.extend((left_budget * coupling, right_budget * coupling))
        if self._floor_coupling == 0.0:
            # Short-circuit keeps an unbounded photon budget (inf) from
            # producing 0 * inf = NaN background means.
            p_floor = 0.0
        else:
            p_floor = 1.0 - np.exp(
                -self.spad.detection_probability
                * self._floor_coupling
                * float(per_channel.mean())
            )
        return offsets, photons, self._far_channels * p_floor

    # -- transmission -----------------------------------------------------------
    def transmit_bits(self, bits: Sequence[int]) -> MultichannelResult:
        """Send a payload striped across all channels in one array pass.

        Same payload contract as the other backends: bits are padded with
        zeros to a whole number of symbols and the symbol stream is padded to
        a whole number of parallel windows; error statistics cover the
        original payload symbols only.  The result carries every payload
        symbol's decoded value and bit errors (in payload order, symbol ``i``
        having ridden channel ``i % C``) and unpacks ``received_bits`` from
        the decoded values only when read.
        """
        payload = self._payload_array(bits)
        k = self.config.ppm_bits
        remainder = payload.size % k
        if remainder:
            padded = np.concatenate([payload, np.zeros(k - remainder, dtype=np.uint8)])
        else:
            padded = payload

        values = self.codec.encode_bits_to_values(padded)
        symbol_count = int(values.size)
        grid_pad = (-symbol_count) % self.channels
        grid_values = np.concatenate(
            [values, np.zeros(grid_pad, dtype=np.int64)]
        ).reshape(-1, self.channels)
        windows = grid_values.shape[0]
        symbol_duration = self.config.symbol_duration
        mean_photons = self.mean_photons_at_detector()
        if self.channel_gains is not None:
            # Per-channel budgets (broadcast receivers at different stack
            # attenuations); the array pass broadcasts (C,) against (S, C)
            # with the same draw layout as a scalar budget.
            mean_photons = mean_photons * self.channel_gains

        pulse_offsets = self.codec.pulse_times_for_values(grid_values)
        secondary_offsets, secondary_photons, background = self._interference(
            pulse_offsets, mean_photons
        )
        times, origins, *grid_weights = detect_in_windows_multichannel(
            self.spad,
            symbol_duration,
            pulse_offsets,
            mean_photons=mean_photons,
            generator=self._array_source.generator,
            secondary_offsets=secondary_offsets,
            secondary_photons=secondary_photons,
            background_mean=background,
            importance=self.importance,
        )
        # Weights align to the flat payload symbol order (symbol i rode
        # channel i % C in window i // C); grid-padding windows drop out.
        symbol_weights = grid_weights[0].reshape(-1)[:symbol_count] if grid_weights else None

        decoded = decode_detections((self,), times, origins, self.channels)

        # Statistics cover the real payload symbols only (flat symbol index
        # i = window*C + channel < symbol_count); grid-padding windows are
        # simulated — their detections advance dead time — but not counted.
        decoded_flat = decoded.reshape(-1)[:symbol_count]
        origins_flat = origins.reshape(-1)[:symbol_count]
        errors = symbol_bit_errors(values, decoded_flat, k, payload.size)
        elapsed = windows * symbol_duration
        channel_index = np.arange(symbol_count, dtype=np.int64) % self.channels
        channel_bits = np.bincount(channel_index, minlength=self.channels) * k
        # The final symbol's zero-pad bits are no payload of its channel.
        channel_bits[(symbol_count - 1) % self.channels] -= symbol_count * k - payload.size
        channel_bit_errors = np.bincount(
            channel_index, weights=errors, minlength=self.channels
        ).astype(np.int64)

        return MultichannelResult(
            transmitted_bits=payload,
            received_bits=None,
            symbols_sent=symbol_count,
            symbol_errors=int(np.count_nonzero(decoded_flat != values)),
            detection_counts=self._origin_counts(origins_flat),
            elapsed_time=elapsed,
            symbol_weights=symbol_weights,
            symbol_origins=origins_flat if self.importance is not None else None,
            bits_per_symbol=k,
            decoded_values=decoded_flat,
            symbol_bit_errors=errors,
            channel_bits=channel_bits,
            channel_bit_errors=channel_bit_errors,
        )

    # -- result assembly ---------------------------------------------------------
    @staticmethod
    def _origin_counts(origins: np.ndarray) -> dict:
        counts = {origin.value: 0 for origin in ORIGIN_BY_CODE.values()}
        counts["missed"] = int(np.count_nonzero(origins < 0))
        codes, code_counts = np.unique(origins[origins >= 0], return_counts=True)
        for code, code_count in zip(codes, code_counts):
            counts[ORIGIN_BY_CODE[int(code)].value] = int(code_count)
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MultichannelOpticalLink(C={self.channels}, K={self.config.ppm_bits}, "
            f"crosstalk={'on' if self.crosstalk is not None else 'off'})"
        )

