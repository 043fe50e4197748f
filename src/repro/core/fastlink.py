"""Vectorised batch transmission engine — the link simulator's fast path.

:class:`FastOpticalLink` is a drop-in replacement for
:class:`~repro.core.link.OpticalLink` that simulates all S symbols of a
payload at once instead of one per Python-interpreter iteration.  The paper's
headline figures (BER vs. range, the TP/DC surfaces) are statistical estimates
needing 10^5–10^7 simulated PPM symbols per operating point; at that scale the
scalar path is interpreter-bound, not model-bound.

Scalar-vs-batch contract
------------------------
The batch engine is *statistically equivalent* to the scalar path — same
physical models, same distributions, same decision rules — but not draw-for-
draw identical: randomness is consumed in bulk array draws (one per physical
process) rather than interleaved per event, so the two paths produce different
(equally valid) sample paths from the same seed.  Each path is individually
deterministic given its seed.

The pipeline is NumPy end to end, from the payload array the caller passes
in to the per-symbol error counts of the result:

1. PPM encoding packs the whole payload into a symbol-value array and a
   pulse-time array (``PpmCodec.encode_bits_to_values`` /
   ``pulse_times_for_values``).
2. :meth:`SpadDevice.detect_in_windows` pre-draws photon detection Bernoullis,
   jitter, Poisson dark-count arrivals and afterpulse trap releases as arrays,
   then resolves the winner of each window.  Only this winner resolution runs
   as a sequential scan, because dead time and afterpulsing genuinely couple
   consecutive windows: whether window ``i`` re-arms at its start — and which
   trap release is pending — depends on *when* window ``i-1`` fired, which is
   itself a stochastic outcome.  No barrier of array passes can resolve that
   chain, so the scan walks the windows once over plain Python floats.
3. One ``decode_windows`` kernel call
   (:func:`~repro.core.link.decode_detections`) runs the receiver over
   every window: each detection is quantised by the two-level TDC, exactly
   as :meth:`TimeToDigitalConverter.convert_array` does, and decided to a
   slot value, exactly as ``PpmCodec.decode_times`` does; a missed window
   decodes to 0.
4. Each symbol's bit errors are one table lookup of the popcount of
   ``sent ^ decoded`` (:func:`~repro.modulation.symbols.symbol_bit_errors`),
   the padding of a final partial symbol masked.  The result carries these
   counts and the decoded values; its ``received_bits`` are unpacked from
   the values only if someone reads them.

:func:`transmit_segments` runs steps 1–3 once for G links whose payloads
lie back to back: one encode, one detection over the G devices
(:func:`~repro.spad.device.detect_in_segments`, one segmented kernel scan)
and one segmented decode, each link's segment on its own TDC.  Each link is
its own segment with its own random stream, so the pass equals one
:meth:`FastOpticalLink.transmit_bits` call per link bit for bit, without the
per-call overhead; the NoC bus sends a run's unicast groups this way, one
segment per epoch and link, so a link may own several segments.
``transmit_bits`` is its G = 1 case, so the engine has one body.

The result is the same :class:`~repro.core.link.TransmissionResult` the scalar
path returns, at a ≥10× (typically 30–100×) symbols/sec advantage on
10^5-symbol workloads (see ``benchmarks/bench_fastpath_speedup.py``).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.core.config import LinkConfig
from repro.core.link import OpticalLink, TransmissionResult, decode_detections
from repro.kernels.reference import check_segments
from repro.modulation.symbols import symbol_bit_errors
from repro.photonics.channel import OpticalChannel
from repro.spad.device import ORIGIN_BY_CODE, ImportanceSettings, detect_in_segments


class FastOpticalLink(OpticalLink):
    """Drop-in :class:`OpticalLink` whose transmit path is the batch engine.

    Construction, configuration, seeding and the returned
    :class:`TransmissionResult` are identical to the scalar link; only
    :meth:`transmit_bits` is overridden.  Use the scalar class when you need
    draw-for-draw reproduction of legacy results, the fast class everywhere
    throughput matters.

    ``importance`` switches the detection core to the importance-sampled
    rare-event path (:class:`~repro.spad.device.ImportanceSettings`): the
    returned result then carries per-symbol likelihood weights in
    ``symbol_weights`` and its *weighted* error statistics are unbiased
    estimates of the naive path's.
    """

    def __init__(
        self,
        config: LinkConfig = LinkConfig(),
        channel: Optional[OpticalChannel] = None,
        seed: int = 0,
        importance: Optional[ImportanceSettings] = None,
    ) -> None:
        super().__init__(config=config, channel=channel, seed=seed)
        self.importance = importance

    def transmit_bits(self, bits: Sequence[int]) -> TransmissionResult:
        """Send a payload over the link, simulating every symbol in one batch.

        Same contract as :meth:`OpticalLink.transmit_bits`: the payload is
        padded with zeros to a whole number of symbols and error statistics
        cover the original bit positions.  The pass is
        :func:`transmit_segments` with this link alone.
        """
        payload = self._payload_array(bits)
        sent = transmit_segments((self,), payload, (0,))
        origins = sent.origins
        detected = origins >= 0
        per_code = np.bincount(origins[detected], minlength=len(ORIGIN_BY_CODE))
        counts = {
            origin.value: int(per_code[code]) for code, origin in ORIGIN_BY_CODE.items()
        }
        counts["missed"] = int(np.count_nonzero(~detected))

        symbol_count = int(sent.values.size)
        k = self.config.ppm_bits
        return TransmissionResult(
            transmitted_bits=payload,
            received_bits=None,
            symbols_sent=symbol_count,
            symbol_errors=int(np.count_nonzero(sent.decoded != sent.values)),
            detection_counts=counts,
            elapsed_time=symbol_count * self.config.symbol_duration,
            symbol_weights=sent.symbol_weights,
            symbol_origins=origins if self.importance is not None else None,
            bits_per_symbol=k,
            decoded_values=sent.decoded,
            symbol_bit_errors=symbol_bit_errors(sent.values, sent.decoded, k, payload.size),
        )


class SegmentedPass(NamedTuple):
    """What :func:`transmit_segments` sent and received, all segments back to back."""

    #: Symbol value of every window.
    values: np.ndarray
    #: Decoded symbol value of every window (``0`` for a missed window).
    decoded: np.ndarray
    #: Winning detection origin code of every window (``-1`` = missed).
    origins: np.ndarray
    #: Per-window likelihood weights of an importance-sampled link, else ``None``.
    symbol_weights: Optional[np.ndarray]


def transmit_segments(
    links: Sequence[FastOpticalLink], bits: np.ndarray, segment_starts: Sequence[int]
) -> SegmentedPass:
    """Send a payload over G links in one batch pass, each link its own segment.

    ``bits`` is a ``uint8`` array of 0/1 (as :meth:`OpticalLink._payload_array`
    returns it), zero-padded here to a whole number of symbols; link ``g``
    carries the symbols from ``segment_starts[g]`` up to the next start.
    The pass is one PPM encode, one detection over the G devices
    (:func:`~repro.spad.device.detect_in_segments`, or
    :meth:`SpadDevice.detect_in_windows` when G = 1) and one decode
    (:func:`~repro.core.link.decode_detections`), each segment on its own
    link's TDC.  Every link is reset first and draws from its own stream, so
    the pass equals G separate :meth:`FastOpticalLink.transmit_bits` calls
    bit for bit.  The links share one PPM slot grid; importance sampling
    needs G = 1.
    """
    first = links[0]
    k = first.config.ppm_bits
    remainder = bits.size % k
    if remainder:
        bits = np.concatenate([bits, np.zeros(k - remainder, dtype=np.uint8)])
    values = first.codec.encode_bits_to_values(bits)
    starts = check_segments(segment_starts, values.size).tolist()
    if len(starts) != len(links):
        raise ValueError("need one segment start per link")
    if len(links) > 1 and any(
        link.importance is not None or link.codec.grid != first.codec.grid for link in links
    ):
        raise ValueError("the links of a segmented pass share one slot grid and sample naively")
    symbol_duration = first.config.symbol_duration

    # The receiver's windows are assumed aligned to the (symbol-invariant)
    # propagation delay by clock recovery, so pulse times are window-
    # relative slot centres; the channel only enters through attenuation.
    pulse_offsets = first.codec.pulse_times_for_values(values)

    for link in links:
        link.spad.reset()
    if len(links) == 1:
        segments = None
        times, origins, *weights = first.spad.detect_in_windows(
            symbol_duration,
            pulse_offsets,
            first.mean_photons_at_detector(),
            importance=first.importance,
        )
    else:
        segments = starts
        times, origins, *weights = detect_in_segments(
            [link.spad for link in links],
            symbol_duration,
            pulse_offsets,
            starts,
            [link.mean_photons_at_detector() for link in links],
        )
    decoded = decode_detections(links, times, origins, segments=segments)
    return SegmentedPass(values, decoded, origins, weights[0] if weights else None)
