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
in to the ``uint8`` bit arrays of the result:

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
3. One ``decode_windows`` kernel call (:meth:`OpticalLink._decode_windows`)
   runs the receiver over every window: each detection is quantised by the
   two-level TDC, exactly as :meth:`TimeToDigitalConverter.convert_array`
   does, and decided to a slot value, exactly as ``PpmCodec.decode_times``
   does; a missed window decodes to 0.
4. The bit matrix of the decoded values is unpacked in one shot into
   ``received_bits``.

The result is the same :class:`~repro.core.link.TransmissionResult` the scalar
path returns, at a ≥10× (typically 30–100×) symbols/sec advantage on
10^5-symbol workloads (see ``benchmarks/bench_fastpath_speedup.py``).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.config import LinkConfig
from repro.core.link import OpticalLink, TransmissionResult
from repro.modulation.symbols import ints_to_bit_matrix
from repro.photonics.channel import OpticalChannel
from repro.spad.device import ORIGIN_BY_CODE, ImportanceSettings


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
        kernel: Optional[str] = None,
    ) -> None:
        super().__init__(config=config, channel=channel, seed=seed)
        self.importance = importance
        self.kernel = kernel

    def transmit_bits(self, bits: Sequence[int]) -> TransmissionResult:
        """Send a payload over the link, simulating every symbol in one batch.

        Same contract as :meth:`OpticalLink.transmit_bits`: the payload is
        padded with zeros to a whole number of symbols and error statistics
        cover the original bit positions.
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
        symbol_duration = self.config.symbol_duration
        mean_photons = self.mean_photons_at_detector()

        # The receiver's windows are assumed aligned to the (symbol-invariant)
        # propagation delay by clock recovery, so pulse times are window-
        # relative slot centres; the channel only enters through attenuation.
        pulse_offsets = self.codec.pulse_times_for_values(values)

        self.spad.reset()
        symbol_weights = None
        if self.importance is not None:
            times, origins, symbol_weights = self.spad.detect_in_windows(
                symbol_duration, pulse_offsets, mean_photons, importance=self.importance
            )
        else:
            times, origins = self.spad.detect_in_windows(
                symbol_duration, pulse_offsets, mean_photons, kernel=self.kernel
            )

        decoded = self._decode_windows(times, origins, self.kernel)
        received_bits = ints_to_bit_matrix(decoded, k).ravel()[: payload.size].astype(np.uint8)

        detected = origins >= 0
        per_code = np.bincount(origins[detected], minlength=len(ORIGIN_BY_CODE))
        counts = {
            origin.value: int(per_code[code]) for code, origin in ORIGIN_BY_CODE.items()
        }
        counts["missed"] = int(np.count_nonzero(~detected))

        return TransmissionResult(
            transmitted_bits=payload,
            received_bits=received_bits,
            symbols_sent=symbol_count,
            symbol_errors=int(np.count_nonzero(decoded != values)),
            detection_counts=counts,
            elapsed_time=symbol_count * symbol_duration,
            symbol_weights=symbol_weights,
            symbol_origins=origins if self.importance is not None else None,
        )
