"""End-to-end optical PPM link simulator.

:class:`OpticalLink` wires the substrates together exactly as in Figure 1 of
the paper: a PPM encoder drives the micro-LED schedule, the optical channel
attenuates and delays the pulse, the SPAD stochastically reports the first
detection in each measurement window (signal photon, dark count or
afterpulse), the two-level TDC digitises the time of arrival, and the PPM
decoder maps it back to bits.

The simulator works symbol by symbol (one measurement window per symbol), so
dead time and afterpulsing carry over between consecutive symbols exactly as
in the hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import LinkConfig
from repro.kernels import get_kernel
from repro.modulation.ppm import PpmCodec
from repro.modulation.symbols import bit_matrix_to_ints, ints_to_bit_matrix, symbol_bit_errors
from repro.photonics.channel import OpticalChannel
from repro.simulation.randomness import RandomSource, split_seed
from repro.spad.device import SpadDevice
from repro.tdc.coarse_counter import CoarseCounter
from repro.tdc.converter import TimeToDigitalConverter
from repro.tdc.delay_element import DelayElementModel
from repro.tdc.delay_line import TappedDelayLine


def _symbol_values(bits, width: int) -> np.ndarray:
    """Values of ``bits`` read as big-endian ``width``-bit symbols, the last
    one zero-padded."""
    padded = np.zeros(-(-len(bits) // width) * width, dtype=np.int64)
    padded[: len(bits)] = bits
    return bit_matrix_to_ints(padded.reshape(-1, width))


@dataclass
class TransmissionResult:
    """Outcome of transmitting a payload over the link.

    This is the shared result contract of every registered link backend
    (see :mod:`repro.core.backend`): whichever engine simulated the payload,
    consumers receive the same fields and derived figures of merit.
    ``transmitted_bits`` and ``received_bits`` are 1-D ``np.uint8`` arrays
    of payload length (the zero padding of a final partial symbol is not
    included); ``transmitted_bits`` is the link's own copy of the payload.

    The receiver also reports per symbol: ``decoded_values`` holds the
    decoded value of every symbol and ``symbol_bit_errors`` each symbol's
    bit errors over payload positions
    (:func:`~repro.modulation.symbols.symbol_bit_errors`), so
    ``bit_errors == symbol_bit_errors.sum()``; count from these rather than
    from the bit arrays.  ``symbol_errors`` counts the symbols whose decoded
    value differs, a final partial symbol's padding included.

    A result derives what it is not given.  The links give
    ``decoded_values`` and leave ``received_bits`` ``None``: it is unpacked
    from the decoded values on first read.  The batch engines also give
    ``symbol_bit_errors``, which the result otherwise counts from
    ``transmitted_bits`` and ``decoded_values``.  A result given bits only
    (a third-party backend, a hand-built result) reads ``decoded_values``
    from ``received_bits``, a final partial symbol's padding as zeros.
    """

    transmitted_bits: np.ndarray
    received_bits: Optional[np.ndarray]
    symbols_sent: int
    symbol_errors: int
    detection_counts: Dict[str, int]
    elapsed_time: float
    #: Per-symbol likelihood weights (importance-sampled backends only;
    #: ``None`` for naive transmission).  ``symbol_weights[i]`` reweights
    #: symbol ``i``'s error indicator back to the natural measure.
    symbol_weights: Optional[np.ndarray] = None
    #: Per-symbol winning detection-origin codes (importance-sampled backends
    #: only; ``None`` for naive transmission) — indexes into
    #: :data:`~repro.spad.device.CODE_BY_ORIGIN`'s value space, ``-1`` for a
    #: missed window.  Lets consumers stratify weighted error mass by origin.
    symbol_origins: Optional[np.ndarray] = None
    #: Payload bits per symbol (the PPM order K).  ``None`` takes the width
    #: the counts imply, ``ceil(len(transmitted_bits) / symbols_sent)``,
    #: which is K whenever the payload is whole symbols.
    bits_per_symbol: Optional[int] = None
    #: Decoded value of every symbol (``0`` for a missed window).
    decoded_values: Optional[np.ndarray] = None
    #: Bit errors of every symbol over payload positions (the zero padding
    #: of a final partial symbol is masked out).
    symbol_bit_errors: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        count = len(self.transmitted_bits)
        if self.bits_per_symbol is None:
            self.bits_per_symbol = -(-count // max(self.symbols_sent, 1)) or 1
        width = self.bits_per_symbol
        if self.received_bits is None:
            if self.decoded_values is None:
                raise ValueError("a result needs received_bits or decoded_values")
            # Unpacked from decoded_values on first read (see __getattr__).
            del self.received_bits
        elif len(self.received_bits) != count:
            raise ValueError(
                f"bit streams must have the same length, got {count} and "
                f"{len(self.received_bits)}"
            )
        elif self.decoded_values is None:
            self.decoded_values = _symbol_values(self.received_bits, width)
        if self.symbol_bit_errors is None:
            sent = _symbol_values(self.transmitted_bits, width)
            self.symbol_bit_errors = (
                symbol_bit_errors(sent, self.decoded_values, width, count)
                if count
                else np.zeros(0, dtype=np.uint8)
            )

    def __getattr__(self, name: str):
        # Reached only when normal lookup fails, which for a field means a
        # received_bits left to be unpacked from decoded_values.
        if name != "received_bits" or "decoded_values" not in vars(self):
            raise AttributeError(name)
        matrix = ints_to_bit_matrix(self.decoded_values, self.bits_per_symbol)
        self.received_bits = matrix.ravel()[: len(self.transmitted_bits)].astype(np.uint8)
        return self.received_bits

    @property
    def bit_errors(self) -> int:
        """Number of payload bit positions that differ."""
        return int(self.symbol_bit_errors.sum())

    @property
    def bit_error_rate(self) -> float:
        if len(self.transmitted_bits) == 0:
            raise ValueError("no bits were transmitted")
        return self.bit_errors / len(self.transmitted_bits)

    @property
    def symbol_error_rate(self) -> float:
        if self.symbols_sent == 0:
            raise ValueError("no symbols were transmitted")
        return self.symbol_errors / self.symbols_sent

    @property
    def throughput(self) -> float:
        """Payload bits per second of simulated link time."""
        if self.elapsed_time <= 0:
            raise ValueError("elapsed_time must be positive")
        return len(self.transmitted_bits) / self.elapsed_time

    def summary(self) -> str:
        return (
            f"{len(self.transmitted_bits)} bits in {self.symbols_sent} symbols, "
            f"{self.bit_errors} bit errors (BER={self.bit_error_rate:.2e}), "
            f"{self.symbol_errors} symbol errors, throughput {self.throughput / 1e6:.1f} Mbit/s"
        )


class OpticalLink:
    """One transmitter-to-receiver PPM channel.

    Parameters
    ----------
    config:
        The link configuration (PPM order, slot timing, SPAD operating point,
        received pulse energy).
    channel:
        Optional :class:`~repro.photonics.channel.OpticalChannel`.  When
        supplied, ``config.mean_detected_photons`` is interpreted as the
        *emitted* mean photon count and the channel transmission is applied on
        top of it; without a channel it is the count at the detector.
    seed:
        Seed for all stochastic behaviour (SPAD, TDC mismatch).
    """

    def __init__(
        self,
        config: LinkConfig = LinkConfig(),
        channel: Optional[OpticalChannel] = None,
        seed: int = 0,
    ) -> None:
        self.config = config
        self.channel = channel
        self._seed = int(seed)
        self.codec = PpmCodec(config.slot_grid())
        self.spad = SpadDevice(
            config=config.spad_config(),
            quenching=config.quenching_circuit(),
            random_source=self._stream("spad"),
        )
        self.tdc = self._build_tdc()

    # -- construction helpers ---------------------------------------------------
    def _stream(self, label: str) -> RandomSource:
        """The random stream of one part of the link, split from the link's seed.

        The same stream ``RandomSource(seed).spawn(label)`` gives, without
        building the root generator that is never drawn from.
        """
        return RandomSource(split_seed(self._seed, label))

    def _build_tdc(self) -> TimeToDigitalConverter:
        design = self.config.effective_tdc_design()
        element_model = DelayElementModel(
            nominal_delay=design.element_delay,
            mismatch_sigma=0.05,
        )
        # A small deterministic margin keeps the (randomly mismatched) chain
        # covering one coarse clock period, as the hardware design rule requires.
        length = design.fine_elements + max(2, design.fine_elements // 10)
        line = TappedDelayLine(
            element_model,
            length=length,
            random_source=self._stream("tdc"),
            temperature=self.config.temperature,
        )
        coarse = CoarseCounter(
            clock_frequency=1.0 / (design.fine_elements * design.element_delay),
            bits=design.coarse_bits,
        )
        return TimeToDigitalConverter(line, coarse)

    # -- photon budget -------------------------------------------------------------
    def mean_photons_at_detector(self) -> float:
        """Mean photons per pulse reaching the SPAD active area."""
        photons = self.config.mean_detected_photons
        if self.channel is not None:
            photons *= self.channel.transmission(self.config.temperature)
        return photons

    def detection_probability_per_pulse(self) -> float:
        """Probability that a transmitted pulse triggers the SPAD at all."""
        return self.spad.detection_probability_for_photons(self.mean_photons_at_detector())

    # -- transmission -----------------------------------------------------------------
    @staticmethod
    def _payload_array(bits: Sequence[int]) -> np.ndarray:
        """Validated ``uint8`` copy of a payload given as a list or array of 0/1.

        Every backend's :meth:`transmit_bits` starts here, so all of them
        accept and reject the same inputs.
        """
        raw = np.asarray(bits)
        if raw.ndim != 1 or raw.size == 0:
            raise ValueError("bits must be a non-empty 1-D sequence")
        if np.issubdtype(raw.dtype, np.integer):
            valid = int(raw.min()) >= 0 and int(raw.max()) <= 1
        else:
            # Validate before casting: the uint8 cast would silently truncate
            # fractional "bits" and NaN.
            valid = bool(np.isin(raw, (0, 1)).all())
        if not valid:
            raise ValueError("bits must be 0 or 1")
        return raw.astype(np.uint8)

    def transmit_bits(self, bits: Sequence[int]) -> TransmissionResult:
        """Send a payload over the link and return the decoded result.

        ``bits`` is a list or array of 0/1.  The payload is padded with zeros
        to a whole number of symbols; error statistics are computed over the
        original (unpadded) bit positions.
        """
        payload = self._payload_array(bits)
        k = self.config.ppm_bits
        padded = payload.tolist()
        remainder = len(padded) % k
        if remainder:
            padded += [0] * (k - remainder)

        symbols = self.codec.encode_bits(padded)
        symbol_duration = self.config.symbol_duration
        mean_photons = self.mean_photons_at_detector()

        decoded_values: List[int] = []
        symbol_errors = 0
        detection_counts = {
            "photon": 0,
            "dark_count": 0,
            "afterpulse": 0,
            # A single isolated channel never reports crosstalk; the key is
            # present so every backend shares one detection-count shape.
            "crosstalk": 0,
            "missed": 0,
        }
        self.spad.reset()

        for index, symbol in enumerate(symbols):
            window_start = index * symbol_duration
            # Gated operation: the receiver re-arms the SPAD at the start of
            # every measurement window (this is what lets the detection cycle
            # be matched to the PPM range, as the paper's DC(N, C) assumes).
            self.spad.rearm(window_start)
            # The channel's propagation delay shifts every symbol identically,
            # so the receiver's window is assumed aligned to it (clock
            # recovery) and the pulse lands at its window-relative slot time.
            photon_time = window_start + symbol.pulse_time
            detection = self.spad.detect_in_window(
                window_start, symbol_duration, photon_time, mean_photons
            )
            if detection is None:
                detection_counts["missed"] += 1
                decoded_value = 0
            else:
                detection_counts[detection.origin.value] += 1
                relative = detection.time - window_start
                conversion = self.tdc.convert(min(relative, self.tdc.usable_range * 0.999999))
                measured = min(max(conversion.measured_time, 0.0), symbol_duration * 0.999999)
                decoded_value = self.codec.decode_time(measured)
            decoded_values.append(decoded_value)
            if decoded_value != symbol.value:
                symbol_errors += 1

        elapsed = len(symbols) * symbol_duration
        return TransmissionResult(
            transmitted_bits=payload,
            received_bits=None,
            symbols_sent=len(symbols),
            symbol_errors=symbol_errors,
            detection_counts=detection_counts,
            elapsed_time=elapsed,
            bits_per_symbol=k,
            decoded_values=np.asarray(decoded_values, dtype=np.int64),
        )

    def transmit_random(self, bit_count: int, payload_seed: int = 1234) -> TransmissionResult:
        """Transmit ``bit_count`` random bits (convenience for benchmarks)."""
        if bit_count <= 0:
            raise ValueError("bit_count must be positive")
        source = RandomSource(payload_seed)
        return self.transmit_bits(source.generator.integers(0, 2, size=bit_count))

    # -- figures of merit ----------------------------------------------------------------
    def raw_bit_rate(self) -> float:
        """Link throughput with back-to-back symbols [bit/s]."""
        return self.config.raw_bit_rate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OpticalLink(K={self.config.ppm_bits}, slot={self.config.slot_duration:.2e}s, "
            f"rate={self.raw_bit_rate() / 1e6:.1f} Mbit/s)"
        )


def decode_detections(
    links: Sequence[OpticalLink],
    times: np.ndarray,
    origins: np.ndarray,
    kernel: Optional[str],
    channels: int = 1,
    segments: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Symbol values of a detection pass's windows through the links' receivers.

    The batch engines' TDC-and-slot step, one ``kernel`` ``decode_windows``
    call: each detection is made window-relative, clipped into the TDC
    range, converted as :meth:`TimeToDigitalConverter.convert_array` does,
    clipped into the window and decoded as :meth:`PpmCodec.decode_times`
    does.  A missed window decodes to 0.  Without ``segments`` the pass is
    the one link's; with them, link ``g`` decodes the windows from
    ``segments[g]`` on its own TDC, its windows counted from 0, and the
    links share the first one's slot grid.
    """
    if any(link.tdc.metastability is not None for link in links):
        raise ValueError(
            "the batch decode does not model TDC metastability; "
            "use the scalar OpticalLink for a TDC with a metastability model"
        )
    tables = (
        [link.tdc.coarse.period for link in links],
        [link.tdc.coarse.modulus for link in links],
        [link.tdc.delay_line.tap_times for link in links],
        [link.tdc.lsb for link in links],
    )
    if segments is None:
        tables = tuple(column[0] for column in tables)
    first = links[0]
    grid = first.codec.grid
    return get_kernel(kernel).decode_windows(
        times,
        origins,
        channels,
        first.config.symbol_duration,
        *tables,
        grid.slot_duration,
        grid.slot_count,
        segments,
    )
