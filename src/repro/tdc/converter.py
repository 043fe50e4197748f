"""The complete two-level time-to-digital converter.

Combines the coarse counter and the tapped delay line exactly as described in
the paper (Figure 2): the coarse counter counts whole system-clock periods,
the hit signal enters the delay line, and the line state is latched on the
next rising clock edge.  The latched thermometer code measures the residual
interval between the hit and that edge; the fine controller converts it to
binary.

The converter exposes both *codes* (what the hardware registers contain) and
*reconstructed times* (after applying either nominal-LSB scaling or a
calibration table), plus the paper's range bookkeeping: measurement window
``MW = (2^C + 1)·N·δ`` including one fine range of reset/dead time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.kernels import reference as _reference
from repro.tdc.coarse_counter import CoarseCounter
from repro.tdc.delay_line import TappedDelayLine
from repro.tdc.metastability import MetastabilityModel
from repro.tdc.thermometer import ThermometerEncoder
from repro.simulation.randomness import RandomSource


@dataclass(frozen=True)
class TdcBatchConversion:
    """Result of converting a whole array of arrival times at once.

    Field-for-field the array analogue of :class:`TdcConversion`; produced by
    :meth:`TimeToDigitalConverter.convert_array`, the batch fast path used by
    the vectorised link engine.
    """

    coarse_codes: np.ndarray
    fine_codes: np.ndarray
    codes: np.ndarray
    measured_times: np.ndarray
    true_times: np.ndarray
    saturated: np.ndarray

    @property
    def errors(self) -> np.ndarray:
        """Signed measurement errors [s]."""
        return self.measured_times - self.true_times

    def __len__(self) -> int:
        return int(self.codes.size)


@dataclass(frozen=True)
class TdcConversion:
    """Result of a single TDC conversion."""

    coarse_code: int
    fine_code: int
    code: int
    measured_time: float
    true_time: float
    saturated: bool

    @property
    def error(self) -> float:
        """Signed measurement error [s]."""
        return self.measured_time - self.true_time


class TimeToDigitalConverter:
    """Behavioural two-level TDC (coarse counter + tapped delay line)."""

    def __init__(
        self,
        delay_line: TappedDelayLine,
        coarse: CoarseCounter,
        metastability: Optional[MetastabilityModel] = None,
        bubble_correction: bool = True,
        random_source: Optional[RandomSource] = None,
    ) -> None:
        self.delay_line = delay_line
        self.coarse = coarse
        self.metastability = metastability
        self.encoder = ThermometerEncoder(delay_line.length, bubble_correction=bubble_correction)
        self._random_source = random_source
        if delay_line.total_delay < coarse.period * (1.0 - 1e-9):
            raise ValueError(
                "delay line does not cover one clock period: "
                f"{delay_line.total_delay:.3e}s < {coarse.period:.3e}s; "
                "increase the chain length"
            )

    # -- static properties ----------------------------------------------------
    @property
    def fine_elements(self) -> int:
        """N — number of fine delay elements."""
        return self.delay_line.length

    @property
    def coarse_bits(self) -> int:
        """C — number of coarse range bits."""
        return self.coarse.bits

    @property
    def lsb(self) -> float:
        """Nominal least-significant-bit width (mean element delay) [s]."""
        return self.delay_line.mean_resolution()

    @property
    def measurement_window(self) -> float:
        """MW(N, C) = (2^C + 1)·N·δ — usable range plus one fine range of reset.

        The fine range N·δ is, by the hardware design rule, one coarse clock
        period (the chain is sized to cover the period with margin), so the
        window is expressed in clock periods to stay exact even when the
        physical chain is slightly longer than the period.
        """
        return (self.coarse.modulus + 1) * self.coarse.period

    @property
    def usable_range(self) -> float:
        """2^C·N·δ — range over which arrival times are resolved.

        Equal to the coarse counter's full range; the fine interpolator covers
        exactly one coarse period within it.
        """
        return self.coarse.full_range

    @property
    def bits_per_conversion(self) -> float:
        """log2(N) + C — information content of one conversion."""
        return float(np.log2(self.fine_elements) + self.coarse_bits)

    def code_count(self) -> int:
        """Total number of distinct output codes (2^C × N)."""
        return self.coarse.modulus * self.fine_elements

    # -- conversion -------------------------------------------------------------
    def convert(self, arrival_time: float) -> TdcConversion:
        """Convert the arrival time of a hit (seconds from the range start).

        Arrival times beyond the usable range saturate at the last code (the
        hardware would report a timeout); the ``saturated`` flag is set.
        """
        if arrival_time < 0:
            raise ValueError(f"arrival_time must be non-negative, got {arrival_time}")
        saturated = arrival_time >= self.usable_range
        clamped = min(arrival_time, np.nextafter(self.usable_range, 0.0))

        coarse_code, residual = self.coarse.split(clamped)
        thermometer = self.delay_line.thermometer_code(residual)
        if self.metastability is not None:
            thermometer = self.metastability.corrupt(
                thermometer, self.delay_line.tap_times, residual, self._random_source
            )
        fine_code = self.encoder.encode(thermometer)
        fine_code = min(fine_code, self.fine_elements - 1)

        code = coarse_code * self.fine_elements + (self.fine_elements - 1 - fine_code)
        measured = self.reconstruct_time(coarse_code, fine_code)
        return TdcConversion(
            coarse_code=coarse_code,
            fine_code=fine_code,
            code=code,
            measured_time=measured,
            true_time=arrival_time,
            saturated=saturated,
        )

    def reconstruct_time(self, coarse_code: int, fine_code: int) -> float:
        """Estimate the arrival time from the two codes using the nominal LSB.

        The fine code counts taps reached before the next clock edge, i.e. it
        measures ``time_to_edge ≈ (fine_code + 0.5)·δ`` (mid-bin estimate, the
        standard unbiased reconstruction); the arrival time is then the next
        edge minus that interval.
        """
        return float(self.reconstruct_times(coarse_code, fine_code))

    def reconstruct_times(self, coarse_codes: np.ndarray, fine_codes: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`reconstruct_time` — the single mid-bin reconstruction
        shared by the scalar and batch conversion paths."""
        return _reference.reconstruct_times(
            np.asarray(coarse_codes),
            np.asarray(fine_codes),
            self.coarse.period,
            self.coarse.modulus,
            self.lsb,
        )

    def convert_array(self, arrival_times: np.ndarray) -> TdcBatchConversion:
        """Convert a whole array of arrival times (any shape) at once.

        Produces the same codes and reconstructed times as calling
        :meth:`convert` per sample, and quantises the whole array with one
        :func:`np.searchsorted` against the delay line's cached tap times.
        With a metastability model attached, every sample goes through
        :meth:`convert` in C order instead, so the bubbles are drawn from the
        random stream exactly as per-sample conversion draws them.
        """
        times = np.asarray(arrival_times, dtype=float)
        coarse_codes, residual = _reference.split_times(
            times, self.coarse.period, self.coarse.modulus
        )
        if self.metastability is None:
            fine_codes = np.minimum(
                np.searchsorted(self.delay_line.tap_times, residual, side="right"),
                self.fine_elements - 1,
            )
        else:
            fine_codes = np.array(
                [self.convert(time).fine_code for time in times.ravel().tolist()],
                dtype=np.int64,
            ).reshape(times.shape)
        return TdcBatchConversion(
            coarse_codes=coarse_codes,
            fine_codes=fine_codes,
            codes=coarse_codes * self.fine_elements + (self.fine_elements - 1 - fine_codes),
            measured_times=self.reconstruct_times(coarse_codes, fine_codes),
            true_times=times.copy(),
            saturated=times >= self.usable_range,
        )

    def convert_many(self, arrival_times: np.ndarray) -> np.ndarray:
        """Vector of output codes for an array of arrival times (used by code-density tests).

        Thin wrapper over :meth:`convert_array` kept for the code-density
        tooling, which only needs the codes.
        """
        return self.convert_array(arrival_times).codes

    def quantization_rms(self) -> float:
        """RMS quantisation error of an ideal converter with this LSB [s]."""
        return self.lsb / np.sqrt(12.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TimeToDigitalConverter(N={self.fine_elements}, C={self.coarse_bits}, "
            f"lsb={self.lsb:.3e}s, MW={self.measurement_window:.3e}s)"
        )
