"""Differential and integral non-linearity (DNL / INL) analysis.

Figure 3 of the paper shows the DNL characteristic of the FPGA delay-line TDC
and states that the INL stays below 1 LSB.  Both quantities are obtained from
a *code-density test*: the converter is exercised with a large number of hits
whose arrival times are uniformly distributed over the measurement range, and
the histogram of output codes is compared with the ideal uniform histogram.

    DNL[k] = count[k] / mean_count − 1          (in LSB)
    INL[k] = Σ_{i ≤ k} DNL[i]                   (in LSB)

The same procedure applies to measured hardware and to the behavioural model,
which is what makes the reproduction faithful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.simulation.randomness import RandomSource
from repro.tdc.converter import TimeToDigitalConverter


@dataclass
class NonlinearityReport:
    """DNL/INL of a converter, one entry per analysed code."""

    codes: np.ndarray
    counts: np.ndarray
    dnl: np.ndarray
    inl: np.ndarray
    samples: int

    @property
    def dnl_peak(self) -> float:
        """Maximum |DNL| in LSB."""
        return float(np.max(np.abs(self.dnl))) if self.dnl.size else 0.0

    @property
    def inl_peak(self) -> float:
        """Maximum |INL| in LSB."""
        return float(np.max(np.abs(self.inl))) if self.inl.size else 0.0

    @property
    def dnl_rms(self) -> float:
        """RMS DNL in LSB."""
        return float(np.sqrt(np.mean(self.dnl ** 2))) if self.dnl.size else 0.0

    def missing_codes(self) -> np.ndarray:
        """Codes (within the analysed span) that never occurred (DNL = −1)."""
        return self.codes[self.counts == 0]

    def summary(self) -> str:
        return (
            f"codes={self.codes.size}, samples={self.samples}, "
            f"DNL peak={self.dnl_peak:.3f} LSB (rms {self.dnl_rms:.3f}), "
            f"INL peak={self.inl_peak:.3f} LSB, missing={self.missing_codes().size}"
        )


def compute_dnl_inl(counts: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """DNL and INL (in LSB) from a code-density histogram.

    The histogram must contain at least one non-empty bin.  By convention the
    INL is referenced to zero at the first code (endpoint-referenced INL would
    only shift the curve by a constant).
    """
    histogram = np.asarray(counts, dtype=float)
    if histogram.ndim != 1 or histogram.size == 0:
        raise ValueError("counts must be a non-empty 1-D sequence")
    total = histogram.sum()
    if total <= 0:
        raise ValueError("code-density histogram is empty")
    mean = total / histogram.size
    dnl = histogram / mean - 1.0
    inl = np.cumsum(dnl)
    return dnl, inl


def code_density_test(
    tdc: TimeToDigitalConverter,
    samples: int = 100_000,
    random_source: Optional[RandomSource] = None,
    trim_unused: bool = True,
) -> NonlinearityReport:
    """Run a statistical code-density test on a behavioural TDC.

    Hits are drawn uniformly over the usable range (as a hardware test bench
    would do with an uncorrelated pulser).  ``trim_unused`` removes the
    leading/trailing codes that can never occur because the delay chain is
    intentionally longer than one clock period (the paper's 96-element chain
    uses at most 93 elements).
    """
    if samples <= 0:
        raise ValueError(f"samples must be positive, got {samples}")
    source = random_source if random_source is not None else RandomSource(0)
    arrival_times = source.uniform_array(0.0, tdc.usable_range, samples)
    codes = tdc.convert_many(arrival_times)

    code_count = tdc.code_count()
    counts = np.bincount(codes, minlength=code_count).astype(float)

    first, last = 0, code_count - 1
    if trim_unused:
        nonzero = np.nonzero(counts)[0]
        if nonzero.size == 0:
            raise ValueError("code-density test produced no hits in range")
        first, last = int(nonzero[0]), int(nonzero[-1])
    analysed = counts[first : last + 1]
    dnl, inl = compute_dnl_inl(analysed)
    return NonlinearityReport(
        codes=np.arange(first, last + 1),
        counts=analysed.astype(int),
        dnl=dnl,
        inl=inl,
        samples=samples,
    )


def dnl_from_bin_widths(bin_widths: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Analytic DNL/INL from known quantisation-bin widths.

    For a delay-line TDC the bin widths *are* the element delays, so the DNL
    can be computed without Monte-Carlo sampling; this is used to cross-check
    the code-density estimate and by the calibration routines.
    """
    widths = np.asarray(bin_widths, dtype=float)
    if widths.ndim != 1 or widths.size == 0:
        raise ValueError("bin_widths must be a non-empty 1-D sequence")
    if np.any(widths <= 0):
        raise ValueError("bin widths must be positive")
    mean = widths.mean()
    dnl = widths / mean - 1.0
    inl = np.cumsum(dnl)
    return dnl, inl
