"""FPGA carry-chain TDC profile (Xilinx Virtex-II Pro proof of concept).

The paper's preliminary results were obtained on a Xilinx XC2VP40 Virtex-II
Pro FPGA with the delay line built from the carry chain, following Song et
al. (ref [6]).  Carry-chain TDCs have a characteristic non-uniform bin
structure: the delay of an element depends on whether it crosses a slice or
CLB boundary, producing a periodic saw-tooth in the DNL — exactly the shape
visible in the paper's Figure 3.

This module captures that structure in an :class:`FpgaCarryChainProfile` and
provides a convenience constructor for the 200 MHz / 96-element configuration
used in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.units import MHZ, PS
from repro.simulation.randomness import RandomSource
from repro.tdc.coarse_counter import CoarseCounter
from repro.tdc.converter import TimeToDigitalConverter
from repro.tdc.delay_element import DelayElementModel
from repro.tdc.delay_line import TappedDelayLine
from repro.tdc.metastability import MetastabilityModel


@dataclass(frozen=True)
class FpgaCarryChainProfile:
    """Parameters describing a carry-chain delay line in a given FPGA family.

    Attributes
    ----------
    name:
        Family name, for reports.
    element_delay:
        Mean per-element (per-MUXCY) delay [s].
    mismatch_sigma:
        Relative random mismatch between elements.
    clb_period:
        Number of carry elements per CLB column crossing.
    clb_extra_delay:
        Relative extra delay incurred at a CLB boundary (the source of the
        saw-tooth DNL).
    temperature_coefficient:
        Relative delay change per degree Celsius.
    system_clock:
        System clock frequency of the proof-of-concept design [Hz].
    chain_length:
        Number of carry elements instantiated (with margin over one period).
    """

    name: str = "XC2VP40"
    element_delay: float = 51.0 * PS
    mismatch_sigma: float = 0.05
    clb_period: int = 8
    clb_extra_delay: float = 0.45
    temperature_coefficient: float = 1.2e-3
    system_clock: float = 200 * MHZ
    chain_length: int = 96

    def __post_init__(self) -> None:
        if self.element_delay <= 0:
            raise ValueError("element_delay must be positive")
        if self.chain_length <= 0:
            raise ValueError("chain_length must be positive")
        if self.clb_period < 0:
            raise ValueError("clb_period must be non-negative")

    def element_model(self) -> DelayElementModel:
        """Delay element model corresponding to this FPGA profile."""
        return DelayElementModel(
            nominal_delay=self.element_delay,
            mismatch_sigma=self.mismatch_sigma,
            temperature_coefficient=self.temperature_coefficient,
            structural_period=self.clb_period,
            structural_extra=self.clb_extra_delay,
            reference_temperature=20.0,
        )

    @property
    def clock_period(self) -> float:
        return 1.0 / self.system_clock


#: The configuration reported in the paper: XC2VP40, 200 MHz system clock,
#: 96-element chain covering the 5 ns fine window with margin.
VIRTEX2PRO_PROFILE = FpgaCarryChainProfile()


def build_fpga_delay_line(
    profile: FpgaCarryChainProfile = VIRTEX2PRO_PROFILE,
    random_source: Optional[RandomSource] = None,
    temperature: float = 20.0,
    length: Optional[int] = None,
) -> TappedDelayLine:
    """Instantiate the tapped delay line of an FPGA carry-chain TDC."""
    model = profile.element_model()
    return TappedDelayLine(
        model,
        length=profile.chain_length if length is None else length,
        random_source=random_source,
        temperature=temperature,
    )


def build_fpga_tdc(
    profile: FpgaCarryChainProfile = VIRTEX2PRO_PROFILE,
    coarse_bits: int = 0,
    random_source: Optional[RandomSource] = None,
    temperature: float = 20.0,
    with_metastability: bool = False,
) -> TimeToDigitalConverter:
    """Build the full proof-of-concept TDC (delay line + coarse counter).

    ``coarse_bits=0`` reproduces the single-clock-period fine measurement used
    for the Figure 3 characterisation; larger values extend the range by
    ``2**coarse_bits`` periods as in the paper's throughput analysis.
    """
    source = random_source if random_source is not None else RandomSource(0)
    line = build_fpga_delay_line(profile, random_source=source.spawn("chain"), temperature=temperature)
    coarse = CoarseCounter(clock_frequency=profile.system_clock, bits=coarse_bits)
    metastability = MetastabilityModel() if with_metastability else None
    return TimeToDigitalConverter(
        line,
        coarse,
        metastability=metastability,
        random_source=source.spawn("metastability"),
    )
