"""Time-to-digital converter (TDC) substrate.

The paper's receiver decodes pulse-position modulation by measuring the
time-of-arrival (TOA) of the SPAD pulse with a two-level TDC:

* a **coarse counter** clocked at the system frequency (200 MHz in the FPGA
  proof-of-concept) counts whole clock periods, and
* a **fine tapped delay line** interpolates within one clock period; the state
  of the line is latched on the next rising clock edge, producing a
  thermometer code that is converted to binary.

This subpackage models the delay elements (including process mismatch and
temperature/voltage dependence), the delay line, the thermometer decoder with
bubble correction, the complete converter, the code-density DNL/INL analysis
of Figure 3 and the calibration procedure the paper relies on instead of
dynamic PVT compensation.
"""

from repro import _lazy

__getattr__, __dir__ = _lazy.exports(__name__, {
    ".delay_element": ("DelayElementModel",),
    ".delay_line": ("TappedDelayLine",),
    ".coarse_counter": ("CoarseCounter",),
    ".thermometer": (
        "ThermometerEncoder", "binary_to_thermometer", "thermometer_to_binary",
    ),
    ".converter": ("TdcConversion", "TimeToDigitalConverter"),
    ".nonlinearity": ("NonlinearityReport", "code_density_test", "compute_dnl_inl"),
    ".calibration": ("CalibrationTable", "calibrate_from_code_density"),
    ".metastability": ("MetastabilityModel",),
    ".fpga": ("VIRTEX2PRO_PROFILE", "FpgaCarryChainProfile", "build_fpga_delay_line"),
})

__all__ = [
    "DelayElementModel",
    "TappedDelayLine",
    "CoarseCounter",
    "ThermometerEncoder",
    "thermometer_to_binary",
    "binary_to_thermometer",
    "TimeToDigitalConverter",
    "TdcConversion",
    "NonlinearityReport",
    "code_density_test",
    "compute_dnl_inl",
    "CalibrationTable",
    "calibrate_from_code_density",
    "MetastabilityModel",
    "FpgaCarryChainProfile",
    "VIRTEX2PRO_PROFILE",
    "build_fpga_delay_line",
]
