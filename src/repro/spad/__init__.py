"""Single-photon avalanche diode (SPAD) substrate.

The SPAD is the core of the paper's optical receiver: it detects single
photons with a purely digital output, so the receiver needs no transimpedance
amplifier, no A/D conversion and no analogue signal processing.  Its relevant
non-idealities are exactly the quantities the paper's link analysis depends
on:

* **photon detection probability (PDP)** versus wavelength and excess bias,
* **dead time / detection cycle** (tens of nanoseconds), which forces the
  PPM range to be matched to it,
* **dark count rate (DCR)**, thermally generated false detections,
* **afterpulsing**, trap-assisted correlated false detections following a
  real avalanche, and
* **timing jitter** of the avalanche build-up.

Each effect has its own module; :class:`~repro.spad.device.SpadDevice`
composes them into a stochastic detector usable by the link simulator, and
:func:`~repro.spad.array.detect_in_windows_multichannel` runs one device model
over every pixel of the receiver arrays used for parallel optical buses.
"""

from repro import _lazy

__getattr__, __dir__ = _lazy.exports(__name__, {
    ".pdp": ("PdpCurve", "default_cmos_pdp"),
    ".dark_counts": ("DarkCountModel",),
    ".afterpulsing": ("AfterpulsingModel",),
    ".jitter": ("JitterModel",),
    ".quenching": ("QuenchingCircuit", "QuenchingMode"),
    ".device": ("SpadConfig", "SpadDevice"),
})

__all__ = [
    "PdpCurve",
    "default_cmos_pdp",
    "DarkCountModel",
    "AfterpulsingModel",
    "JitterModel",
    "QuenchingCircuit",
    "QuenchingMode",
    "SpadConfig",
    "SpadDevice",
]
