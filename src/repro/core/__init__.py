"""Core of the reproduction: the paper's optical interconnect.

This package ties the substrates together into the system the paper proposes:

* :mod:`repro.core.throughput` — the analytical model of Section 3:
  measurement window ``MW(N, C)``, throughput ``TP(N, C)`` and SPAD detection
  cycle ``DC(N, C)`` (Figure 4).
* :mod:`repro.core.design_space` — exploration of the (N, C) plane and design
  selection under dead-time/resolution constraints.
* :mod:`repro.core.config` / :mod:`repro.core.link` — the end-to-end optical
  link simulator (micro-LED → channel → SPAD → TDC → PPM decoder).
* :mod:`repro.core.fastlink` — the vectorised batch transmission engine, the
  fast path for Monte-Carlo-scale symbol ensembles.
* :mod:`repro.core.multilink` — the multichannel SPAD-array engine: all
  symbols of all parallel channels as one ``(S, C)`` pass, with optical
  crosstalk between neighbours.
* :mod:`repro.core.backend` — the :class:`LinkBackend` protocol and registry:
  :func:`make_link` is the single front door through which every consumer
  constructs a link, selecting ``"batch"`` or ``"multichannel"`` by name.
* :mod:`repro.core.error_model` / :mod:`repro.core.ber` — analytic and
  Monte-Carlo symbol/bit error rates from jitter, dark counts, afterpulsing
  and missed detections.
* :mod:`repro.core.power` / :mod:`repro.core.area` — transceiver power and
  area versus a conventional pad.
* :mod:`repro.core.link_budget` — optical power budget over the die stack.
* :mod:`repro.core.calibration` — the periodic-recalibration policy that keeps
  the TDC resolution bounded without dynamic PVT compensation.
* :mod:`repro.core.clocking` — the optical clock distribution extension
  sketched in the paper's conclusions.
"""

from repro import _lazy

__getattr__, __dir__ = _lazy.exports(__name__, {
    ".throughput": (
        "TdcDesign", "bits_per_symbol", "detection_cycle", "measurement_window",
        "throughput",
    ),
    ".design_space": ("DesignPoint", "DesignSpace", "figure4_grid"),
    ".config": ("LinkConfig",),
    ".link": ("OpticalLink", "TransmissionResult"),
    ".fastlink": ("FastOpticalLink",),
    ".multilink": ("MultichannelOpticalLink", "MultichannelResult"),
    ".backend": (
        "BackendCapabilities", "LinkBackend", "available_backends",
        "backend_capabilities", "make_link", "register_backend", "resolve_backend",
    ),
    ".error_model": ("ErrorBudget", "symbol_error_budget"),
    ".ber": ("analytic_bit_error_rate", "monte_carlo_bit_error_rate"),
    ".power": ("PowerBreakdown", "link_power", "pad_power_comparison"),
    ".area": ("AreaBreakdown", "link_area", "pad_area_comparison"),
    ".link_budget": ("LinkBudget", "close_link_budget"),
    ".calibration": ("CalibrationPolicy",),
    ".clocking": ("ClockDistributionComparison", "OpticalClockDistribution"),
})

__all__ = [
    "TdcDesign",
    "measurement_window",
    "throughput",
    "detection_cycle",
    "bits_per_symbol",
    "DesignPoint",
    "DesignSpace",
    "figure4_grid",
    "LinkConfig",
    "OpticalLink",
    "FastOpticalLink",
    "MultichannelOpticalLink",
    "MultichannelResult",
    "TransmissionResult",
    "LinkBackend",
    "BackendCapabilities",
    "make_link",
    "register_backend",
    "resolve_backend",
    "available_backends",
    "backend_capabilities",
    "ErrorBudget",
    "symbol_error_budget",
    "analytic_bit_error_rate",
    "monte_carlo_bit_error_rate",
    "PowerBreakdown",
    "link_power",
    "pad_power_comparison",
    "AreaBreakdown",
    "link_area",
    "pad_area_comparison",
    "LinkBudget",
    "close_link_budget",
    "CalibrationPolicy",
    "OpticalClockDistribution",
    "ClockDistributionComparison",
]
