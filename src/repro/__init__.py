"""repro — reproduction of Favi & Charbon, "Techniques for Fully Integrated
Intra-/Inter-chip Optical Communication" (DAC 2008).

The package implements, in pure Python + numpy, every subsystem the paper's
optical interconnect depends on:

* :mod:`repro.spad` — single-photon avalanche diode (SPAD) device models.
* :mod:`repro.photonics` — micro-LED emitter, CMOS driver and through-silicon
  optical channel models (thinned die stacks, micro-optics, crosstalk).
* :mod:`repro.tdc` — time-to-digital converter: tapped delay line, coarse
  counter, thermometer decoding, DNL/INL analysis and calibration.
* :mod:`repro.modulation` — pulse-position modulation (PPM) coder/decoder,
  symbol/bit primitives and the on-off-keying ablation baseline.
* :mod:`repro.electrical` — conventional electrical baselines (wire-bond pads,
  TSVs, inductive and capacitive coupling) used for comparison.
* :mod:`repro.simulation` — seeded random streams and the chunked
  Monte-Carlo runner and trials the experiment layer runs on.
* :mod:`repro.kernels` — interchangeable implementations of the sequential
  hot loops (pure Python, NumPy and a self-compiled C tier), all
  bit-identical.
* :mod:`repro.noc` — multi-chip vertical optical bus, broadcast and arbitration.
* :mod:`repro.core` — the paper's contribution: the end-to-end optical link,
  the link-backend registry (:func:`make_link`), its throughput/design-space
  model (MW, TP, DC equations), error/power/area analysis and the optical
  clock distribution extension.
* :mod:`repro.scenarios` — the declarative experiment layer: frozen
  :class:`~repro.scenarios.Scenario` descriptions of the paper's sweeps,
  compiled onto the batch Monte-Carlo machinery by
  :class:`~repro.scenarios.ExperimentRunner`.
* :mod:`repro.analysis` — units, confidence intervals, plotting and report helpers.
* :mod:`repro.frontdoor` — the shared run/list/show/compare layer the CLI
  and the experiment service both consume (scenario resolution, the
  machine-readable catalogue, pre-run cache keys).
* :mod:`repro.service` — ``repro serve``: an asyncio HTTP daemon where
  completed runs are O(1) digest cache hits, identical in-flight requests
  coalesce onto one simulation, and progress streams as server-sent events.

Quickstart
----------

Links are built through the backend registry — ``"batch"`` (the vectorised
default), ``"scalar"`` (the draw-for-draw reference path) or
``"multichannel"`` (the parallel SPAD-array engine), never by naming an
engine class:

>>> from repro import LinkConfig, make_link
>>> link = make_link(LinkConfig(ppm_bits=4), backend="batch", seed=1)
>>> result = link.transmit_bits([0, 1, 1, 0, 1, 0, 0, 1])
>>> result.bit_errors
0

Experiments — the paper's figures — are declarative scenarios; grid points
dispatch through a pluggable executor (serial in-process, or a process pool
with ``executor="process"`` — reports are bit-identical either way):

>>> from repro import run_scenario
>>> from repro.scenarios import get_scenario
>>> scenario = get_scenario("ber-vs-photons").with_budget(512)
>>> report = run_scenario(scenario, seed=1)
>>> len(report.points)
6

The same front door is available from the shell — ``python -m repro run
ber-vs-photons --executor process --workers 4`` runs a scenario, prints the
report table and persists a JSON artefact
(:class:`~repro.scenarios.ReportStore`) for longitudinal tracking.

Backend contract: all backends share the physics and the
:class:`~repro.core.link.TransmissionResult` shape, are deterministic per
seed, and are *statistically* (not draw-for-draw) equivalent to each other.
"""

from repro import _lazy

__getattr__, __dir__ = _lazy.exports(__name__, {
    ".core": (
        "BackendCapabilities", "FastOpticalLink", "LinkBackend", "LinkConfig",
        "MultichannelOpticalLink", "MultichannelResult", "OpticalLink", "TdcDesign",
        "available_backends", "backend_capabilities", "detection_cycle", "make_link",
        "measurement_window", "register_backend", "resolve_backend", "throughput",
    ),
    ".noc": ("BroadcastResult", "OpticalBus", "Packet", "StackTopology", "broadcast"),
    ".scenarios": (
        "ChaosExecutor", "ChaosSchedule", "CorruptArtifactError", "ExperimentReport",
        "ExperimentRunner", "ExperimentSession", "PointFailure", "ProcessExecutor",
        "ReportStore", "RetryPolicy", "Scenario", "SerialExecutor", "get_scenario",
        "named_scenarios", "run_scenario",
    ),
    ".frontdoor": ("RunRequest", "scenario_catalogue"),
    ".service": ("ExperimentService", "ServiceBindError", "ServiceClient", "serve_app"),
    ".simulation": ("NocTrafficTrial",),
})

__version__ = "1.6.0"

__all__ = [
    "LinkConfig",
    "make_link",
    "LinkBackend",
    "BackendCapabilities",
    "register_backend",
    "resolve_backend",
    "available_backends",
    "backend_capabilities",
    "OpticalLink",
    "FastOpticalLink",
    "MultichannelOpticalLink",
    "MultichannelResult",
    "TdcDesign",
    "measurement_window",
    "throughput",
    "detection_cycle",
    "Scenario",
    "ExperimentRunner",
    "ExperimentSession",
    "ExperimentReport",
    "SerialExecutor",
    "ProcessExecutor",
    "RetryPolicy",
    "PointFailure",
    "ChaosSchedule",
    "ChaosExecutor",
    "ReportStore",
    "CorruptArtifactError",
    "run_scenario",
    "get_scenario",
    "named_scenarios",
    "OpticalBus",
    "Packet",
    "StackTopology",
    "broadcast",
    "BroadcastResult",
    "NocTrafficTrial",
    "RunRequest",
    "scenario_catalogue",
    "ExperimentService",
    "ServiceBindError",
    "ServiceClient",
    "serve_app",
    "__version__",
]
