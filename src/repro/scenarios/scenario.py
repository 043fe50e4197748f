"""The declarative :class:`Scenario` value object.

A scenario is a frozen, serialisable description of one of the paper's
experiments: which link configuration to start from, which axes to sweep,
which metrics to report, how many payload bits to spend per grid point, which
link backend to run, and how seeds are assigned.  Scenarios carry *no*
execution logic — :class:`~repro.scenarios.runner.ExperimentRunner` compiles
them onto the chunked batch Monte-Carlo machinery.

Parameter namespace
-------------------
``link_overrides`` and ``sweep_axes`` share one namespace: the scalar fields
of :class:`~repro.core.config.LinkConfig` plus a few *derived* keys the
compiler expands structurally —

* ``tdc_fine_elements`` / ``tdc_coarse_bits`` — build an explicit
  :class:`~repro.core.throughput.TdcDesign` (N, C) for the receiver, with the
  element delay at slot/4; when only N is given, C is sized to cover the
  symbol.  This is how the paper's Figure 4 design-space grid is expressed.
* ``stack_dies`` / ``stack_thickness`` — route the link through a vertical
  :class:`~repro.photonics.stack.DieStack` of that many thinned dies
  (bottom-to-top worst case); ``mean_detected_photons`` is then the *emitted*
  photon count, per the :class:`~repro.core.link.OpticalLink` channel
  contract.
* ``crosstalk_pitch`` / ``crosstalk_floor`` — build a
  :class:`~repro.photonics.crosstalk.CrosstalkModel` coupling the scenario's
  parallel channels (a linear array at that pitch); they require
  ``channels > 1`` and a multichannel-capable backend.
* ``noc_traffic`` / ``noc_offered_load`` / ``noc_packet_bits`` — switch the
  grid point onto the **NoC traffic evaluator**: instead of pushing payload
  symbols through one link, the point drains
  :class:`~repro.simulation.montecarlo.NocTrafficTrial` packet traffic
  (pattern, offered load, packet size) through the epoch-batched
  :class:`~repro.noc.bus.OpticalBus` over a ``stack_dies``-deep topology,
  with ``mean_detected_photons`` as the *emitted* photon budget and
  ``bits_per_point`` as the offered payload-bit budget.  Network metrics
  (``delivery_ratio``, ``mean_latency``, ``bus_utilisation``,
  ``saturation_throughput``) consume the resulting bus counters.

Every declared value is checked when the scenario is built, the
``LinkConfig`` fields by ``LinkConfig`` itself and the derived keys by type
and range, so a hostile value fails there rather than mid-run.

Everything in a scenario is plain data, so :meth:`Scenario.to_mapping` /
:meth:`Scenario.from_mapping` round-trip losslessly through JSON.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Sequence, Tuple

from repro.analysis.units import UM
from repro.core.backend import backend_capabilities, resolve_backend
from repro.core.config import LinkConfig
from repro.core.throughput import TdcDesign
from repro.photonics.channel import OpticalChannel
from repro.photonics.crosstalk import CrosstalkModel
from repro.photonics.stack import DieStack
from repro.scenarios.metrics import LINK_ONLY_METRICS, NOC_METRICS, available_metrics
from repro.simulation.montecarlo import TRAFFIC_PATTERNS

#: Derived parameter keys expanded structurally by :meth:`Scenario.config_for_point`,
#: :meth:`Scenario.crosstalk_for_point` and :meth:`Scenario.noc_for_point`.
SPECIAL_PARAMETERS: Tuple[str, ...] = (
    "tdc_fine_elements",
    "tdc_coarse_bits",
    "stack_dies",
    "stack_thickness",
    "crosstalk_pitch",
    "crosstalk_floor",
    "noc_traffic",
    "noc_offered_load",
    "noc_packet_bits",
)

#: Parameters that switch a grid point onto the NoC traffic evaluator.
NOC_PARAMETERS: Tuple[str, ...] = ("noc_traffic", "noc_offered_load", "noc_packet_bits")

#: LinkConfig fields addressable from scenarios (scalar, JSON-serialisable ones).
_CONFIG_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(LinkConfig) if f.name != "tdc_design"
)

SEED_POLICIES: Tuple[str, ...] = ("per-point", "shared")

#: How a point's trials are drawn: ``"naive"`` is plain Monte Carlo;
#: ``"importance"`` biases the rare-event draws and weights samples back
#: (requires a backend whose capabilities flag ``supports_importance``).
TRIAL_MODES: Tuple[str, ...] = ("naive", "importance")

_DEFAULT_STACK_THICKNESS = 15.0 * UM


def _known_parameters() -> Tuple[str, ...]:
    return _CONFIG_FIELDS + SPECIAL_PARAMETERS


def require_positive_int(name: str, value: Any) -> None:
    """Raise :class:`ValueError` unless ``value`` is an int above zero.

    ``bool`` is rejected although it subclasses ``int``: ``True`` as a budget
    or chunk size is a malformed request, not a request for one.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise ValueError(f"{name} must be a positive int, got {value!r}")


_NUMBER = (int, float)

#: Value checks of the derived parameters: ``(types, test, what)``.  An
#: integer parameter refuses floats, even whole ones; every parameter
#: refuses bools, and every test is written so that NaN fails it.  The
#: upper bounds keep a value from failing mid-run: the bus's 8-bit
#: addresses name at most 255 dies, every link samples one delay per fine
#: element, and the decode kernels carry the coarse modulus ``2**C`` as a
#: 64-bit integer.
_SPECIAL_CHECKS: Dict[str, Tuple[Any, Callable[[Any], bool], str]] = {
    "tdc_fine_elements": (int, lambda v: 2 <= v <= 1 << 20, "an integer within [2, 2**20]"),
    "tdc_coarse_bits": (int, lambda v: 0 <= v <= 62, "an integer within [0, 62]"),
    "stack_dies": (int, lambda v: 2 <= v <= 255, "an integer within [2, 255]"),
    "stack_thickness": (_NUMBER, lambda v: 0 < v < math.inf, "a positive finite number"),
    "crosstalk_pitch": (_NUMBER, lambda v: 0 < v < math.inf, "a positive finite number"),
    "crosstalk_floor": (_NUMBER, lambda v: 0 <= v < 1, "a number within [0, 1)"),
    "noc_traffic": (str, lambda v: v in TRAFFIC_PATTERNS, f"one of {TRAFFIC_PATTERNS}"),
    "noc_offered_load": (_NUMBER, lambda v: 0 <= v < math.inf, "a non-negative finite number"),
    "noc_packet_bits": (int, lambda v: v > 0, "a positive integer"),
}


@dataclass(frozen=True)
class Scenario:
    """A frozen, declarative experiment description.

    Attributes
    ----------
    name:
        Identifier; named library scenarios use kebab-case (``"ber-vs-photons"``).
    description:
        One-line human summary, carried into experiment reports.
    link_overrides:
        Parameter values applied to the default :class:`LinkConfig` at every
        grid point (see the module docstring for the namespace).
    sweep_axes:
        Ordered mapping of parameter name to the values to sweep; the grid is
        their Cartesian product in insertion order.  Empty means a single
        point.
    metrics:
        Names of registered metrics (:mod:`repro.scenarios.metrics`) to
        evaluate per point.
    bits_per_point:
        Payload-bit budget per grid point (rounded up to whole symbols), in
        total across all channels.
    backend:
        Registered link backend to run (``"batch"`` by default).
    channels:
        Parallel channels the link runs (default 1); more than one requires a
        backend whose capabilities flag ``supports_multichannel``.
    seed_policy:
        ``"per-point"`` derives an independent seed per grid point (sweep
        points are statistically independent); ``"shared"`` reuses the run
        seed at every point (common-random-number comparisons).
    trial_mode:
        ``"naive"`` (default) is plain Monte Carlo; ``"importance"`` runs
        the likelihood-weighted rare-event estimator (the backend must flag
        ``supports_importance``).
    ci_target:
        Optional adaptive-budget target: a point keeps simulating whole
        chunks until the 95 % CI half-width of its first confidence-bearing
        metric drops to this value (``bits_per_point`` becomes the size of
        the first installment rather than the total).
    max_symbols:
        Optional hard cap on the symbols an adaptive point may simulate
        before giving up on ``ci_target``.
    kernel:
        Optional compute-kernel name (see :func:`repro.kernels.get_kernel`)
        pinned into every point's link; ``None`` (default) defers to
        ``$REPRO_KERNEL`` / ``"auto"`` at detection time.  Kernels are
        bit-identical by contract, so the choice never changes a report —
        only how fast it is produced.  Requires a backend whose capabilities
        flag ``supports_kernel``.
    """

    name: str
    description: str = ""
    link_overrides: Mapping[str, Any] = field(default_factory=dict)
    sweep_axes: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    metrics: Tuple[str, ...] = ("ber", "symbol_error_rate", "throughput")
    bits_per_point: int = 4_096
    backend: str = "batch"
    channels: int = 1
    seed_policy: str = "per-point"
    trial_mode: str = "naive"
    ci_target: Optional[float] = None
    max_symbols: Optional[int] = None
    kernel: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        object.__setattr__(self, "link_overrides", dict(self.link_overrides))
        object.__setattr__(
            self,
            "sweep_axes",
            {name: tuple(values) for name, values in dict(self.sweep_axes).items()},
        )
        object.__setattr__(self, "metrics", tuple(self.metrics))
        known = set(_known_parameters())
        for source, names in (
            ("link_overrides", self.link_overrides),
            ("sweep_axes", self.sweep_axes),
        ):
            unknown = sorted(set(names) - known)
            if unknown:
                raise ValueError(
                    f"{source} references unknown parameter(s) {', '.join(unknown)}; "
                    f"known: {', '.join(sorted(known))}"
                )
        for name, values in self.sweep_axes.items():
            if len(values) == 0:
                raise ValueError(f"sweep axis {name!r} has no values")
        overlap = sorted(set(self.link_overrides) & set(self.sweep_axes))
        if overlap:
            raise ValueError(f"parameter(s) both overridden and swept: {', '.join(overlap)}")
        declared = set(self.link_overrides) | set(self.sweep_axes)
        # Each LinkConfig and derived value is checked on its own (type, NaN,
        # ranges), so a hostile override or sweep value fails here rather
        # than mid-run.
        for name in sorted(declared & set(_CONFIG_FIELDS)):
            for value in self._declared_values(name):
                try:
                    LinkConfig(**{name: value})
                except TypeError:  # a string or null from a scenario file
                    raise ValueError(f"{name} must be a number, got {value!r}") from None
        for name in sorted(declared & set(SPECIAL_PARAMETERS)):
            types, test, what = _SPECIAL_CHECKS[name]
            for value in self._declared_values(name):
                if isinstance(value, bool) or not isinstance(value, types) or not test(value):
                    raise ValueError(f"{name} must be {what}, got {value!r}")
        if "stack_thickness" in declared and "stack_dies" not in declared:
            raise ValueError(
                "stack_thickness has no effect without stack_dies "
                "(no die-stack channel is built)"
            )
        require_positive_int("channels", self.channels)
        crosstalk_keys = declared & {"crosstalk_pitch", "crosstalk_floor"}
        if crosstalk_keys and self.channels < 2:
            raise ValueError(
                f"{', '.join(sorted(crosstalk_keys))} has no effect with a "
                f"single channel; set channels > 1"
            )
        if "crosstalk_floor" in declared and "crosstalk_pitch" not in declared:
            raise ValueError(
                "crosstalk_floor has no effect without crosstalk_pitch "
                "(no crosstalk model is built)"
            )
        if self.channels > 1 and not backend_capabilities(self.backend).supports_multichannel:
            raise ValueError(
                f"backend {self.backend!r} does not support multiple channels; "
                f"use a multichannel-capable backend (e.g. 'multichannel')"
            )
        noc_keys = declared & set(NOC_PARAMETERS)
        noc_metrics = sorted(set(self.metrics) & set(NOC_METRICS))
        if noc_metrics and not noc_keys:
            raise ValueError(
                f"metric(s) {', '.join(noc_metrics)} measure NoC bus traffic; "
                f"declare a noc_* parameter (e.g. noc_traffic) or drop them"
            )
        if noc_keys:
            if self.channels > 1:
                raise ValueError(
                    "NoC scenarios manage their own channels (one per bus "
                    "span); set channels=1"
                )
            link_only = sorted(set(self.metrics) & set(LINK_ONLY_METRICS))
            if link_only:
                raise ValueError(
                    f"metric(s) {', '.join(link_only)} consume per-symbol "
                    f"counts that NoC traffic points do not carry; use the "
                    f"network metrics ({', '.join(NOC_METRICS)}) or ber"
                )
        if not self.metrics:
            raise ValueError("a scenario needs at least one metric")
        missing = sorted(set(self.metrics) - set(available_metrics()))
        if missing:
            raise ValueError(
                f"unknown metric(s) {', '.join(missing)}; "
                f"available: {', '.join(sorted(available_metrics()))}"
            )
        require_positive_int("bits_per_point", self.bits_per_point)
        resolve_backend(self.backend)  # raises on unknown names
        if self.seed_policy not in SEED_POLICIES:
            raise ValueError(
                f"seed_policy must be one of {SEED_POLICIES}, got {self.seed_policy!r}"
            )
        if self.trial_mode not in TRIAL_MODES:
            raise ValueError(
                f"trial_mode must be one of {TRIAL_MODES}, got {self.trial_mode!r}"
            )
        if self.trial_mode == "importance":
            if not backend_capabilities(self.backend).supports_importance:
                raise ValueError(
                    f"backend {self.backend!r} does not support importance "
                    f"sampling; use a backend with supports_importance "
                    f"(e.g. 'batch')"
                )
            if crosstalk_keys:
                raise ValueError(
                    "importance sampling does not support crosstalk "
                    "(interference couples channel likelihoods); drop "
                    "crosstalk_pitch/crosstalk_floor or use trial_mode='naive'"
                )
            if noc_keys:
                raise ValueError(
                    "NoC traffic points do not support importance sampling; "
                    "use trial_mode='naive'"
                )
        if self.ci_target is not None:
            target = self.ci_target
            numeric = isinstance(target, (int, float)) and not isinstance(target, bool)
            if not (numeric and 0 < target < math.inf):
                raise ValueError(f"ci_target must be a positive finite number, got {target!r}")
            if noc_keys:
                raise ValueError(
                    "adaptive ci_target budgets apply to link error statistics; "
                    "NoC traffic points do not support them"
                )
        if self.max_symbols is not None:
            require_positive_int("max_symbols", self.max_symbols)
            if self.ci_target is None:
                raise ValueError(
                    "max_symbols caps an adaptive budget and has no effect "
                    "without ci_target"
                )
        if self.kernel is not None:
            from repro.kernels import KERNEL_NAMES

            if self.kernel not in KERNEL_NAMES:
                raise ValueError(
                    f"kernel must be one of {', '.join(KERNEL_NAMES)}, "
                    f"got {self.kernel!r}"
                )
            if not backend_capabilities(self.backend).supports_kernel:
                raise ValueError(
                    f"backend {self.backend!r} does not support compute "
                    f"kernels; use a backend with supports_kernel "
                    f"(e.g. 'batch')"
                )

    def __hash__(self) -> int:
        # The generated frozen-dataclass __hash__ would raise on the dict
        # fields; hash them as (sorted) item tuples, consistently with dict
        # equality being order-insensitive.
        return hash(
            (
                self.name,
                self.description,
                tuple(sorted(self.link_overrides.items())),
                tuple(sorted(self.sweep_axes.items())),
                self.metrics,
                self.bits_per_point,
                self.backend,
                self.channels,
                self.seed_policy,
                self.trial_mode,
                self.ci_target,
                self.max_symbols,
                self.kernel,
            )
        )

    # -- grid --------------------------------------------------------------------
    def _declared_values(self, name: str) -> Tuple[Any, ...]:
        """Every value parameter ``name`` takes on the grid (empty if undeclared)."""
        if name in self.link_overrides:
            return (self.link_overrides[name],)
        return tuple(self.sweep_axes.get(name, ()))

    @property
    def axis_names(self) -> Tuple[str, ...]:
        """Sweep axis names, in declaration order."""
        return tuple(self.sweep_axes)

    def point_count(self) -> int:
        """Number of grid points (1 for an axis-free scenario)."""
        count = 1
        for values in self.sweep_axes.values():
            count *= len(values)
        return count

    def grid(self) -> Iterator[Dict[str, Any]]:
        """Iterate the parameter combinations in deterministic axis order.

        The last axis varies fastest; an axis-free scenario yields one ``{}``.
        """
        names = self.axis_names
        for combo in itertools.product(*self.sweep_axes.values()):
            yield dict(zip(names, combo))

    def point_label(self, parameters: Mapping[str, Any]) -> str:
        """Deterministic label of one grid point (used for per-point seeding)."""
        inner = ",".join(f"{name}={parameters[name]!r}" for name in sorted(parameters))
        return f"{self.name}[{inner}]"

    # -- compilation to a concrete link -------------------------------------------
    def config_for_point(
        self, parameters: Mapping[str, Any] = ()
    ) -> Tuple[LinkConfig, Optional[OpticalChannel]]:
        """Concrete ``(LinkConfig, channel)`` for one grid point.

        Merges the scenario's overrides with the point's swept values, then
        expands the derived TDC-design and die-stack parameters.
        """
        merged: Dict[str, Any] = dict(self.link_overrides)
        merged.update(parameters)
        fine_elements = merged.pop("tdc_fine_elements", None)
        coarse_bits = merged.pop("tdc_coarse_bits", None)
        stack_dies = merged.pop("stack_dies", None)
        stack_thickness = merged.pop("stack_thickness", _DEFAULT_STACK_THICKNESS)
        # Crosstalk parameters shape the channel coupling, not the LinkConfig;
        # they are expanded by crosstalk_for_point.  NoC parameters shape the
        # bus traffic, not the LinkConfig; they are expanded by noc_for_point.
        merged.pop("crosstalk_pitch", None)
        merged.pop("crosstalk_floor", None)
        for name in NOC_PARAMETERS:
            merged.pop(name, None)

        config = LinkConfig(**merged)

        if fine_elements is not None or coarse_bits is not None:
            n = int(fine_elements) if fine_elements is not None else 64
            element_delay = config.slot_duration / 4.0
            if coarse_bits is None:
                c = 0
                while (1 << c) * n * element_delay < config.symbol_duration and c < 16:
                    c += 1
            else:
                c = int(coarse_bits)
            design = TdcDesign(fine_elements=n, coarse_bits=c, element_delay=element_delay)
            config = dataclasses.replace(config, tdc_design=design)

        channel: Optional[OpticalChannel] = None
        if stack_dies is not None:
            dies = int(stack_dies)
            if dies < 2:
                raise ValueError(f"stack_dies must be at least 2, got {dies}")
            stack = DieStack.uniform(
                count=dies, thickness=float(stack_thickness), wavelength=config.wavelength
            )
            channel = OpticalChannel(
                stack=stack, source_layer=0, destination_layer=dies - 1
            )
        return config, channel

    def crosstalk_for_point(
        self, parameters: Mapping[str, Any] = ()
    ) -> Optional[CrosstalkModel]:
        """Channel-coupling model for one grid point, or ``None``.

        A :class:`~repro.photonics.crosstalk.CrosstalkModel` is built when the
        merged parameters declare ``crosstalk_pitch`` (``crosstalk_floor``
        optionally adjusts the scattered-light floor); otherwise the
        scenario's channels are perfectly isolated.
        """
        merged: Dict[str, Any] = dict(self.link_overrides)
        merged.update(parameters)
        pitch = merged.get("crosstalk_pitch")
        if pitch is None:
            return None
        settings: Dict[str, float] = {"channel_pitch": float(pitch)}
        floor = merged.get("crosstalk_floor")
        if floor is not None:
            settings["floor"] = float(floor)
        return CrosstalkModel(**settings)

    def noc_for_point(
        self, parameters: Mapping[str, Any] = ()
    ) -> Optional[Dict[str, Any]]:
        """NoC traffic settings for one grid point, or ``None``.

        A point is a NoC traffic point when the merged parameters declare any
        ``noc_*`` key; the returned mapping carries the traffic pattern,
        offered load, packet payload size and the bus topology parameters
        (``stack_dies``/``stack_thickness``), with documented defaults for
        whatever was left unspecified.  ``None`` means a plain link point.
        """
        merged: Dict[str, Any] = dict(self.link_overrides)
        merged.update(parameters)
        if not any(name in merged for name in NOC_PARAMETERS):
            return None
        settings = {
            "traffic": str(merged.get("noc_traffic", "uniform")),
            "offered_load": float(merged.get("noc_offered_load", 0.5)),
            "packet_bits": int(merged.get("noc_packet_bits", 64)),
            "stack_dies": int(merged.get("stack_dies", 4)),
            "stack_thickness": float(merged.get("stack_thickness", _DEFAULT_STACK_THICKNESS)),
        }
        if settings["stack_dies"] < 2:
            raise ValueError(f"stack_dies must be at least 2, got {settings['stack_dies']}")
        return settings

    # -- serialisation -------------------------------------------------------------
    def to_mapping(self) -> Dict[str, Any]:
        """Plain-data form of the scenario (JSON-serialisable).

        The rare-event and kernel fields (``trial_mode``, ``ci_target``,
        ``max_symbols``, ``kernel``) are emitted only when they differ from
        their defaults, so the canonical mapping — and every digest derived
        from it — of a pre-existing naive scenario is unchanged.
        """
        mapping = {
            "name": self.name,
            "description": self.description,
            "link_overrides": dict(self.link_overrides),
            "sweep_axes": {name: list(values) for name, values in self.sweep_axes.items()},
            "metrics": list(self.metrics),
            "bits_per_point": self.bits_per_point,
            "backend": self.backend,
            "channels": self.channels,
            "seed_policy": self.seed_policy,
        }
        if self.trial_mode != "naive":
            mapping["trial_mode"] = self.trial_mode
        if self.ci_target is not None:
            mapping["ci_target"] = self.ci_target
        if self.max_symbols is not None:
            mapping["max_symbols"] = self.max_symbols
        if self.kernel is not None:
            mapping["kernel"] = self.kernel
        return mapping

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "Scenario":
        """Inverse of :meth:`to_mapping`; rejects unknown keys."""
        data = dict(mapping)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown scenario key(s): {', '.join(unknown)}")
        if "name" not in data:
            raise ValueError("a scenario mapping needs a 'name'")
        return cls(**data)

    # -- convenience ----------------------------------------------------------------
    def with_budget(self, bits_per_point: int) -> "Scenario":
        """Copy with a different per-point bit budget (smoke runs, scaling up)."""
        return dataclasses.replace(self, bits_per_point=bits_per_point)

    def with_backend(self, backend: str) -> "Scenario":
        """Copy targeting a different registered link backend."""
        return dataclasses.replace(self, backend=backend)

    def with_channels(self, channels: int) -> "Scenario":
        """Copy running a different number of parallel channels."""
        return dataclasses.replace(self, channels=channels)

    def with_kernel(self, kernel: Optional[str]) -> "Scenario":
        """Copy pinned to a compute kernel (``None`` restores the default)."""
        return dataclasses.replace(self, kernel=kernel)

    def with_trial_mode(
        self,
        trial_mode: str,
        ci_target: Optional[float] = None,
        max_symbols: Optional[int] = None,
    ) -> "Scenario":
        """Copy running a different trial mode and/or adaptive budget.

        ``ci_target``/``max_symbols`` replace the scenario's values when
        given and are kept otherwise, so a naive scenario can be switched to
        the rare-event estimator in one call.
        """
        return dataclasses.replace(
            self,
            trial_mode=trial_mode,
            ci_target=ci_target if ci_target is not None else self.ci_target,
            max_symbols=max_symbols if max_symbols is not None else self.max_symbols,
        )
