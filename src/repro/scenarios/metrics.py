"""Metric registry for scenario experiments.

A metric maps the aggregated outcome of one experiment point — payload bits,
bit/symbol error counts, detection breakdown, the point's link configuration —
to a single float, optionally with a 95 % confidence half-width.  Scenarios
name their metrics as strings; the registry resolves them so that scenario
definitions stay declarative (and serialisable) while new figures of merit can
be plugged in without touching the runner.

The error counts come from the links' per-symbol receiver reports
(:attr:`~repro.core.link.TransmissionResult.symbol_bit_errors`, counted by
:func:`repro.modulation.symbols.symbol_bit_errors`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.analysis.statistics import binomial_confidence_95, weighted_mean_confidence_95
from repro.core.config import LinkConfig


@dataclass(frozen=True)
class PointOutcome:
    """Aggregated Monte-Carlo outcome of one experiment point.

    Produced by the :class:`~repro.scenarios.runner.ExperimentRunner` from the
    chunked batch transmissions; consumed by the registered metric functions.
    ``bits``/``bit_errors`` always aggregate over every channel; multichannel
    points additionally carry the per-channel split (``channel_bits`` /
    ``channel_bit_errors``) that the per-channel metric variants consume.

    NoC traffic points (scenarios with ``noc_*`` parameters) also carry a
    ``noc`` mapping of aggregated bus counters — ``packets_offered``,
    ``packets_delivered``, ``packets_corrupted``, ``good_bits``,
    ``busy_slots``, ``total_slots``, ``total_latency`` — consumed by the
    network metrics (``delivery_ratio``, ``mean_latency``,
    ``bus_utilisation``, ``saturation_throughput``).  ``noc`` is ``None`` for
    plain link points.

    Importance-sampled points (``trial_mode="importance"`` scenarios) carry
    the likelihood-weighted error accumulators: ``weighted_error_sum`` /
    ``weighted_error_sumsq`` are Σ(wᵢ·biterrᵢ) and Σ(wᵢ·biterrᵢ)² over the
    per-symbol samples, ``weighted_symbol_error_sum`` / ``_sumsq`` the same
    for the symbol-error indicator, and ``error_strata`` splits the weighted
    bit-error mass by the winning :class:`~repro.spad.device.DetectionOrigin`
    (plus ``"missed"``).  The raw count fields then hold the *unweighted*
    proposal-measure counts; ``ber``/``symbol_error_rate``/``goodput``
    automatically switch to the weighted estimator and its variance-based CI.
    """

    config: LinkConfig
    bits: int
    bit_errors: int
    symbols: int
    symbol_errors: int
    detection_counts: Mapping[str, int] = field(default_factory=dict)
    channels: int = 1
    channel_bits: Tuple[int, ...] = ()
    channel_bit_errors: Tuple[int, ...] = ()
    noc: Optional[Mapping[str, float]] = None
    weighted_error_sum: Optional[float] = None
    weighted_error_sumsq: Optional[float] = None
    weighted_symbol_error_sum: Optional[float] = None
    weighted_symbol_error_sumsq: Optional[float] = None
    error_strata: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.bits < 0 or self.symbols < 0:
            # Zero bits/symbols is a valid *empty* outcome (a zero-offered-load
            # NoC grid point); ratio metrics on it are NaN, never an error.
            raise ValueError("bits and symbols must be non-negative")
        if not 0 <= self.bit_errors <= self.bits:
            raise ValueError("bit_errors must be within [0, bits]")
        if not 0 <= self.symbol_errors <= self.symbols:
            raise ValueError("symbol_errors must be within [0, symbols]")
        if self.channels < 1:
            raise ValueError("channels must be at least 1")
        object.__setattr__(self, "channel_bits", tuple(self.channel_bits))
        object.__setattr__(self, "channel_bit_errors", tuple(self.channel_bit_errors))
        if self.noc is not None:
            object.__setattr__(self, "noc", dict(self.noc))
        object.__setattr__(self, "error_strata", dict(self.error_strata))
        if len(self.channel_bits) != len(self.channel_bit_errors):
            raise ValueError("channel_bits and channel_bit_errors must pair up")
        for errors, bits in zip(self.channel_bit_errors, self.channel_bits):
            if not 0 <= errors <= bits:
                raise ValueError("per-channel bit_errors must be within [0, bits]")
        weighted = (
            self.weighted_error_sum,
            self.weighted_error_sumsq,
            self.weighted_symbol_error_sum,
            self.weighted_symbol_error_sumsq,
        )
        if any(value is not None for value in weighted) and any(
            value is None for value in weighted
        ):
            raise ValueError(
                "importance outcomes need all four weighted accumulators "
                "(weighted_error_sum/_sumsq, weighted_symbol_error_sum/_sumsq)"
            )

    @property
    def is_weighted(self) -> bool:
        """Whether this outcome carries importance-sampled accumulators."""
        return self.weighted_error_sum is not None

    @property
    def missed(self) -> int:
        return int(self.detection_counts.get("missed", 0))

    def merge(self, other: "PointOutcome") -> "PointOutcome":
        """Combine two disjoint-sample outcomes of the same grid point.

        The adaptive-budget primitive: every count and accumulator is the sum
        over both sample sets, so merging round ``n``'s installment into the
        running outcome reproduces exactly the outcome a single longer run
        would have produced.  Both outcomes must be of the same kind (naive
        with naive, weighted with weighted); NoC outcomes do not merge.
        """
        if self.is_weighted != other.is_weighted:
            raise ValueError("cannot merge naive and importance outcomes")
        if self.noc is not None or other.noc is not None:
            raise ValueError("NoC traffic outcomes do not support merging")
        if self.channels != other.channels:
            raise ValueError("cannot merge outcomes with different channel counts")
        counts: Dict[str, int] = dict(self.detection_counts)
        for key, value in other.detection_counts.items():
            counts[key] = counts.get(key, 0) + int(value)
        strata: Dict[str, float] = dict(self.error_strata)
        for key, value in other.error_strata.items():
            strata[key] = strata.get(key, 0.0) + float(value)
        if self.channel_bits and other.channel_bits:
            if len(self.channel_bits) != len(other.channel_bits):
                raise ValueError("cannot merge mismatched per-channel splits")
            channel_bits = tuple(
                a + b for a, b in zip(self.channel_bits, other.channel_bits)
            )
            channel_bit_errors = tuple(
                a + b for a, b in zip(self.channel_bit_errors, other.channel_bit_errors)
            )
        else:
            channel_bits = self.channel_bits or other.channel_bits
            channel_bit_errors = self.channel_bit_errors or other.channel_bit_errors

        def add(a: Optional[float], b: Optional[float]) -> Optional[float]:
            return None if a is None else a + b

        return PointOutcome(
            config=self.config,
            bits=self.bits + other.bits,
            bit_errors=self.bit_errors + other.bit_errors,
            symbols=self.symbols + other.symbols,
            symbol_errors=self.symbol_errors + other.symbol_errors,
            detection_counts=counts,
            channels=self.channels,
            channel_bits=channel_bits,
            channel_bit_errors=channel_bit_errors,
            weighted_error_sum=add(self.weighted_error_sum, other.weighted_error_sum),
            weighted_error_sumsq=add(
                self.weighted_error_sumsq, other.weighted_error_sumsq
            ),
            weighted_symbol_error_sum=add(
                self.weighted_symbol_error_sum, other.weighted_symbol_error_sum
            ),
            weighted_symbol_error_sumsq=add(
                self.weighted_symbol_error_sumsq, other.weighted_symbol_error_sumsq
            ),
            error_strata=strata,
        )

    def to_accumulator_mapping(self) -> Dict[str, Any]:
        """Plain-data form of the *accumulated state* (adaptive checkpoints).

        Everything except ``config`` and ``noc`` — the link configuration is
        derivable from the scenario and the point parameters, and NoC points
        never run adaptive budgets.  Weighted fields appear only on weighted
        outcomes, so naive partial records stay compact.
        """
        mapping: Dict[str, Any] = {
            "bits": self.bits,
            "bit_errors": self.bit_errors,
            "symbols": self.symbols,
            "symbol_errors": self.symbol_errors,
            "detection_counts": dict(self.detection_counts),
            "channels": self.channels,
            "channel_bits": list(self.channel_bits),
            "channel_bit_errors": list(self.channel_bit_errors),
        }
        if self.is_weighted:
            mapping["weighted_error_sum"] = self.weighted_error_sum
            mapping["weighted_error_sumsq"] = self.weighted_error_sumsq
            mapping["weighted_symbol_error_sum"] = self.weighted_symbol_error_sum
            mapping["weighted_symbol_error_sumsq"] = self.weighted_symbol_error_sumsq
            mapping["error_strata"] = dict(self.error_strata)
        return mapping

    @classmethod
    def from_accumulator_mapping(
        cls, config: LinkConfig, mapping: Mapping[str, Any]
    ) -> "PointOutcome":
        """Inverse of :meth:`to_accumulator_mapping`, given the rebuilt config."""
        data = dict(mapping)
        data["channel_bits"] = tuple(data.get("channel_bits", ()))
        data["channel_bit_errors"] = tuple(data.get("channel_bit_errors", ()))
        return cls(config=config, **data)

    def worst_channel(self) -> Tuple[int, int]:
        """``(bit_errors, bits)`` of the channel with the highest BER.

        Falls back to the aggregate counts when no per-channel split was
        recorded (single-channel backends).  Channels that carried no bits are
        skipped.
        """
        best: Optional[Tuple[float, int, int]] = None
        for errors, bits in zip(self.channel_bit_errors, self.channel_bits):
            if bits == 0:
                continue
            rate = errors / bits
            if best is None or rate > best[0]:
                best = (rate, errors, bits)
        if best is None:
            return self.bit_errors, self.bits
        return best[1], best[2]


MetricFunction = Callable[[PointOutcome], float]
ConfidenceFunction = Callable[[PointOutcome], Optional[float]]

_METRICS: Dict[str, Tuple[MetricFunction, Optional[ConfidenceFunction], bool]] = {}


def register_metric(
    name: str,
    confidence: Optional[ConfidenceFunction] = None,
    allow_nan: bool = False,
) -> Callable[[MetricFunction], MetricFunction]:
    """Decorator registering ``function`` as the metric called ``name``.

    ``confidence``, when given, computes the 95 % half-width reported next to
    the metric value (``None`` marks a deterministic metric with no
    statistical uncertainty).  ``allow_nan`` marks metrics for which ``NaN``
    is a *measurement* ("no data at this grid point" — e.g. the mean latency
    of a zero-offered-load NoC point) rather than a bug; the experiment
    runner rejects NaN from every other metric.
    """

    def decorator(function: MetricFunction) -> MetricFunction:
        if name in _METRICS:
            raise ValueError(f"metric {name!r} is already registered")
        _METRICS[name] = (function, confidence, allow_nan)
        return function

    return decorator


def available_metrics() -> Tuple[str, ...]:
    """Names of every registered metric, in registration order."""
    return tuple(_METRICS)


def resolve_metric(name: str) -> Tuple[MetricFunction, Optional[ConfidenceFunction]]:
    """Look up a metric by name, raising with the available names on a miss."""
    try:
        function, ci, _ = _METRICS[name]
        return function, ci
    except KeyError:
        known = ", ".join(sorted(_METRICS))
        raise ValueError(f"unknown metric {name!r}; available: {known}") from None


def metric_allows_nan(name: str) -> bool:
    """Whether ``NaN`` is a valid (empty-point) value for the named metric."""
    resolve_metric(name)  # raises the curated error on unknown names
    return _METRICS[name][2]


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, ``NaN`` on an empty denominator."""
    if denominator == 0:
        return float("nan")
    return numerator / denominator


def evaluate_metrics(
    names: Tuple[str, ...], outcome: PointOutcome
) -> Tuple[Dict[str, float], Dict[str, Optional[float]]]:
    """Evaluate the named metrics on ``outcome``.

    Returns ``(values, confidence)`` dicts keyed by metric name; confidence
    entries are 95 % half-widths or ``None`` for deterministic metrics.
    """
    values: Dict[str, float] = {}
    confidence: Dict[str, Optional[float]] = {}
    for name in names:
        function, ci = resolve_metric(name)
        values[name] = float(function(outcome))
        confidence[name] = None if ci is None else ci(outcome)
    return values, confidence


# -- built-in metrics -----------------------------------------------------------


def _ber_confidence(outcome: PointOutcome) -> Optional[float]:
    """95 % half-width of the BER estimate (weighted or binomial)."""
    if not outcome.bits:
        return None
    if outcome.is_weighted:
        # Per-symbol samples are w_i * biterr_i; BER is their mean divided by
        # bits-per-symbol, so the half-width scales by the same factor.
        bits_per_symbol = outcome.bits / outcome.symbols
        return (
            weighted_mean_confidence_95(
                outcome.weighted_error_sum,
                outcome.weighted_error_sumsq,
                outcome.symbols,
            )
            / bits_per_symbol
        )
    return binomial_confidence_95(outcome.bit_errors, outcome.bits)


def _ser_confidence(outcome: PointOutcome) -> Optional[float]:
    """95 % half-width of the SER estimate (weighted or binomial)."""
    if not outcome.symbols:
        return None
    if outcome.is_weighted:
        return weighted_mean_confidence_95(
            outcome.weighted_symbol_error_sum,
            outcome.weighted_symbol_error_sumsq,
            outcome.symbols,
        )
    return binomial_confidence_95(outcome.symbol_errors, outcome.symbols)


def _symbol_error_ratio(outcome: PointOutcome) -> float:
    if outcome.is_weighted:
        return _ratio(outcome.weighted_symbol_error_sum, outcome.symbols)
    return _ratio(outcome.symbol_errors, outcome.symbols)


@register_metric("ber", confidence=_ber_confidence)
def bit_error_rate(outcome: PointOutcome) -> float:
    """Fraction of payload bits decoded incorrectly.

    On importance-sampled outcomes this is the likelihood-weighted estimator
    Σ(wᵢ·biterrᵢ) / bits — an unbiased estimate of the naive-measure BER.
    """
    if outcome.is_weighted:
        return _ratio(outcome.weighted_error_sum, outcome.bits)
    return _ratio(outcome.bit_errors, outcome.bits)


@register_metric("symbol_error_rate", confidence=_ser_confidence)
def symbol_error_rate(outcome: PointOutcome) -> float:
    """Fraction of PPM symbols decoded incorrectly.

    Likelihood-weighted (Σ wᵢ·1{errᵢ} / symbols) on importance-sampled
    outcomes, matching :func:`bit_error_rate`.
    """
    return _symbol_error_ratio(outcome)


@register_metric("throughput")
def throughput(outcome: PointOutcome) -> float:
    """Raw link throughput with back-to-back symbols [bit/s] (deterministic)."""
    return outcome.config.raw_bit_rate


@register_metric(
    "goodput",
    confidence=lambda o: (
        o.config.raw_bit_rate * _ser_confidence(o) if o.symbols else None
    ),
)
def goodput(outcome: PointOutcome) -> float:
    """Throughput of correctly decoded symbols [bit/s]."""
    return outcome.config.raw_bit_rate * (1.0 - _symbol_error_ratio(outcome))


@register_metric("tdc_throughput")
def tdc_throughput(outcome: PointOutcome) -> float:
    """TP(N, C) of the receiver's effective TDC design [bit/s] (deterministic).

    The paper's Figure 4 quantity: unlike :func:`throughput`, it depends on
    the TDC design point rather than on the PPM symbol timing, so it is the
    right column for design-space-grid scenarios.
    """
    return outcome.config.effective_tdc_design().throughput


@register_metric(
    "detection_rate",
    confidence=lambda o: (
        binomial_confidence_95(o.missed, o.symbols) if o.symbols else None
    ),
)
def detection_rate(outcome: PointOutcome) -> float:
    """Fraction of measurement windows in which the SPAD reported a detection."""
    return 1.0 - _ratio(outcome.missed, outcome.symbols)


@register_metric("aggregate_throughput")
def aggregate_throughput(outcome: PointOutcome) -> float:
    """Raw throughput of all parallel channels together [bit/s] (deterministic).

    The communication-density figure of the paper's array argument: the
    per-channel raw bit rate times the number of channels running side by
    side.  Identical to :func:`throughput` for single-channel points.
    """
    return outcome.config.raw_bit_rate * outcome.channels


@register_metric(
    "worst_channel_ber",
    confidence=lambda o: binomial_confidence_95(*o.worst_channel()),
)
def worst_channel_ber(outcome: PointOutcome) -> float:
    """BER of the worst parallel channel (aggregate BER for single channels).

    Edge channels of a crosstalk-coupled array see fewer aggressors than
    centre channels, so the worst channel — not the mean — bounds the array's
    usable operating point.
    """
    errors, bits = outcome.worst_channel()
    return errors / bits


# -- NoC traffic metrics ----------------------------------------------------------
#
# Evaluated on the ``noc`` counter mapping of bus-traffic points.  All four
# are registered with ``allow_nan=True``: a zero-offered-load grid point (or
# a run in which nothing was delivered) is a valid measurement whose ratios
# are undefined, not an execution failure.

#: Metrics that only make sense on NoC traffic points; scenarios naming one
#: without declaring any ``noc_*`` parameter are rejected at construction
#: (the allow_nan escape hatch must not mask that misconfiguration).
NOC_METRICS: Tuple[str, ...] = (
    "delivery_ratio",
    "mean_latency",
    "bus_utilisation",
    "saturation_throughput",
)

#: Metrics that consume per-symbol / detection counts a NoC traffic point
#: does not carry (the bus aggregates packets, not symbol outcomes) — a NoC
#: scenario naming one would publish a fake-perfect value, so it is rejected
#: at construction instead.
LINK_ONLY_METRICS: Tuple[str, ...] = (
    "symbol_error_rate",
    "goodput",
    "detection_rate",
    "worst_channel_ber",
)


def _noc_counter(outcome: PointOutcome, key: str) -> float:
    if outcome.noc is None:
        return 0.0
    return float(outcome.noc.get(key, 0.0))


@register_metric(
    "delivery_ratio",
    confidence=lambda o: (
        binomial_confidence_95(
            int(_noc_counter(o, "packets_delivered")),
            int(_noc_counter(o, "packets_offered")),
        )
        if _noc_counter(o, "packets_offered")
        else None
    ),
    allow_nan=True,
)
def delivery_ratio(outcome: PointOutcome) -> float:
    """Fraction of offered packets delivered error-free over the bus."""
    return _ratio(
        _noc_counter(outcome, "packets_delivered"),
        _noc_counter(outcome, "packets_offered"),
    )


@register_metric("mean_latency", allow_nan=True)
def mean_latency(outcome: PointOutcome) -> float:
    """Mean arrival-to-delivery latency of delivered packets [s]."""
    return _ratio(
        _noc_counter(outcome, "total_latency"),
        _noc_counter(outcome, "packets_delivered"),
    )


@register_metric("bus_utilisation", allow_nan=True)
def bus_utilisation(outcome: PointOutcome) -> float:
    """Fraction of bus slots carrying a transmission."""
    return _ratio(
        _noc_counter(outcome, "busy_slots"), _noc_counter(outcome, "total_slots")
    )


@register_metric("saturation_throughput", allow_nan=True)
def saturation_throughput(outcome: PointOutcome) -> float:
    """Accepted traffic: delivered packet bits per second of bus time [bit/s].

    At offered loads past saturation this flattens at the bus's service
    capacity (minus the corrupted share) — the classic saturation-throughput
    figure of NoC evaluations.
    """
    elapsed = _noc_counter(outcome, "total_slots") * outcome.config.symbol_duration
    return _ratio(_noc_counter(outcome, "good_bits"), elapsed)
