"""Link-backend protocol and registry — the package's front door for links.

The package has two link engines: the vectorised batch
:class:`~repro.core.fastlink.FastOpticalLink` and the SPAD-array
:class:`~repro.core.multilink.MultichannelOpticalLink`.  Instead of every
consumer hard-coding which class it instantiates, this module defines the
:class:`LinkBackend` protocol the engines satisfy, a registry of named
backends with :class:`BackendCapabilities` flags, and the :func:`make_link`
factory that all library code (``repro.core.ber``,
``repro.simulation.montecarlo``, ``repro.noc``, ``repro.scenarios``) and all
examples/benchmarks construct links through.

Backend contract
----------------
Every backend simulates the same physics (same models, same distributions,
same decision rules) and is individually deterministic per seed, but backends
are only required to be *statistically* equivalent to one another — not
draw-for-draw identical.  The ``"batch"`` backend (alias ``"fast"``) is the
default and the one every Monte-Carlo-scale consumer should run; the
``"multichannel"`` backend (alias ``"array"``) widens the batch pass to
``channels`` parallel links with optional optical crosstalk.  The reference
both are held to is exact: the detector-state chain of
``tests/_oracles.py::link_error_oracle`` (``tests/test_link_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Protocol, Sequence, Tuple, runtime_checkable

from repro.core.config import LinkConfig
from repro.core.fastlink import FastOpticalLink
from repro.core.link import TransmissionResult
from repro.core.multilink import MultichannelOpticalLink
from repro.photonics.channel import OpticalChannel
from repro.photonics.crosstalk import CrosstalkModel
from repro.spad.device import ImportanceSettings


@dataclass(frozen=True)
class BackendCapabilities:
    """What a registered link backend can do.

    Attributes
    ----------
    supports_multichannel:
        The backend accepts ``channels=``/``crosstalk=`` and simulates
        ``(symbols, channels)`` SPAD-array passes — the 64x64 imager of
        ref [5] — as the ``"multichannel"`` backend does.
    supports_importance:
        The backend accepts ``importance=``
        (:class:`~repro.spad.device.ImportanceSettings`) and produces
        likelihood-weighted rare-event transmissions whose weighted error
        statistics are unbiased estimates of the naive path's.
    """

    supports_multichannel: bool = False
    supports_importance: bool = False


@runtime_checkable
class LinkBackend(Protocol):
    """Structural protocol every link backend implements.

    Both :class:`~repro.core.fastlink.FastOpticalLink` and
    :class:`~repro.core.multilink.MultichannelOpticalLink` satisfy it;
    third-party backends registered through :func:`register_backend` must as
    well.
    ``transmit_bits`` takes a list or array of 0/1, and the returned
    :class:`~repro.core.link.TransmissionResult` carries ``transmitted_bits``
    and ``received_bits`` as 1-D ``np.uint8`` arrays of payload length, and
    per symbol ``decoded_values`` and ``symbol_bit_errors``; a backend that
    gives only the bits gets the per-symbol fields derived from them.
    """

    config: LinkConfig

    def transmit_bits(self, bits: Sequence[int]) -> TransmissionResult: ...

    def transmit_random(self, bit_count: int, payload_seed: int = 1234) -> TransmissionResult: ...

    def mean_photons_at_detector(self) -> float: ...

    def raw_bit_rate(self) -> float: ...


# A backend factory mirrors the OpticalLink constructor signature:
# factory(config, channel=..., seed=...) -> LinkBackend.
BackendFactory = Callable[..., LinkBackend]


@dataclass(frozen=True)
class _BackendEntry:
    name: str
    factory: BackendFactory
    capabilities: BackendCapabilities


_REGISTRY: Dict[str, _BackendEntry] = {}
_ALIASES: Dict[str, str] = {}

DEFAULT_BACKEND = "batch"


def register_backend(
    name: str,
    factory: BackendFactory,
    capabilities: BackendCapabilities,
    aliases: Sequence[str] = (),
    replace: bool = False,
) -> None:
    """Register a link backend under ``name`` (plus optional aliases).

    ``factory`` must accept the :class:`~repro.core.link.OpticalLink`
    constructor signature ``(config, channel=None, seed=0)``.  Registering an
    already-taken name (or alias) raises unless ``replace=True``.
    """
    if not name:
        raise ValueError("backend name must be non-empty")
    taken = set(_REGISTRY) | set(_ALIASES)
    requested = {name, *aliases}
    if not replace and requested & taken:
        clash = sorted(requested & taken)
        raise ValueError(f"backend name(s) already registered: {', '.join(clash)}")
    for alias in list(_ALIASES):
        if replace and (_ALIASES[alias] == name or alias in requested):
            del _ALIASES[alias]
    _REGISTRY[name] = _BackendEntry(name=name, factory=factory, capabilities=capabilities)
    for alias in aliases:
        _ALIASES[alias] = name


def available_backends() -> Tuple[str, ...]:
    """Canonical names of every registered backend, in registration order."""
    return tuple(_REGISTRY)


def resolve_backend(backend: Optional[str]) -> str:
    """Resolve a backend name or alias to its canonical name.

    ``None`` resolves to the default (``"batch"``).  Unknown names raise a
    :class:`ValueError` listing what is available.
    """
    if backend is None:
        backend = DEFAULT_BACKEND
    if not isinstance(backend, str):
        raise TypeError(f"backend must be a string or None, got {type(backend).__name__}")
    name = _ALIASES.get(backend, backend)
    if name not in _REGISTRY:
        known = ", ".join(sorted(set(_REGISTRY) | set(_ALIASES)))
        raise ValueError(f"unknown link backend {backend!r}; available: {known}")
    return name


def backend_capabilities(backend: Optional[str] = None) -> BackendCapabilities:
    """Capability flags of a registered backend (default backend when ``None``)."""
    return _REGISTRY[resolve_backend(backend)].capabilities


def make_link(
    config: Optional[LinkConfig] = None,
    backend: Optional[str] = None,
    *,
    channel: Optional[OpticalChannel] = None,
    seed: int = 0,
    channels: Optional[int] = None,
    crosstalk: Optional[CrosstalkModel] = None,
    channel_gains: Optional[Sequence[float]] = None,
    importance: Optional[ImportanceSettings] = None,
) -> LinkBackend:
    """Construct a link through the backend registry.

    This factory is the package's only link front door — library code,
    examples and benchmarks never name an engine class directly.

    Parameters
    ----------
    config:
        Link configuration; the default :class:`LinkConfig` when ``None``.
    backend:
        Registered backend name (``"batch"``, ``"multichannel"``) or alias
        (``"fast"``, ``"array"``); ``None`` selects the default batch engine.
    channel:
        Optional optical channel, forwarded to the backend factory.
    seed:
        Seed for all stochastic behaviour of the constructed link.
    channels:
        Number of parallel channels; only backends whose capabilities flag
        ``supports_multichannel`` accept more than one.
    crosstalk:
        Optional :class:`~repro.photonics.crosstalk.CrosstalkModel` coupling
        the parallel channels (multichannel backends only).
    channel_gains:
        Optional per-channel optical power gains (multichannel backends
        only): channel ``c`` sees the link budget scaled by
        ``channel_gains[c]`` — one ``(S, C)`` pass over receivers at
        *different* attenuations, e.g. the dies of a broadcast column.
    importance:
        Optional :class:`~repro.spad.device.ImportanceSettings` switching
        the link to importance-sampled rare-event transmission; only
        backends whose capabilities flag ``supports_importance`` accept it.

    >>> link = make_link(backend="batch", seed=1)
    >>> link.transmit_bits([1, 0, 1, 1]).symbols_sent
    1
    >>> make_link(backend="multichannel", channels=8, seed=1).channels
    8
    """
    entry = _REGISTRY[resolve_backend(backend)]
    resolved_config = config if config is not None else LinkConfig()
    if importance is not None and not entry.capabilities.supports_importance:
        raise ValueError(
            f"backend {entry.name!r} does not support importance sampling; "
            f"use a backend with supports_importance (e.g. 'batch')"
        )
    extra = {} if importance is None else {"importance": importance}
    if entry.capabilities.supports_multichannel:
        return entry.factory(
            resolved_config,
            channel=channel,
            seed=seed,
            channels=channels if channels is not None else 1,
            crosstalk=crosstalk,
            channel_gains=channel_gains,
            **extra,
        )
    if channels not in (None, 1) or crosstalk is not None or channel_gains is not None:
        raise ValueError(
            f"backend {entry.name!r} does not support multiple channels, "
            f"crosstalk or per-channel gains; use a backend with "
            f"supports_multichannel (e.g. 'multichannel')"
        )
    return entry.factory(resolved_config, channel=channel, seed=seed, **extra)


register_backend(
    "batch",
    FastOpticalLink,
    BackendCapabilities(supports_importance=True),
    aliases=("fast",),
)
register_backend(
    "multichannel",
    MultichannelOpticalLink,
    BackendCapabilities(supports_multichannel=True, supports_importance=True),
    aliases=("array",),
)
