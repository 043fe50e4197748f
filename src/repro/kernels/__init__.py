"""Pluggable compute kernels for the simulator's sequential hot loops.

The per-core ceiling of the simulator is set by three loops that resist
NumPy vectorisation because each iteration depends on detector/arbiter state
carried from the previous one: the dead-time winner scan of
:meth:`~repro.spad.device.SpadDevice.detect_in_windows`, the per-channel
window resolution behind
:func:`~repro.spad.array.detect_in_windows_multichannel`, and the per-slot
:meth:`~repro.noc.arbitration.RoundRobinArbiter.grant` walk of
:meth:`~repro.noc.bus.OpticalBus.run`.  This package makes those loops
*pluggable*: callers resolve a :class:`Kernel` by name and the engine
dispatches through it.  :mod:`repro.kernels.reference` defines the semantics
of the scan and the resolver, and every registered implementation is locked
bit-identical to it by ``tests/test_kernels.py`` and
``scripts/regression_check.py``.

Kernels
-------
``"python"``
    The reference scan (:mod:`repro.kernels.reference`) and the
    speculate-then-correct resolver (:mod:`repro.kernels.speculative`).
    Always available.
``"vector"``
    The ``"python"`` loops plus the vectorised arbitration schedule of
    :mod:`repro.kernels.arbitration`.  Always available; the fallback for
    hosts without a C compiler.
``"cext"``
    ctypes-bound C ports of the scan and the resolver, compiled on first use
    with the host toolchain (:mod:`repro.kernels.cext`), plus the vectorised
    arbitration.  Registered only when a C compiler is available and the
    build succeeds.
``"auto"``
    Not a kernel but a resolution rule: the fastest available tier,
    preferring ``cext`` > ``vector`` > ``python``.

Selection order: an explicit ``kernel=`` argument (threaded through
``make_link``, ``Scenario``, the CLI ``--kernel`` flag and the service) beats
the ``REPRO_KERNEL`` environment variable, which beats the ``"auto"``
default.  Naming an unavailable kernel falls back to ``"python"`` with a
one-time :class:`RuntimeWarning` — runs degrade, they don't die.

The ``cext`` tier releases the GIL while a chunk is inside a kernel, which
is what makes :class:`~repro.scenarios.executors.ThreadExecutor` worthwhile:
threads run grid points genuinely in parallel with zero pickling/IPC cost.

This package is a leaf — it imports NumPy and nothing from the rest of
:mod:`repro`, so any layer (including ``Scenario`` validation) can import it
without cycles.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Optional, Tuple

from . import arbitration as _arbitration
from . import reference as _reference
from . import speculative as _speculative

__all__ = [
    "KERNEL_NAMES",
    "Kernel",
    "available_kernels",
    "get_kernel",
    "round_robin_schedule",
]

#: Every name ``get_kernel`` accepts (``"auto"`` resolves, the rest select).
KERNEL_NAMES: Tuple[str, ...] = ("auto", "python", "vector", "cext")

#: ``"auto"`` preference order, fastest first.
_AUTO_ORDER: Tuple[str, ...] = ("cext", "vector", "python")

round_robin_schedule = _arbitration.round_robin_schedule


@dataclass(frozen=True)
class Kernel:
    """One named set of hot-loop implementations.

    Every kernel runs the device scan (``scan_windows``) and the multichannel
    window resolution (``resolve_windows``).  ``arbitrate`` is ``None`` when
    the kernel has no schedule-at-once arbitration — the bus then keeps its
    per-slot grant loop.
    """

    name: str
    scan_windows: Callable = field(repr=False)
    resolve_windows: Callable = field(repr=False)
    arbitrate: Optional[Callable] = field(default=None, repr=False)


@lru_cache(maxsize=1)
def _registry() -> Dict[str, Kernel]:
    kernels: Dict[str, Kernel] = {
        "python": Kernel(
            name="python",
            scan_windows=_reference.scan_windows,
            resolve_windows=_speculative.resolve_windows,
        ),
        "vector": Kernel(
            name="vector",
            scan_windows=_reference.scan_windows,
            resolve_windows=_speculative.resolve_windows,
            arbitrate=round_robin_schedule,
        ),
    }
    from . import cext as _cext

    native = _cext.load()
    if native is not None:
        kernels["cext"] = Kernel(
            name="cext",
            scan_windows=native.scan_windows,
            resolve_windows=native.resolve_windows,
            arbitrate=round_robin_schedule,
        )
    return kernels


def available_kernels() -> Tuple[str, ...]:
    """Names of the kernels usable in this environment, in registry order."""
    return tuple(_registry())


@lru_cache(maxsize=None)
def _warn_unavailable(requested: str) -> None:
    warnings.warn(
        f"kernel {requested!r} is not available in this environment "
        f"(available: {', '.join(available_kernels())}); "
        "falling back to the 'python' kernel",
        RuntimeWarning,
        stacklevel=3,
    )


def get_kernel(name: Optional[str] = None) -> Kernel:
    """Resolve a kernel by name, environment, or ``"auto"`` preference.

    ``name=None`` defers to ``$REPRO_KERNEL``, and absent that to
    ``"auto"`` — which picks the fastest registered tier.  Unknown names
    raise :class:`ValueError`; known-but-unavailable names (``"cext"`` on a
    host without a C compiler) fall back to ``"python"`` with a one-time
    :class:`RuntimeWarning`.
    """
    requested = name or os.environ.get("REPRO_KERNEL") or "auto"
    if requested not in KERNEL_NAMES:
        raise ValueError(
            f"unknown kernel {requested!r}; expected one of {', '.join(KERNEL_NAMES)}"
        )
    registry = _registry()
    if requested == "auto":
        for candidate in _AUTO_ORDER:
            if candidate in registry:
                return registry[candidate]
    kernel = registry.get(requested)
    if kernel is None:
        _warn_unavailable(requested)
        return registry["python"]
    return kernel
