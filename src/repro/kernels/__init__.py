"""Pluggable compute kernels for the simulator's hot loops.

The per-core ceiling of the simulator is set by two loops that resist
NumPy vectorisation because each iteration depends on detector/arbiter state
carried from the previous one: the dead-time winner scan behind
:meth:`~repro.spad.device.SpadDevice.detect_in_windows` and
:func:`~repro.spad.array.detect_in_windows_multichannel`, and the
round-robin arbitration of :meth:`~repro.noc.bus.OpticalBus.run`.  This
package makes those loops *pluggable*: the engines resolve a :class:`Kernel`
with :func:`get_kernel` where they run and dispatch through it.
:mod:`repro.kernels.reference` defines the semantics of the scan, and every
registered implementation is locked bit-identical to it by
``tests/test_kernels.py`` and ``scripts/regression_check.py``.

The scan takes optional **segment starts**: at each one the device restarts
armed and trap-free and the window clock restarts at ``base``, so one call
scans many independent links back to back
(:func:`~repro.spad.device.detect_in_segments`, which the NoC bus uses for
a run's unicast groups, a segment per epoch and link) or every channel of
an array, channel-major.
Without segments it is the plain scan, bit for bit.  It takes optional
per-window **likelihood factors** and then returns the importance weights
too, and optional **candidate origins**, so an array pass lists its
crosstalk candidates beside its dark counts: one state machine serves
single devices and whole arrays, naive or importance-sampled.

The third kernel, the detection decode (``decode_windows``: two-level TDC
and PPM slot decision over every window), is not a sequential loop; every
window decodes on its own.  It is a kernel because NumPy costs time per
pass and per call: the decode is about 20 array passes, whatever the
number of windows.  It takes optional segment starts too, with one TDC
(taps, LSB, clock period, modulus) per segment and each segment's windows
counted from 0, as the segmented scan clocks them: a NoC bus run's
groups, each on its link's receiver, decode in one call.  Its NumPy form in
:mod:`repro.kernels.reference` is also the body of
``TimeToDigitalConverter.convert_array`` and ``SlotGrid.slots_of_times``.

Every tier arbitrates with the same exact walk,
:func:`repro.kernels.arbitration.round_robin_schedule`, so the bus has one
arbitration path.

Kernels
-------
``"python"``
    The reference scan and decode (:mod:`repro.kernels.reference`).  Always
    available.
``"vector"``
    The same three functions as ``"python"``.  The name stays accepted by
    ``$REPRO_KERNEL``; it is the ``"auto"`` pick on hosts without a C
    compiler.
``"cext"``
    ctypes-bound C ports of the scan and the decode, compiled on first use
    with the host toolchain (:mod:`repro.kernels.cext`).
    Registered only when a C compiler is available and the build succeeds.
``"auto"``
    Not a kernel but a resolution rule: the fastest available tier,
    preferring ``cext`` > ``vector`` > ``python``.

Selection: the ``REPRO_KERNEL`` environment variable, else ``"auto"``, read
each time the scan, the decode or the arbitration runs.  It is the only
selector: no scenario, link, CLI flag or service request names a kernel,
so the choice never enters a report, a digest or a cache key.
:func:`get_kernel` also takes a name, for benchmarks and tier-comparison
tests.  Naming an unavailable kernel falls back to ``"python"`` with a
one-time :class:`RuntimeWarning` — runs degrade, they don't die.

The ``cext`` tier releases the GIL while a chunk is inside a kernel, which
is what makes :class:`~repro.scenarios.executors.ThreadExecutor` worthwhile:
threads run grid points genuinely in parallel with zero pickling/IPC cost.

This package is a leaf — it imports NumPy and nothing from the rest of
:mod:`repro`, so any layer can import it without cycles.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Optional, Tuple

from . import arbitration as _arbitration
from . import reference as _reference

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

    Every kernel runs the detection scan (``scan_windows``: single devices
    and, a segment per channel, whole arrays, weighted under importance
    sampling), the bus arbitration (``arbitrate``,
    :func:`round_robin_schedule` on every tier) and the detection decode
    (``decode_windows``).  The decode is no sequential loop; it is here
    because its NumPy form pays per pass and per call.
    """

    name: str
    scan_windows: Callable = field(repr=False)
    arbitrate: Callable = field(repr=False)
    decode_windows: Callable = field(repr=False)

    #: Not a kernel function: ``perfbench/spans.py`` reads this name from
    #: every kernel (its ``KERNEL_FIELDS``) and skips a ``None``.  It goes
    #: when that list drops the entry.
    resolve_windows = None


@lru_cache(maxsize=1)
def _registry() -> Dict[str, Kernel]:
    kernels: Dict[str, Kernel] = {
        "python": Kernel(
            name="python",
            scan_windows=_reference.scan_windows,
            arbitrate=round_robin_schedule,
            decode_windows=_reference.decode_windows,
        ),
        "vector": Kernel(
            name="vector",
            scan_windows=_reference.scan_windows,
            arbitrate=round_robin_schedule,
            decode_windows=_reference.decode_windows,
        ),
    }
    from . import cext as _cext

    native = _cext.load()
    if native is not None:
        kernels["cext"] = Kernel(
            name="cext",
            scan_windows=native.scan_windows,
            arbitrate=round_robin_schedule,
            decode_windows=native.decode_windows,
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
