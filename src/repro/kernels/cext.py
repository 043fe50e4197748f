"""The ``"cext"`` compute kernels — self-compiling C ports bound via ctypes.

A dependency-free native tier: when a C compiler is on the host (``cc`` /
``gcc`` / ``$CC``) the embedded source below is compiled once into a shared
library cached by source digest, and loaded through :mod:`ctypes`.  No build
backend, no wheels, no install step — hosts without a compiler simply don't
register the kernel and :func:`repro.kernels.get_kernel` resolves elsewhere.

Bit-identity with the Python reference is a *compiler-flag* contract: the
build pins ``-ffp-contract=off -fno-fast-math`` (no FMA contraction, strict
IEEE-754 ordering), and the loop bodies are single adds/multiplies/compares
on doubles — the exact operations CPython floats perform.  The equivalence is
locked by ``tests/test_kernels.py``.

ctypes releases the GIL for the duration of every foreign call, so these
kernels parallelise under :class:`~repro.scenarios.executors.ThreadExecutor`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

_SOURCE = r"""
#include <math.h>

void repro_scan_windows(
    long long count,
    const double *photon_rel,
    const unsigned char *photon_valid,
    const double *dark_rel,
    const long long *dark_bounds,
    const unsigned char *trap_filled,
    const double *trap_release,
    double dead_time,
    double gate_recovery,
    double duration,
    double base,
    double *state,              /* [last_fire, pending], updated in place */
    double *out_times,
    signed char *out_origins)
{
    double last_fire = state[0];
    double pending = state[1];
    long long index;
    for (index = 0; index < count; ++index) {
        double window_start = base + (double)index * duration;
        double window_end = window_start + duration;
        double ready = (window_start - last_fire >= gate_recovery)
            ? window_start : last_fire + dead_time;
        double best = INFINITY;
        int origin = -1;
        long long j;
        if (photon_valid[index]) {
            double t = window_start + photon_rel[index];
            if (t >= ready) { best = t; origin = 0; }
        }
        for (j = dark_bounds[index]; j < dark_bounds[index + 1]; ++j) {
            double t = window_start + dark_rel[j];
            if (t >= ready && t < best) { best = t; origin = 1; }
        }
        if (window_start <= pending && pending < window_end
                && pending >= ready && pending < best) {
            best = pending;
            origin = 2;
        }
        if (pending < window_end) pending = INFINITY;
        if (origin >= 0) {
            out_times[index] = best;
            out_origins[index] = (signed char)origin;
            last_fire = best;
            pending = trap_filled[index] ? best + trap_release[index] : INFINITY;
        } else {
            out_times[index] = NAN;
            out_origins[index] = -1;
        }
    }
    state[0] = last_fire;
    state[1] = pending;
}

void repro_resolve_windows(
    long long windows,
    long long channels,
    long long n_secondary,
    const double *primary,            /* (S, C) row-major */
    const double *secondary,          /* (K, S, C) row-major */
    const double *dark_rel,
    const long long *dark_bounds,     /* (S*C + 1) CSR */
    const double *background_rel,
    const long long *background_bounds,
    const unsigned char *trap_filled, /* (S, C) */
    const double *trap_release,       /* (S, C) */
    double dead_time,
    double gate_recovery,
    double duration,
    double base,
    double *out_times,
    signed char *out_origins)
{
    long long plane = windows * channels;
    long long c;
    for (c = 0; c < channels; ++c) {
        double last_fire = -INFINITY;
        double pending = INFINITY;
        long long s;
        for (s = 0; s < windows; ++s) {
            double ws = base + (double)s * duration;
            double we = ws + duration;
            double ready = (ws - last_fire >= gate_recovery)
                ? ws : last_fire + dead_time;
            double best = INFINITY;
            int origin = -1;
            long long flat = s * channels + c;
            long long j;
            int consumed;
            double t = primary[flat];
            if (isfinite(t) && t >= ready) { best = t; origin = 0; }
            for (j = 0; j < n_secondary; ++j) {
                t = secondary[j * plane + flat];
                if (t >= ready && t < best) { best = t; origin = 3; }
            }
            for (j = dark_bounds[flat]; j < dark_bounds[flat + 1]; ++j) {
                t = ws + dark_rel[j];
                if (t >= ready && t < best) { best = t; origin = 1; }
            }
            for (j = background_bounds[flat]; j < background_bounds[flat + 1]; ++j) {
                t = ws + background_rel[j];
                if (t >= ready && t < best) { best = t; origin = 3; }
            }
            if (pending >= ws && pending < we && pending >= ready && pending < best) {
                best = pending;
                origin = 2;
            }
            consumed = pending < we;
            if (origin >= 0) {
                out_times[flat] = best;
                out_origins[flat] = (signed char)origin;
                last_fire = best;
                pending = trap_filled[flat] ? best + trap_release[flat] : INFINITY;
            } else {
                out_times[flat] = NAN;
                out_origins[flat] = -1;
                if (consumed) pending = INFINITY;
            }
        }
    }
}
"""

#: IEEE-754-preserving build: optimise, but never contract into FMAs or
#: reassociate float expressions — the bit-identity contract depends on it.
_CFLAGS = ("-std=c99", "-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")

_F64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_I64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_U8 = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")
_I8 = np.ctypeslib.ndpointer(dtype=np.int8, flags="C_CONTIGUOUS")


def _cache_dir() -> Path:
    configured = os.environ.get("REPRO_CEXT_CACHE")
    if configured:
        return Path(configured)
    return Path(tempfile.gettempdir()) / "repro-kernels"


def _compiler() -> Optional[str]:
    configured = os.environ.get("CC")
    if configured:
        return configured if shutil.which(configured) else None
    return shutil.which("cc") or shutil.which("gcc")


def _build_library() -> Optional[Path]:
    """Compile (or reuse) the kernel library; ``None`` when impossible."""
    compiler = _compiler()
    if compiler is None:
        return None
    digest = hashlib.sha256((" ".join(_CFLAGS) + _SOURCE).encode()).hexdigest()[:16]
    cache = _cache_dir()
    library = cache / f"repro_kernels_{digest}.so"
    if library.exists():
        return library
    try:
        cache.mkdir(parents=True, exist_ok=True)
        # Build in a scratch dir inside the cache so the final os.replace is
        # an atomic same-filesystem rename (concurrent builders race safely).
        scratch = Path(tempfile.mkdtemp(dir=cache))
    except OSError:
        return None
    try:
        source = scratch / "repro_kernels.c"
        source.write_text(_SOURCE)
        built = scratch / library.name
        result = subprocess.run(
            [compiler, *_CFLAGS, str(source), "-o", str(built)],
            capture_output=True,
            timeout=120,
        )
        if result.returncode != 0:
            return None
        os.replace(built, library)
        return library
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


class CExtKernels:
    """Python-calling-convention wrappers over the compiled library."""

    def __init__(self, library: ctypes.CDLL) -> None:
        self._scan = library.repro_scan_windows
        self._scan.restype = None
        self._scan.argtypes = [
            ctypes.c_longlong,
            _F64, _U8, _F64, _I64, _U8, _F64,
            ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_double,
            _F64, _F64, _I8,
        ]
        self._resolve = library.repro_resolve_windows
        self._resolve.restype = None
        self._resolve.argtypes = [
            ctypes.c_longlong, ctypes.c_longlong, ctypes.c_longlong,
            _F64, _F64, _F64, _I64, _F64, _I64, _U8, _F64,
            ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_double,
            _F64, _I8,
        ]

    def scan_windows(
        self,
        photon_rel,
        photon_valid,
        dark_rel,
        dark_bounds,
        trap_filled,
        trap_release,
        dead_time,
        gate_recovery,
        duration,
        base,
        last_fire,
        pending,
    ) -> Tuple[np.ndarray, np.ndarray, float, float]:
        """Native dead-time scan (see :func:`repro.kernels.reference.scan_windows`)."""
        count = int(np.asarray(photon_rel).shape[0])
        out_times = np.empty(count, dtype=np.float64)
        out_origins = np.empty(count, dtype=np.int8)
        state = np.array([last_fire, pending], dtype=np.float64)
        self._scan(
            count,
            np.ascontiguousarray(photon_rel, dtype=np.float64),
            np.ascontiguousarray(photon_valid, dtype=np.bool_).view(np.uint8),
            np.ascontiguousarray(dark_rel, dtype=np.float64),
            np.ascontiguousarray(dark_bounds, dtype=np.int64),
            np.ascontiguousarray(trap_filled, dtype=np.bool_).view(np.uint8),
            np.ascontiguousarray(trap_release, dtype=np.float64),
            float(dead_time),
            float(gate_recovery),
            float(duration),
            float(base),
            state,
            out_times,
            out_origins,
        )
        return out_times, out_origins, float(state[0]), float(state[1])

    def resolve_windows(
        self,
        primary,
        secondary,
        dark_rel,
        dark_bounds,
        background_rel,
        background_bounds,
        trap_filled,
        trap_release,
        dead_time,
        gate_recovery,
        duration,
        base,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Native multichannel resolution (see :func:`repro.kernels.reference.resolve_windows`)."""
        primary = np.ascontiguousarray(primary, dtype=np.float64)
        windows, channels = primary.shape
        secondary = np.ascontiguousarray(secondary, dtype=np.float64)
        out_times = np.empty((windows, channels), dtype=np.float64)
        out_origins = np.empty((windows, channels), dtype=np.int8)
        self._resolve(
            int(windows),
            int(channels),
            int(secondary.shape[0]),
            primary,
            secondary,
            np.ascontiguousarray(dark_rel, dtype=np.float64),
            np.ascontiguousarray(dark_bounds, dtype=np.int64),
            np.ascontiguousarray(background_rel, dtype=np.float64),
            np.ascontiguousarray(background_bounds, dtype=np.int64),
            np.ascontiguousarray(trap_filled, dtype=np.bool_).view(np.uint8),
            np.ascontiguousarray(trap_release, dtype=np.float64),
            float(dead_time),
            float(gate_recovery),
            float(duration),
            float(base),
            out_times,
            out_origins,
        )
        return out_times, out_origins


def load() -> Optional[CExtKernels]:
    """Build/load the native kernels, or ``None`` when the host can't."""
    library_path = _build_library()
    if library_path is None:
        return None
    try:
        return CExtKernels(ctypes.CDLL(str(library_path)))
    except OSError:
        return None
