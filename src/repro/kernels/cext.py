"""The ``"cext"`` compute kernels — self-compiling C ports bound via ctypes.

A dependency-free native tier: when a C compiler is on the host (``cc`` /
``gcc`` / ``$CC``) the embedded source below is compiled once into a shared
library cached by source digest, and loaded through :mod:`ctypes`.  No build
backend, no wheels, no install step — hosts without a compiler simply don't
register the kernel and :func:`repro.kernels.get_kernel` resolves elsewhere.
It ports the scan, which serves every detection pass (one device, a NoC
epoch, a whole array), and the decode.

Bit-identity with the Python reference is a *compiler-flag* contract: the
build pins ``-ffp-contract=off -fno-fast-math`` (no FMA contraction, strict
IEEE-754 ordering), and the loop bodies are single adds/multiplies/compares
on doubles — the exact operations CPython floats perform, the importance
weights' products included, in the reference's order.  The decode adds
``nextafter`` and ``fma``, which are exact in IEEE-754 (an explicit ``fma``
call rounds once whatever the contraction flag; it computes ``np.mod``'s
remainder exactly, see the source), and truncating casts of non-negative
values, which equal ``np.floor`` and ``astype(np.int64)``.  The equivalence
is locked by ``tests/test_kernels.py``.

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

from .reference import check_decode_inputs, check_factors, check_origins, check_segments

_SOURCE = r"""
#include <math.h>

void repro_scan_windows(
    long long count,
    const double *photon_rel,
    const unsigned char *photon_valid,
    const double *dark_rel,
    const long long *dark_bounds,
    const signed char *dark_origin,   /* a code per candidate, or NULL: dark counts */
    const unsigned char *trap_filled,
    const double *trap_release,
    double dead_time,
    double gate_recovery,
    double duration,
    double base,
    const long long *segment_starts,  /* validated; entry 0 is window 0 */
    long long n_segments,
    const double *photon_factor,      /* the three likelihood factors, or */
    const double *dark_factor,        /* all NULL for an unweighted scan */
    const double *trap_factor,
    double *state,      /* in: [last_fire, pending]; out: the pair per segment */
    double *out_times,
    signed char *out_origins,
    double *out_weights)              /* NULL for an unweighted scan */
{
    double last_fire = state[0];
    double pending = state[1];
    double running = 1.0;
    long long first = 0, segment = 0;
    long long next = n_segments > 1 ? segment_starts[1] : count;
    long long index;
    for (index = 0; index < count; ++index) {
        double window_start, window_end, ready, best;
        int origin = -1;
        long long j;
        if (index == next) {   /* a fresh device: armed, no trap pending */
            state[2 * segment] = last_fire;
            state[2 * segment + 1] = pending;
            ++segment;
            first = index;
            last_fire = -INFINITY;
            pending = INFINITY;
            next = segment + 1 < n_segments ? segment_starts[segment + 1] : count;
        }
        window_start = base + (double)(index - first) * duration;
        window_end = window_start + duration;
        ready = (window_start - last_fire >= gate_recovery)
            ? window_start : last_fire + dead_time;
        /* Weighted scans are the rare kind: the hint keeps their code off
         * the naive loop's path. */
        if (__builtin_expect(out_weights != 0, 0)
                && window_start - last_fire >= gate_recovery && pending == INFINITY)
            running = 1.0;   /* armed, no trap pending: a regenerative reset */
        best = INFINITY;
        if (photon_valid[index]) {
            double t = window_start + photon_rel[index];
            if (t >= ready) { best = t; origin = 0; }
        }
        for (j = dark_bounds[index]; j < dark_bounds[index + 1]; ++j) {
            double t = window_start + dark_rel[j];
            if (t >= ready && t < best) { best = t; origin = dark_origin ? dark_origin[j] : 1; }
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
        if (__builtin_expect(out_weights != 0, 0)) {   /* the reference's order */
            running = running * photon_factor[index] * dark_factor[index];
            if (origin >= 0) running = running * trap_factor[index];
            out_weights[index] = running;
        }
    }
    state[2 * segment] = last_fire;
    state[2 * segment + 1] = pending;
}

/* Returns 0, or the first NumPy range check that would fail:
 * 1 negative time, 2 coarse code out of range, 3 time outside the symbol. */
int repro_decode_windows(
    long long count,
    long long channels,
    const double *times,
    const signed char *origins,
    double window,
    double period,
    long long modulus,
    const double *taps,
    long long n_taps,
    double lsb,
    double slot_duration,
    long long slot_count,
    long long *out)
{
    /* 0.999999 is reference._EDGE: clip a time just inside its range. */
    double time_limit = (double)modulus * period * 0.999999;
    double clamp = nextafter((double)modulus * period, 0.0);
    double measured_limit = window * 0.999999;
    double data_window = (double)slot_count * slot_duration;
    double inverse_lsb = 1.0 / lsb;
    long long next_window = 0, channel = 0;   /* i / channels, no division */
    int status = 0;
    long long i;
    for (i = 0; i < count; ++i) {
        double t, phase, residual, guess, edge, measured;
        long long w = next_window, coarse, fine, slot;
        if (++channel == channels) { channel = 0; ++next_window; }
        if (origins[i] < 0) { out[i] = 0; continue; }
        t = times[i] - (double)w * window;
        t = t > 0.0 ? t : 0.0;
        t = t < time_limit ? t : time_limit;
        if (t < 0.0) return 1;
        t = t < clamp ? t : clamp;
        coarse = (long long)(t / period);      /* floor, as t >= 0 */
        /* phase = fmod(t, period), at a fraction of libm's cost: the rounded
         * quotient is the true one or one more, so t - coarse * period is
         * fmod or fmod - period, both representable, and fma rounds that
         * exact value to itself. */
        phase = fma(-(double)coarse, period, t);
        if (phase < 0.0) phase += period;      /* exact: the sum is fmod */
        if (coarse >= modulus) coarse %= modulus;
        residual = period - phase;
        /* Upper bound (count of taps <= residual) of the increasing taps,
         * walked from the mean-LSB guess: a step or two, where a binary
         * search mispredicts a branch per level. */
        guess = residual * inverse_lsb;         /* NaN-safe: NaN starts at 0 */
        fine = guess > 0.0 ? (guess < (double)n_taps ? (long long)guess : n_taps) : 0;
        while (fine > 0 && taps[fine - 1] > residual) --fine;
        while (fine < n_taps && taps[fine] <= residual) ++fine;
        if (fine > n_taps - 1) fine = n_taps - 1;
        if (coarse < 0 || coarse >= modulus) { status = 2; continue; }
        edge = ((double)fine + 0.5) * lsb;
        edge = edge < period ? edge : period;
        measured = (double)(coarse + 1) * period - edge;
        measured = measured > 0.0 ? measured : 0.0;
        measured = measured < measured_limit ? measured : measured_limit;
        if (measured < 0.0 || measured >= window) { if (!status) status = 3; continue; }
        slot = (long long)(measured / slot_duration);
        if (slot > slot_count - 1) slot = slot_count - 1;
        out[i] = measured >= data_window ? slot_count - 1 : slot;
    }
    return status;
}
"""

#: IEEE-754-preserving build: optimise, but never contract into FMAs or
#: reassociate float expressions — the bit-identity contract depends on it.
_CFLAGS = ("-std=c99", "-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")

#: Array arguments cross as bare data pointers.  Every array is first cast by
#: ``np.ascontiguousarray(..., dtype=...)`` (or allocated with its dtype), which
#: fixes dtype and layout; ``ndpointer`` re-checked both on every call, about
#: half of a 118-window scan call (65 µs → 34 µs without it).  Callers keep
#: each array bound to a name until the call returns, so its buffer outlives
#: the pointer.
_PTR = ctypes.c_void_p

#: The segment starts of an unsegmented scan: one segment from window 0.
_NO_SEGMENTS = np.zeros(1, dtype=np.int64)


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
            [compiler, *_CFLAGS, str(source), "-o", str(built), "-lm"],
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
            _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR,
            ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_double,
            _PTR, ctypes.c_longlong,
            _PTR, _PTR, _PTR,
            _PTR, _PTR, _PTR, _PTR,
        ]
        self._decode = library.repro_decode_windows
        self._decode.restype = ctypes.c_int
        self._decode.argtypes = [
            ctypes.c_longlong, ctypes.c_longlong, _PTR, _PTR,
            ctypes.c_double, ctypes.c_double, ctypes.c_longlong, _PTR, ctypes.c_longlong,
            ctypes.c_double, ctypes.c_double, ctypes.c_longlong, _PTR,
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
        segments=None,
        factors=None,
        candidate_origins=None,
    ) -> Tuple:
        """Native dead-time scan (see :func:`repro.kernels.reference.scan_windows`)."""
        photon_rel = np.ascontiguousarray(photon_rel, dtype=np.float64)
        dark_rel = np.ascontiguousarray(dark_rel, dtype=np.float64)
        count = int(photon_rel.shape[0])
        starts = np.ascontiguousarray(
            _NO_SEGMENTS if segments is None else check_segments(segments, count)
        )
        factors = None if factors is None else check_factors(factors, count)
        weights = None if factors is None else np.empty(count, dtype=np.float64)
        if candidate_origins is not None:
            candidate_origins = check_origins(candidate_origins, dark_rel.size)
        inputs = (
            photon_rel,
            np.ascontiguousarray(photon_valid, dtype=np.bool_),
            dark_rel,
            np.ascontiguousarray(dark_bounds, dtype=np.int64),
            candidate_origins,
            np.ascontiguousarray(trap_filled, dtype=np.bool_),
            np.ascontiguousarray(trap_release, dtype=np.float64),
        )
        out_times = np.empty(count, dtype=np.float64)
        out_origins = np.empty(count, dtype=np.int8)
        state = np.empty(2 * starts.size, dtype=np.float64)
        state[:2] = last_fire, pending
        self._scan(
            count,
            *[None if array is None else array.ctypes.data for array in inputs],
            float(dead_time),
            float(gate_recovery),
            float(duration),
            float(base),
            starts.ctypes.data,
            starts.size,
            *([None] * 3 if weights is None else [factor.ctypes.data for factor in factors]),
            state.ctypes.data,
            out_times.ctypes.data,
            out_origins.ctypes.data,
            None if weights is None else weights.ctypes.data,
        )
        if segments is not None:
            result = (out_times, out_origins, state[0::2].copy(), state[1::2].copy())
        else:
            result = (out_times, out_origins, float(state[0]), float(state[1]))
        return result if weights is None else result + (weights,)

    def decode_windows(
        self,
        times,
        origins,
        channels,
        window,
        period,
        modulus,
        taps,
        lsb,
        slot_duration,
        slot_count,
    ) -> np.ndarray:
        """Native detection decode (see :func:`repro.kernels.reference.decode_windows`)."""
        times = np.ascontiguousarray(times, dtype=np.float64)
        origins = np.ascontiguousarray(origins, dtype=np.int8)
        taps = np.ascontiguousarray(taps, dtype=np.float64)
        check_decode_inputs(times, origins, channels, modulus, taps)
        out = np.empty(origins.shape, dtype=np.int64)
        status = self._decode(
            origins.size,
            int(channels),
            times.ctypes.data,
            origins.ctypes.data,
            float(window),
            float(period),
            int(modulus),
            taps.ctypes.data,
            taps.size,
            float(lsb),
            float(slot_duration),
            int(slot_count),
            out.ctypes.data,
        )
        if status == 1:
            raise ValueError("arrival times must be non-negative")
        if status == 2:
            raise ValueError(f"coarse codes must be within [0, {modulus})")
        if status == 3:
            raise ValueError(f"times must lie within the symbol range [0, {window})")
        return out


def load() -> Optional[CExtKernels]:
    """Build/load the native kernels, or ``None`` when the host can't."""
    library_path = _build_library()
    if library_path is None:
        return None
    try:
        return CExtKernels(ctypes.CDLL(str(library_path)))
    except OSError:
        return None
