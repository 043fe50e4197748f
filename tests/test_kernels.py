"""Compute-kernel registry and bit-identity tests.

The load-bearing contract of :mod:`repro.kernels`: every registered kernel
is **bit-identical** to :mod:`repro.kernels.reference` — same detection times,
same origins, same carried detector state, same arbitration grants — so
kernel selection (explicit, ``REPRO_KERNEL``, or ``"auto"``) can never change
a report.  The suite locks that at three levels:

* raw kernel functions on randomised inputs (scan, arbitration), each
  tier against :mod:`repro.kernels.reference`, and the array pass's
  channel-major scan against the window-by-window resolver it replaced
  (``tests/_oracles.py``);
* the detection decode on every tier against the composition the engines
  ran before it existed (clip, ``convert_array``, clip, ``decode_times``),
  on random and boundary inputs, and a segmented decode against one call
  per segment;
* the arbitration walk against the grant loop of the
  :class:`RoundRobinArbiter` oracle (``tests/_oracles.py``), including the
  final slot clock and committed queue/rotation state;
* whole experiment reports across named scenarios, seed policies and the
  importance trial mode.
"""

import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from _oracles import RoundRobinArbiter, resolve_windows
from repro.kernels import (
    KERNEL_NAMES,
    available_kernels,
    get_kernel,
    round_robin_schedule,
)
from repro import kernels
from repro.core import FastOpticalLink, LinkConfig, MultichannelOpticalLink
from repro.core.fastlink import transmit_segments
from repro.kernels import reference
from repro.modulation.ppm import PpmCodec
from repro.modulation.symbols import SlotGrid
from repro.simulation.randomness import RandomSource
from repro.spad.array import channel_major_draws, detect_in_windows_multichannel
from repro.spad.device import ImportanceSettings, SpadDevice, detect_in_segments
from repro.tdc.coarse_counter import CoarseCounter
from repro.tdc.converter import TimeToDigitalConverter
from repro.tdc.delay_element import DelayElementModel
from repro.tdc.delay_line import TappedDelayLine
from repro.tdc.metastability import MetastabilityModel
from repro.scenarios import (
    ExperimentRunner,
    Scenario,
    get_scenario,
    named_scenarios,
)

DURATION = 2e-8
DEAD_TIME = 1.1e-8
GATE_RECOVERY = 2e-9


def _per_cell_sorted(rng, bounds, high):
    """Uniform arrival offsets, sorted within each CSR cell segment."""
    values = rng.uniform(0.0, high, int(bounds[-1]))
    for cell in range(bounds.size - 1):
        segment = slice(int(bounds[cell]), int(bounds[cell + 1]))
        values[segment] = np.sort(values[segment])
    return values


def _scan_inputs(rng, windows=400):
    """Randomised device-scan inputs exercising every origin branch."""
    counts = rng.integers(0, 3, windows)
    bounds = np.zeros(windows + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return {
        "photon_rel": rng.uniform(0.0, DURATION, windows),
        "photon_valid": rng.random(windows) < 0.7,
        "dark_rel": _per_cell_sorted(rng, bounds, DURATION),
        "dark_bounds": bounds,
        "trap_filled": rng.random(windows) < 0.4,
        "trap_release": rng.uniform(0.0, 4.0 * DURATION, windows),
    }


def _array_draws(rng, windows=96, channels=5, secondaries=2, grid=None):
    """Randomised array-pass draws, window-major as the pass draws them.

    Every offset lies inside its window.  With ``grid`` the offsets take
    only ``grid`` values per window, so candidates of different sources
    often tie and the precedence decides.
    """
    shape = (windows, channels)

    def offsets(size):
        if grid is None:
            return rng.uniform(0.0, DURATION, size)
        return rng.integers(0, grid, size) * (DURATION / grid)

    dark_counts = rng.integers(0, 3, shape) * (rng.random(shape) < 0.3)
    background_counts = rng.integers(0, 3, shape) * (rng.random(shape) < 0.3)
    return {
        "relative": offsets(shape),
        "valid": rng.random(shape) >= 0.4,
        "interference": [(offsets(shape), rng.random(shape) >= 0.6) for _ in range(secondaries)],
        "dark_counts": dark_counts,
        "dark_rel": offsets(int(dark_counts.sum())),
        "background_counts": background_counts,
        "background_rel": offsets(int(background_counts.sum())),
        "trap_filled": rng.random(shape) < 0.4,
        "trap_release": rng.uniform(0.0, 4.0 * DURATION, shape),
    }


def _oracle_args(draws, dead_time, base):
    """The resolver's inputs from the same draws, as the array pass built them."""
    windows, channels = draws["relative"].shape
    starts = base + np.arange(windows)[:, None] * DURATION

    def candidates(relative, valid):
        return np.where(valid, starts + relative, np.inf)

    def csr(counts):
        bounds = np.zeros(windows * channels + 1, dtype=np.int64)
        np.cumsum(counts.ravel(), out=bounds[1:])
        return bounds

    secondary = np.empty((len(draws["interference"]), windows, channels))
    for k, pair in enumerate(draws["interference"]):
        secondary[k] = candidates(*pair)
    return (
        candidates(draws["relative"], draws["valid"]), secondary,
        draws["dark_rel"], csr(draws["dark_counts"]),
        draws["background_rel"], csr(draws["background_counts"]),
        draws["trap_filled"], draws["trap_release"],
        dead_time, GATE_RECOVERY, DURATION, base,
    )


class TestRegistry:
    def test_reference_tiers_are_always_available(self):
        names = available_kernels()
        assert "python" in names and "vector" in names
        assert set(names) <= set(KERNEL_NAMES)
        assert "auto" not in names  # a resolution rule, not a kernel

    def test_named_lookup_and_auto_resolution(self):
        assert get_kernel("python").name == "python"
        assert get_kernel("vector").name == "vector"
        # auto resolves to a registered kernel, preferring native tiers.
        assert get_kernel("auto").name in available_kernels()
        assert get_kernel(None).name == get_kernel("auto").name

    def test_unknown_name_is_an_error(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            get_kernel("cuda")

    def test_environment_drives_default_but_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "python")
        assert get_kernel().name == "python"
        assert get_kernel("vector").name == "vector"
        monkeypatch.setenv("REPRO_KERNEL", "not-a-kernel")
        with pytest.raises(ValueError, match="unknown kernel"):
            get_kernel()

    def test_unavailable_kernel_warns_once_and_falls_back(self, monkeypatch):
        # A host without a C compiler: the cext tier is not registered.
        monkeypatch.delitem(kernels._registry(), "cext", raising=False)
        kernels._warn_unavailable.cache_clear()
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert get_kernel("cext").name == "python"
        # The degradation is reported once, not per chunk.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert get_kernel("cext").name == "python"
        kernels._warn_unavailable.cache_clear()

    @pytest.mark.parametrize(
        "importance", [None, ImportanceSettings()], ids=["naive", "importance"]
    )
    def test_an_array_pass_is_one_scan_call(self, monkeypatch, importance):
        # No tier has a resolver of its own: an array pass, naive (with
        # crosstalk) or importance-sampled, is one segmented scan on every
        # tier, and every tier arbitrates the bus with the one exact walk.
        registry = kernels._registry()
        offsets = np.random.default_rng(1).uniform(0.0, 5e-9, (40, 6))
        crosstalk = {} if importance else {
            "secondary_offsets": [np.roll(offsets, 1, axis=1)],
            "secondary_photons": [10.0],
            "background_mean": 0.2,
        }
        for name in available_kernels():
            kernel = registry[name]
            assert kernel.resolve_windows is None, name
            assert kernel.arbitrate is round_robin_schedule, name
            calls = []

            def counted(*args, scan=kernel.scan_windows, **kwargs):
                calls.append(args[12] if len(args) > 12 else kwargs.get("segments"))
                return scan(*args, **kwargs)

            monkeypatch.setitem(registry, name, dataclasses.replace(kernel, scan_windows=counted))
            detect_in_windows_multichannel(
                SpadDevice(), 2e-8, offsets, 5.0, generator=np.random.default_rng(2),
                importance=importance, kernel=name, **crosstalk,
            )
            assert len(calls) == 1, name
            assert calls[0].tolist() == list(range(0, 240, 40)), name  # a segment per channel

    def test_a_segmented_link_pass_is_one_scan_and_one_decode_call(self, monkeypatch):
        # A NoC epoch's pass over G links detects in one segmented scan and
        # decodes in one segmented decode, each link's TDC a table of it.
        registry = kernels._registry()
        counts = (5, 1, 12, 3)
        starts = np.cumsum((0,) + counts[:-1]).tolist()
        bits = np.random.default_rng(3).integers(0, 2, 4 * sum(counts)).astype(np.uint8)
        for name in available_kernels():
            kernel = registry[name]
            scans, decodes = [], []

            def scan(*args, inner=kernel.scan_windows, **kwargs):
                scans.append(args[12])
                return inner(*args, **kwargs)

            def decode(*args, inner=kernel.decode_windows, **kwargs):
                decodes.append((args[4:8], args[10]))
                return inner(*args, **kwargs)

            monkeypatch.setitem(
                registry, name, dataclasses.replace(kernel, scan_windows=scan, decode_windows=decode)
            )
            links = [
                FastOpticalLink(LinkConfig(ppm_bits=4, mean_detected_photons=5.0 + g), seed=g,
                                kernel=name)
                for g in range(len(counts))
            ]
            transmit_segments(links, bits, starts)
            assert scans == [starts], name
            assert len(decodes) == 1 and decodes[0][1] == starts, name
            taps = decodes[0][0][2]
            assert len(taps) == len(links), name
            assert all(table is link.tdc.delay_line.tap_times for table, link in zip(taps, links))


class TestBuildCache:
    """The cext build cache keeps only the few most recently used libraries."""

    @pytest.fixture()
    def cache(self, tmp_path, monkeypatch):
        from repro.kernels import cext

        if cext._compiler() is None:
            pytest.skip("no C compiler on this host")
        monkeypatch.setenv("REPRO_CEXT_CACHE", str(tmp_path))
        return tmp_path

    def test_a_build_removes_all_but_the_most_recently_used(self, cache):
        from repro.kernels import cext

        now = time.time()
        stale = []  # newest first
        for age in range(1, 7):
            path = cache / f"repro_kernels_{age:016x}.so"
            path.write_bytes(b"an earlier build")
            os.utime(path, (now - 100 * age, now - 100 * age))
            stale.append(path)
        scratch = cache / "tmp-unfinished-build"
        scratch.mkdir()
        foreign = cache / "notes.txt"
        foreign.write_text("not a library")
        library = cext._build_library()
        assert library is not None and library.is_file()
        survivors = [path for path in stale if path.exists()]
        assert survivors == stale[: cext._CACHE_KEEP - 1]
        assert scratch.is_dir() and foreign.is_file()

    def test_reuse_marks_the_library_used(self, cache):
        from repro.kernels import cext

        library = cext._build_library()
        os.utime(library, (1_000_000, 1_000_000))
        assert cext._build_library() == library
        assert library.stat().st_mtime > 1_000_000


class TestScanBitIdentity:
    @pytest.mark.parametrize("seed", range(3))
    def test_every_kernel_matches_the_reference_scan(self, seed):
        rng = np.random.default_rng(seed)
        inputs = _scan_inputs(rng)
        args = (
            inputs["photon_rel"], inputs["photon_valid"],
            inputs["dark_rel"], inputs["dark_bounds"],
            inputs["trap_filled"], inputs["trap_release"],
            DEAD_TIME, GATE_RECOVERY, DURATION,
            0.0, -np.inf, np.inf,
        )
        ref_times, ref_origins, ref_fire, ref_pending = reference.scan_windows(*args)
        for name in available_kernels():
            times, origins, fire, pending = get_kernel(name).scan_windows(*args)
            assert np.array_equal(times, ref_times, equal_nan=True), name
            assert np.array_equal(origins, ref_origins), name
            assert (fire, pending) == (ref_fire, ref_pending), name

    def test_state_carries_across_calls_identically(self):
        # The scan's cross-chunk state (last fire, pending afterpulse) must
        # round-trip through every kernel exactly, or chunked runs diverge.
        rng = np.random.default_rng(7)
        first = _scan_inputs(rng, windows=50)
        second = _scan_inputs(rng, windows=50)
        results = {}
        for name in available_kernels():
            kernel = get_kernel(name)
            fire, pending = -np.inf, np.inf
            outputs = []
            for base, inputs in ((0.0, first), (50 * DURATION, second)):
                times, origins, fire, pending = kernel.scan_windows(
                    inputs["photon_rel"], inputs["photon_valid"],
                    inputs["dark_rel"], inputs["dark_bounds"],
                    inputs["trap_filled"], inputs["trap_release"],
                    DEAD_TIME, GATE_RECOVERY, DURATION, base, fire, pending,
                )
                outputs.append((times, origins))
            results[name] = (outputs, fire, pending)
        reference_result = results["python"]
        for name, result in results.items():
            for (times, origins), (ref_times, ref_origins) in zip(
                result[0], reference_result[0]
            ):
                assert np.array_equal(times, ref_times, equal_nan=True), name
                assert np.array_equal(origins, ref_origins), name
            assert result[1:] == reference_result[1:], name


def _scan_args(inputs):
    return (
        inputs["photon_rel"], inputs["photon_valid"],
        inputs["dark_rel"], inputs["dark_bounds"],
        inputs["trap_filled"], inputs["trap_release"],
        DEAD_TIME, GATE_RECOVERY, DURATION,
    )


def _scan_per_segment(inputs, starts, base=0.0, last_fire=-np.inf, pending=np.inf, factors=None):
    """The oracle of a segmented scan: one reference call per segment, concatenated.

    Each later segment starts a fresh device (armed, no trap pending) with
    its window clock back at ``base``; the carried-in state is the first's.
    Returns every segment's final state, and with ``factors`` the weights.
    """
    bounds = list(starts) + [inputs["photon_rel"].size]
    times, origins, fires, pendings, weights = [], [], [], [], []
    for number, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if number:
            last_fire, pending = -np.inf, np.inf
        dark = inputs["dark_bounds"][lo : hi + 1]
        segment_times, segment_origins, last_fire, pending, *segment_weights = (
            reference.scan_windows(
                inputs["photon_rel"][lo:hi], inputs["photon_valid"][lo:hi],
                inputs["dark_rel"][dark[0] : dark[-1]], dark - dark[0],
                inputs["trap_filled"][lo:hi], inputs["trap_release"][lo:hi],
                DEAD_TIME, GATE_RECOVERY, DURATION, base, last_fire, pending, None,
                None if factors is None else tuple(factor[lo:hi] for factor in factors),
            )
        )
        times.append(segment_times)
        origins.append(segment_origins)
        fires.append(last_fire)
        pendings.append(pending)
        weights += segment_weights
    result = (np.concatenate(times), np.concatenate(origins), fires, pendings)
    return result if factors is None else result + (np.concatenate(weights),)


def _quiet_inputs(windows):
    """Scan inputs with no photon, no dark count and every trap filled."""
    return {
        "photon_rel": np.full(windows, 0.5 * DURATION),
        "photon_valid": np.zeros(windows, dtype=bool),
        "dark_rel": np.empty(0),
        "dark_bounds": np.zeros(windows + 1, dtype=np.int64),
        "trap_filled": np.ones(windows, dtype=bool),
        "trap_release": np.full(windows, 0.8 * DURATION),
    }


class TestSegmentedScan:
    """``scan_windows(..., segments)`` is one scan call per segment, back to back."""

    def assert_matches_oracle(self, inputs, starts, base=0.0, last_fire=-np.inf, pending=np.inf):
        expected = _scan_per_segment(inputs, starts, base, last_fire, pending)
        for name in available_kernels():
            times, origins, fire, left = get_kernel(name).scan_windows(
                *_scan_args(inputs), base, last_fire, pending, np.asarray(starts)
            )
            assert np.array_equal(times, expected[0], equal_nan=True), name
            assert np.array_equal(origins, expected[1]), name
            assert (fire.tolist(), left.tolist()) == expected[2:], name
        return expected

    @pytest.mark.parametrize("seed", range(3))
    def test_random_segments_match_one_reference_call_each(self, seed):
        rng = np.random.default_rng(seed)
        inputs = _scan_inputs(rng)
        later = rng.choice(np.arange(1, 400), size=int(rng.integers(1, 40)), replace=False)
        starts = np.concatenate([[0], np.sort(later)])
        self.assert_matches_oracle(inputs, starts, base=seed * 7 * DURATION)
        # One segment from window 0 is the unsegmented scan, bit for bit.
        for name in available_kernels():
            plain = get_kernel(name).scan_windows(*_scan_args(inputs), 0.0, -np.inf, np.inf)
            single = get_kernel(name).scan_windows(
                *_scan_args(inputs), 0.0, -np.inf, np.inf, [0]
            )
            assert np.array_equal(plain[0], single[0], equal_nan=True), name
            assert np.array_equal(plain[1], single[1]), name
            assert plain[2:] == (single[2][0], single[3][0]), name

    def test_one_window_segments(self):
        inputs = _scan_inputs(np.random.default_rng(21), windows=12)
        self.assert_matches_oracle(inputs, [0, 1, 2, 5, 6, 11])

    def test_trap_release_past_a_segment_boundary_stays_behind(self):
        # Segment 0 (windows 0-2) fires only in its last window, at 2.5 T, and
        # traps a release at 3.3 T: past the segment's end, where the next
        # segment's restarted clock has a window [3 T, 4 T) of its own.
        inputs = _quiet_inputs(7)
        inputs["photon_valid"][2] = True
        unsegmented = reference.scan_windows(*_scan_args(inputs), 0.0, -np.inf, np.inf)
        assert unsegmented[1][3] == 2  # one device: the release fires in window 3
        times, origins, fires, pendings = self.assert_matches_oracle(inputs, [0, 3])
        assert origins.tolist() == [-1, -1, 0, -1, -1, -1, -1]
        # The release stays pending on the first device and never reaches
        # the second.
        assert fires == [times[2], -np.inf]
        assert pendings == [times[2] + 0.8 * DURATION, np.inf]

    @pytest.mark.parametrize(
        "last_fire, pending, first_origin",
        [(-0.05 * DURATION, np.inf, -1), (-np.inf, 0.1 * DURATION, 2)],
        ids=["dead-time", "pending-afterpulse"],
    )
    def test_carried_in_state_applies_to_the_first_segment_only(
        self, last_fire, pending, first_origin
    ):
        # A photon at 0.2 T opens both segments.  A fire just before the scan
        # holds the first segment's detector dead past it; a pending release
        # at 0.1 T fires ahead of it.  Neither reaches the second segment,
        # whose device is fresh and sees its photon.
        inputs = _quiet_inputs(6)
        inputs["trap_filled"][:] = False
        inputs["photon_rel"][:] = 0.2 * DURATION
        inputs["photon_valid"][[0, 3]] = True
        _, origins, _, _ = self.assert_matches_oracle(inputs, [0, 3], 0.0, last_fire, pending)
        assert (origins[0], origins[3]) == (first_origin, 0)

    @pytest.mark.parametrize(
        "segments",
        [[], [1, 4], [0, 0, 4], [0, 5, 3], [0, 12], [[0, 4]], [0.0, 4.0], [False, True]],
        ids=repr,
    )
    def test_malformed_segments_are_rejected(self, segments):
        inputs = _scan_inputs(np.random.default_rng(2), windows=12)
        for name in available_kernels():
            with pytest.raises(ValueError, match="segment"):
                get_kernel(name).scan_windows(
                    *_scan_args(inputs), 0.0, -np.inf, np.inf, np.asarray(segments)
                )


class TestScanInputChecks:
    """Every tier refuses scan inputs it would index out of bounds."""

    MALFORMED = {
        "negative-bound": {"dark_bounds": [0, -1, 1, 1, 1]},
        "decreasing-bounds": {"dark_bounds": [0, 1, 0, 1, 1]},
        "bounds-past-the-candidates": {"dark_bounds": [0, 1, 1, 1, 3_000_000]},
        "short-bounds": {"dark_bounds": [0, 1, 1, 1]},
        "fractional-bounds": {"dark_bounds": [0.0, 1.0, 1.0, 1.0, 1.0]},
        "short-photon-validity": {"photon_valid": np.zeros(3, dtype=bool)},
        "short-trap-fill": {"trap_filled": np.zeros(3, dtype=bool)},
        "short-trap-release": {"trap_release": np.ones(3)},
    }

    @staticmethod
    def inputs(**changes):
        """Four windows, one dark count in the first: well formed unless changed."""
        inputs = {
            "photon_rel": np.full(4, 1e-9),
            "photon_valid": np.zeros(4, dtype=bool),
            "dark_rel": np.array([5e-9]),
            "dark_bounds": np.array([0, 1, 1, 1, 1]),
            "trap_filled": np.zeros(4, dtype=bool),
            "trap_release": np.ones(4),
        }
        inputs.update((name, np.asarray(value)) for name, value in changes.items())
        return _scan_args(inputs) + (0.0, -np.inf, np.inf)

    def test_well_formed_inputs_scan(self):
        for name in available_kernels():
            _, origins, _, _ = get_kernel(name).scan_windows(*self.inputs())
            assert origins.tolist() == [1, -1, -1, -1], name

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_inputs_raise_on_every_tier(self, case):
        args = self.inputs(**self.MALFORMED[case])
        for name in available_kernels():
            with pytest.raises(ValueError):
                get_kernel(name).scan_windows(*args)

    def test_bounds_past_the_candidates_do_not_crash_the_interpreter(self):
        # A scan that read past its candidate list here would kill the
        # interpreter (SIGSEGV on the C tier), so the call runs in a child
        # process and a crash fails only this test.
        script = (
            "import numpy as np\n"
            "from repro.kernels import available_kernels, get_kernel\n"
            "for name in available_kernels():\n"
            "    try:\n"
            "        get_kernel(name).scan_windows(\n"
            "            np.full(4, 1e-9), np.zeros(4, bool), np.array([5e-9]),\n"
            "            np.array([0, 1, 1, 1, 3000000]), np.zeros(4, bool), np.ones(4),\n"
            "            3e-8, 5e-9, 2e-8, 0.0, -np.inf, np.inf)\n"
            "    except ValueError:\n"
            "        continue\n"
            "    raise SystemExit(f'{name} scanned bounds past its candidates')\n"
        )
        source = str(Path(kernels.__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
        completed = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr


def _random_factors(rng, windows):
    """Likelihood factors spanning many magnitudes, as importance passes give them."""
    return tuple(np.exp(rng.normal(0.0, 3.0, windows)) for _ in range(3))


class TestWeightedScan:
    """``scan_windows(..., factors)``: the importance weights inside the scan."""

    @pytest.mark.parametrize("seed", range(3))
    def test_every_tier_matches_the_reference(self, seed):
        rng = np.random.default_rng(40 + seed)
        inputs = _scan_inputs(rng)
        factors = _random_factors(rng, 400)
        later = rng.choice(np.arange(1, 400), size=int(rng.integers(1, 40)), replace=False)
        cases = [
            (None, -np.inf, np.inf),
            (np.concatenate([[0], np.sort(later)]), -np.inf, np.inf),
            (None, -0.05 * DURATION, 0.1 * DURATION),  # carried-in state
            (np.asarray([0, 150, 151, 300]), -0.05 * DURATION, 0.7 * DURATION),
        ]
        for segments, last_fire, pending in cases:
            args = (*_scan_args(inputs), 0.0, last_fire, pending, segments, factors)
            expected = reference.scan_windows(*args)
            assert len(expected) == 5
            for name in available_kernels():
                times, origins, fire, left, weights = get_kernel(name).scan_windows(*args)
                assert np.array_equal(times, expected[0], equal_nan=True), name
                assert np.array_equal(origins, expected[1]), name
                assert np.array_equal(fire, expected[2]) and np.array_equal(left, expected[3]), name
                assert np.array_equal(weights, expected[4]), name

    def test_segments_restart_the_product(self):
        # A segmented weighted scan is one weighted reference call per
        # segment: every segment starts a fresh device, so its product
        # restarts at 1 with no extra rule.
        rng = np.random.default_rng(8)
        inputs = _scan_inputs(rng, windows=60)
        factors = _random_factors(rng, 60)
        starts = [0, 7, 8, 31]
        expected = _scan_per_segment(inputs, starts, factors=factors)[4]
        for name in available_kernels():
            weights = get_kernel(name).scan_windows(
                *_scan_args(inputs), 0.0, -np.inf, np.inf, np.asarray(starts), factors
            )[4]
            assert np.array_equal(weights, expected), name

    def test_unit_factors_leave_the_scan_as_it_is(self):
        rng = np.random.default_rng(9)
        inputs = _scan_inputs(rng)
        ones = (np.ones(400),) * 3
        for name in available_kernels():
            kernel = get_kernel(name)
            for segments in (None, np.asarray([0, 100, 250])):
                args = (*_scan_args(inputs), 0.0, -0.05 * DURATION, 0.3 * DURATION, segments)
                plain = kernel.scan_windows(*args)
                assert len(plain) == 4, name  # no factors: the unweighted 4-tuple
                *weighted, weights = kernel.scan_windows(*args, ones)
                assert np.array_equal(weights, np.ones(400)), name
                assert np.array_equal(weighted[0], plain[0], equal_nan=True), name
                assert np.array_equal(weighted[1], plain[1]), name
                assert np.array_equal(weighted[2], plain[2]), name
                assert np.array_equal(weighted[3], plain[3]), name

    def test_the_product_by_hand(self):
        # Window 0 fires on its photon and traps a release into window 1, so
        # window 1 starts with a trap pending: no reset, and its afterpulse
        # fires.  Window 2 starts armed with nothing pending: a reset.
        inputs = _quiet_inputs(3)
        inputs["photon_valid"][0] = True
        inputs["trap_filled"][:] = [True, False, False]
        photon = np.array([3.0, 1.0, 0.5])
        dark = np.array([0.25, 5.0, 7.0])
        trap = np.array([0.1, 9.0, 11.0])
        for name in available_kernels():
            _, origins, _, _, weights = get_kernel(name).scan_windows(
                *_scan_args(inputs), 0.0, -np.inf, np.inf, None, (photon, dark, trap)
            )
            assert origins.tolist() == [0, 2, -1], name
            first = 3.0 * 0.25 * 0.1
            assert weights.tolist() == [first, first * 1.0 * 5.0 * 9.0, 1.0 * 0.5 * 7.0], name

    @pytest.mark.parametrize(
        "factors",
        [(np.ones(11),) * 3, (np.ones(12),) * 2, (np.ones(12), np.ones(12), np.ones((12, 1)))],
        ids=["short", "two", "shape"],
    )
    def test_malformed_factors_are_rejected(self, factors):
        inputs = _scan_inputs(np.random.default_rng(2), windows=12)
        for name in available_kernels():
            with pytest.raises(ValueError, match="likelihood factors"):
                get_kernel(name).scan_windows(
                    *_scan_args(inputs), 0.0, -np.inf, np.inf, None, factors
                )


class TestResolveBitIdentity:
    """The array pass's layout and every tier's scan against the old resolver.

    :func:`channel_major_draws` lays an array pass's draws out for one
    segmented scan; whatever the draws, that scan must return what the
    window-by-window resolver of ``tests/_oracles.py`` returned on them.
    """

    def assert_matches_the_oracle(self, draws, dead_time=DEAD_TIME, base=0.0):
        windows, channels = draws["relative"].shape
        expected = resolve_windows(*_oracle_args(draws, dead_time, base))
        *inputs, candidate_origins = channel_major_draws(
            draws["relative"], draws["valid"], draws["interference"],
            draws["dark_counts"], draws["dark_rel"],
            draws["background_counts"], draws["background_rel"],
            draws["trap_filled"], draws["trap_release"],
        )
        for name in available_kernels():
            times, origins, _, _ = get_kernel(name).scan_windows(
                *inputs, dead_time, GATE_RECOVERY, DURATION, base, -np.inf, np.inf,
                np.arange(channels) * windows, None, candidate_origins,
            )
            times = times.reshape(channels, windows).T
            origins = origins.reshape(channels, windows).T
            assert np.array_equal(times, expected[0], equal_nan=True), name
            assert np.array_equal(origins, expected[1]), name
        return expected

    @pytest.mark.parametrize("seed", range(3))
    def test_random_draws(self, seed):
        rng = np.random.default_rng(seed)
        self.assert_matches_the_oracle(_array_draws(rng), base=seed * 3.5 * DURATION)

    @pytest.mark.parametrize("secondaries", [1, 3])
    def test_ties_go_to_the_first_listed_source(self, secondaries):
        rng = np.random.default_rng(30 + secondaries)
        draws = _array_draws(rng, windows=120, channels=6, secondaries=secondaries, grid=4)
        _, origins = self.assert_matches_the_oracle(draws)
        assert set(origins.ravel().tolist()) == {-1, 0, 1, 2, 3}

    def test_dead_time_longer_than_the_window(self):
        rng = np.random.default_rng(12)
        self.assert_matches_the_oracle(_array_draws(rng, channels=4), dead_time=3.3 * DURATION)

    def test_empty_secondary_stack(self):
        rng = np.random.default_rng(11)
        self.assert_matches_the_oracle(_array_draws(rng, windows=32, channels=3, secondaries=0))

    @pytest.mark.parametrize("shape", [(1, 7), (9, 1), (3, 4)], ids=repr)
    def test_small_grids(self, shape):
        rng = np.random.default_rng(sum(shape))
        self.assert_matches_the_oracle(_array_draws(rng, *shape))

    def test_no_candidate_lists(self):
        rng = np.random.default_rng(13)
        draws = _array_draws(rng, windows=20, channels=3, secondaries=0)
        draws["dark_counts"][:] = 0
        draws["background_counts"][:] = 0
        draws["dark_rel"] = draws["background_rel"] = np.empty(0)
        self.assert_matches_the_oracle(draws)

    @pytest.mark.parametrize(
        "codes", [np.full(5, 1.0), np.full(4, 1), np.array([1, 3, -1, 1, 1]), np.full(5, 4)],
        ids=["float", "short", "negative", "unknown"],
    )
    def test_malformed_candidate_origins_are_rejected(self, codes):
        inputs = _scan_inputs(np.random.default_rng(3), windows=12)
        inputs["dark_bounds"] = np.minimum(np.arange(13), 5).astype(np.int64)
        inputs["dark_rel"] = np.full(5, 0.5 * DURATION)
        for name in available_kernels():
            with pytest.raises(ValueError, match="candidate origins"):
                get_kernel(name).scan_windows(
                    *_scan_args(inputs), 0.0, -np.inf, np.inf, None, None, codes
                )

    def test_default_candidates_are_dark_counts(self):
        inputs = _scan_inputs(np.random.default_rng(4))
        ones = np.ones(inputs["dark_rel"].size, dtype=np.int8)
        for name in available_kernels():
            scan = get_kernel(name).scan_windows
            plain = scan(*_scan_args(inputs), 0.0, -np.inf, np.inf)
            coded = scan(*_scan_args(inputs), 0.0, -np.inf, np.inf, None, None, ones)
            crosstalk = scan(*_scan_args(inputs), 0.0, -np.inf, np.inf, None, None, 3 * ones)
            assert np.array_equal(plain[0], coded[0], equal_nan=True), name
            assert np.array_equal(plain[1], coded[1]), name
            assert np.array_equal(crosstalk[1], np.where(plain[1] == 1, 3, plain[1])), name


class _Receiver:
    """A TDC, a slot grid and the window both decode against."""

    def __init__(self, tdc, grid):
        self.tdc = tdc
        self.codec = PpmCodec(grid)
        self.window = grid.symbol_duration

    def oracle(self, times, origins, channels=1):
        """The engines' decode before the kernel: clip, convert, clip, decode."""
        flat_origins = origins.reshape(-1)
        detected = flat_origins >= 0
        decoded = np.zeros(flat_origins.size, dtype=np.int64)
        if np.any(detected):
            windows = np.flatnonzero(detected) // channels
            relative = times.reshape(-1)[detected] - windows.astype(float) * self.window
            relative = np.clip(relative, 0.0, self.tdc.usable_range * 0.999999)
            conversion = self.tdc.convert_array(relative)
            measured = np.clip(conversion.measured_times, 0.0, self.window * 0.999999)
            decoded[detected] = self.codec.decode_times(measured)
        return decoded.reshape(origins.shape)

    def decode(self, name, times, origins, channels=1):
        grid = self.codec.grid
        return get_kernel(name).decode_windows(
            times, origins, channels, self.window,
            self.tdc.coarse.period, self.tdc.coarse.modulus,
            self.tdc.delay_line.tap_times, self.tdc.lsb,
            grid.slot_duration, grid.slot_count,
        )

    def assert_tiers_match(self, times, origins, channels=1):
        expected = self.oracle(times, origins, channels)
        for name in available_kernels():
            decoded = self.decode(name, times, origins, channels)
            assert decoded.dtype == np.int64, name
            assert np.array_equal(decoded, expected), name
        return expected

    def assert_window_zero_matches(self, relative):
        """Every time in window 0, one channel each, so no offset rounds it."""
        times = np.asarray(relative, dtype=float)[None, :]
        origins = np.zeros(times.shape, dtype=np.int8)
        return self.assert_tiers_match(times, origins, channels=times.size)[0]


def _link_receiver():
    """The receiver of a real link: mismatched taps and a guard interval."""
    link = FastOpticalLink(LinkConfig(ppm_bits=4, extra_guard=2e-9), seed=3)
    return _Receiver(link.tdc, link.codec.grid)


#: Unit of the binary-exact receivers: ``2**-33`` s.  Their clock period is
#: 64 units and their taps are 2 units apart, so every mid-bin time is an
#: odd number of units and every product and quotient below is exact.
_UNIT = 2.0**-33


def _exact_receiver():
    """A line that exactly covers the period, slot boundaries on odd units.

    Eight slots of 13 units put boundaries 13, 39, 65 and 91 on mid-bin
    times, and the guard (104 to 120 units) inside the TDC range.  A hit on
    a clock edge reaches past the last tap, so its fine code is capped: edge
    ``k`` measures ``64k + 1`` units, which is slot boundary 65 for ``k = 1``.
    """
    line = TappedDelayLine(DelayElementModel(nominal_delay=2 * _UNIT, mismatch_sigma=0.0), 32)
    tdc = TimeToDigitalConverter(line, CoarseCounter(clock_frequency=1 / (64 * _UNIT), bits=3))
    grid = SlotGrid(bits_per_symbol=3, slot_duration=13 * _UNIT, guard_time=16 * _UNIT)
    return _Receiver(tdc, grid)


def _long_line_receiver():
    """A line longer than the period, as the links' margin makes it.

    A hit on a clock edge reaches tap 32, whose mid-bin (65 units) lies past
    the edge, so the time to the edge is capped at the period: edge ``k``
    measures ``64k`` units, a boundary of the 16-unit slots.
    """
    line = TappedDelayLine(DelayElementModel(nominal_delay=2 * _UNIT, mismatch_sigma=0.0), 36)
    tdc = TimeToDigitalConverter(line, CoarseCounter(clock_frequency=1 / (64 * _UNIT), bits=2))
    grid = SlotGrid(bits_per_symbol=3, slot_duration=16 * _UNIT, guard_time=16 * _UNIT)
    return _Receiver(tdc, grid)


def _random_detections(rng, receiver, windows, channels=1, missed=0.3):
    """Absolute detection times inside their windows, and origin codes."""
    starts = (np.arange(windows) * receiver.window)[:, None]
    times = starts + rng.uniform(0.0, receiver.window, (windows, channels))
    origins = rng.integers(0, 4, (windows, channels)).astype(np.int8)
    times[rng.random((windows, channels)) < missed] = np.nan
    origins[np.isnan(times)] = -1
    return times, origins


class TestDecodeBitIdentity:
    @pytest.mark.parametrize("seed", range(3))
    def test_random_detections_match_the_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for receiver in (_link_receiver(), _exact_receiver(), _long_line_receiver()):
            times, origins = _random_detections(rng, receiver, 2000)
            receiver.assert_tiers_match(times.ravel(), origins.ravel())

    def test_channels_stripe_windows_row_major(self):
        rng = np.random.default_rng(4)
        receiver = _link_receiver()
        times, origins = _random_detections(rng, receiver, 300, channels=5)
        decoded = receiver.assert_tiers_match(times, origins, channels=5)
        assert decoded.shape == (300, 5)

    def test_residuals_exactly_on_tap_times(self):
        for receiver in (_link_receiver(), _exact_receiver(), _long_line_receiver()):
            period = receiver.tdc.coarse.period
            taps = receiver.tdc.delay_line.tap_times
            inside = period - taps[taps < period]
            relative = np.concatenate(
                [inside, np.nextafter(inside, 0.0), np.nextafter(inside, 1.0)]
            )
            relative = np.concatenate([relative + k * period for k in range(3)])
            phase = np.mod(relative, period)
            assert np.isin(np.where(phase == 0.0, period, period - phase), taps).any()
            receiver.assert_window_zero_matches(relative)

    def test_times_on_coarse_edges_before_the_window_and_past_the_range(self):
        for receiver in (_link_receiver(), _exact_receiver(), _long_line_receiver()):
            period = receiver.tdc.coarse.period
            usable = receiver.tdc.usable_range
            edges = np.arange(receiver.tdc.coarse.modulus + 2) * period
            relative = np.concatenate([
                edges,
                np.nextafter(edges, 0.0),
                np.nextafter(edges, np.inf),
                [usable, usable * 0.999999, np.nextafter(usable * 0.999999, 0.0),
                 np.nextafter(usable, 0.0), usable * 1.5, receiver.window * 3.0],
                [-period, -1e-12, np.nextafter(0.0, -1.0)],  # before the window
            ])
            receiver.assert_window_zero_matches(relative)

    def test_clock_phase_across_many_clock_periods(self):
        # The coarse phase is a remainder: check it around every clock edge
        # for clock periods that are not binary fractions.
        rng = np.random.default_rng(6)
        for _ in range(40):
            period = 1.0 / rng.uniform(1e8, 1e9)
            model = DelayElementModel(nominal_delay=period / 30, mismatch_sigma=0.05)
            line = TappedDelayLine(model, 34, random_source=RandomSource(int(rng.integers(1 << 30))))
            tdc = TimeToDigitalConverter(line, CoarseCounter(clock_frequency=1 / period, bits=4))
            grid = SlotGrid(bits_per_symbol=3, slot_duration=2.1 * period)
            receiver = _Receiver(tdc, grid)
            edges = np.arange(tdc.coarse.modulus) * period
            receiver.assert_window_zero_matches(np.concatenate([
                rng.uniform(0.0, receiver.window, 200),
                np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf),
            ]))

    @pytest.mark.parametrize(
        "make_receiver, edge_units, slot",
        ((_exact_receiver, 65, 5), (_long_line_receiver, 64, 4)),
        ids=("fine-code-cap", "edge-time-cap"),
    )
    def test_a_hit_on_a_clock_edge_lands_on_a_slot_boundary(
        self, make_receiver, edge_units, slot
    ):
        receiver = make_receiver()
        period = receiver.tdc.coarse.period
        measured = receiver.tdc.convert_array(np.array([period])).measured_times
        assert measured[0] == edge_units * _UNIT
        assert receiver.assert_window_zero_matches([period])[0] == slot

    def test_measured_times_in_the_guard_and_on_slot_boundaries(self):
        receiver = _exact_receiver()
        relative = np.arange(0, 2100) * 2.0**-33 * 0.125
        decoded = receiver.assert_window_zero_matches(relative)
        measured = np.clip(
            receiver.tdc.convert_array(relative).measured_times, 0.0, receiver.window * 0.999999
        )
        grid = receiver.codec.grid
        for boundary in (1, 3, 5, 7):
            assert np.any(measured == boundary * grid.slot_duration), boundary
        assert np.any(measured >= grid.data_window)
        assert set(decoded.tolist()) == set(range(grid.slot_count))

    def test_window_indices_up_to_two_to_the_twentieth(self):
        rng = np.random.default_rng(5)
        receiver = _link_receiver()
        windows = (1 << 20) + 1
        origins = np.full(windows, -1, dtype=np.int8)
        hit = np.concatenate([rng.choice(windows, 4000, replace=False), [windows - 1]])
        origins[hit] = 0
        times = np.full(windows, np.nan)
        times[hit] = hit * receiver.window + rng.uniform(0.0, receiver.window, hit.size)
        receiver.assert_tiers_match(times, origins)

    def test_all_missed_and_empty_inputs(self):
        receiver = _link_receiver()
        missed = np.full((40, 3), -1, dtype=np.int8)
        decoded = receiver.assert_tiers_match(np.full((40, 3), np.nan), missed, channels=3)
        assert not decoded.any()
        for shape in ((0,), (0, 3)):
            decoded = receiver.assert_tiers_match(
                np.empty(shape), np.empty(shape, dtype=np.int8), channels=shape[-1] or 1
            )
            assert decoded.shape == shape

    def test_every_tier_keeps_the_range_checks(self):
        receiver = _link_receiver()
        times = np.array([0.5 * receiver.window])
        origins = np.zeros(1, dtype=np.int8)
        grid = receiver.codec.grid
        tdc = receiver.tdc
        for name in available_kernels():
            decode = get_kernel(name).decode_windows
            # A negative period drives the clipped time below zero...
            with pytest.raises(ValueError, match="non-negative"):
                decode(times, origins, 1, receiver.window, -tdc.coarse.period,
                       tdc.coarse.modulus, tdc.delay_line.tap_times, tdc.lsb,
                       grid.slot_duration, grid.slot_count)
            # ...and a negative window the measured time out of the symbol.
            with pytest.raises(ValueError, match="symbol range"):
                decode(times, origins, 1, -receiver.window, tdc.coarse.period,
                       tdc.coarse.modulus, tdc.delay_line.tap_times, tdc.lsb,
                       grid.slot_duration, grid.slot_count)
            # Inputs no tier could index or divide by are refused up front.
            with pytest.raises(ValueError, match="same shape"):
                decode(np.zeros(2), origins, 1, receiver.window, tdc.coarse.period,
                       tdc.coarse.modulus, tdc.delay_line.tap_times, tdc.lsb,
                       grid.slot_duration, grid.slot_count)
            with pytest.raises(ValueError, match="must be positive"):
                decode(times, origins, 0, receiver.window, tdc.coarse.period,
                       tdc.coarse.modulus, tdc.delay_line.tap_times, tdc.lsb,
                       grid.slot_duration, grid.slot_count)

    @pytest.mark.parametrize(
        "make_link",
        (
            lambda: FastOpticalLink(LinkConfig(ppm_bits=4), seed=1),
            lambda: MultichannelOpticalLink(LinkConfig(ppm_bits=4), seed=1, channels=4),
        ),
        ids=("batch", "multichannel"),
    )
    def test_engines_refuse_a_metastable_tdc(self, make_link):
        link = make_link()
        link.tdc.metastability = MetastabilityModel()
        with pytest.raises(ValueError, match="metastability"):
            link.transmit_bits(np.ones(64, dtype=np.uint8))


def _random_tdc(rng):
    """A TDC of random clock period, coarse bits, line length and tap mismatch."""
    period = 1.0 / rng.uniform(1e8, 1e9)
    elements = int(rng.integers(12, 40))
    model = DelayElementModel(nominal_delay=period / elements, mismatch_sigma=0.05)
    line = TappedDelayLine(
        model, elements + int(rng.integers(2, 8)),  # the line covers the period
        random_source=RandomSource(int(rng.integers(1 << 30))),
    )
    return TimeToDigitalConverter(
        line, CoarseCounter(clock_frequency=1 / period, bits=int(rng.integers(0, 5)))
    )


#: The slot grid every segment of a segmented decode shares (a 17.8 ns
#: window, where the random TDCs span 1 ns to 160 ns).
_SEGMENT_GRID = SlotGrid(bits_per_symbol=3, slot_duration=2.1e-9, guard_time=1e-9)


def _table(tdc):
    """One TDC's ``(period, modulus, taps, lsb)``, as a decode takes them."""
    return tdc.coarse.period, tdc.coarse.modulus, tdc.delay_line.tap_times, tdc.lsb


def _tables(tdcs):
    """The per-segment ``(period, modulus, taps, lsb)`` tables of a segmented decode."""
    return tuple(list(column) for column in zip(*(_table(tdc) for tdc in tdcs)))


def _decode(name, times, origins, channels, tables, segments=None):
    grid = _SEGMENT_GRID
    return get_kernel(name).decode_windows(
        times, origins, channels, grid.symbol_duration, *tables,
        grid.slot_duration, grid.slot_count, segments,
    )


def _malformed_decode_calls():
    """``name -> (tables, segments)`` of a decode over 10 windows, each with one fault."""
    tdcs = [_random_tdc(np.random.default_rng(seed)) for seed in range(3)]
    periods, moduli, taps, lsbs = _tables(tdcs)
    starts = [0, 4, 7]

    def swap(column, value):
        return [value if index == 1 else item for index, item in enumerate(column)]

    return {
        "starts-not-at-0": ((periods, moduli, taps, lsbs), [1, 4, 7]),
        "starts-not-increasing": ((periods, moduli, taps, lsbs), [0, 7, 4]),
        "repeated-start": ((periods, moduli, taps, lsbs), [0, 4, 4]),
        "start-at-the-window-count": ((periods, moduli, taps, lsbs), [0, 4, 10]),
        "segment-without-taps": ((periods, moduli, swap(taps, np.empty(0)), lsbs), starts),
        "two-tap-tables": ((periods, moduli, taps[:2], lsbs), starts),
        "two-lsbs": ((periods, moduli, taps, lsbs[:2]), starts),
        "two-periods": ((periods[:2], moduli, taps, lsbs), starts),
        "four-moduli": ((periods, moduli + [4], taps, lsbs), starts),
        "zero-period": ((swap(periods, 0.0), moduli, taps, lsbs), starts),
        "negative-period": ((swap(periods, -1e-9), moduli, taps, lsbs), starts),
        "nan-period": ((swap(periods, np.nan), moduli, taps, lsbs), starts),
        "zero-modulus": ((periods, swap(moduli, 0), taps, lsbs), starts),
        "fractional-modulus": ((periods, [4.5, 4.0, 4.0], taps, lsbs), starts),
        "zero-lsb": ((periods, moduli, taps, swap(lsbs, 0.0)), starts),
        "negative-lsb": ((periods, moduli, taps, swap(lsbs, -1e-11)), starts),
    }


class TestSegmentedDecode:
    """``decode_windows(..., segments)`` is one decode call per segment, back to back."""

    @staticmethod
    def segmented_detections(rng, counts, channels):
        """Detections of back-to-back segments, each segment's windows from 0.

        About a third of the detections sit on a window edge: its start, or
        just before the next window's.  Segment 1, when there is one, missed all.
        """
        window = _SEGMENT_GRID.symbol_duration
        windows = np.concatenate([np.arange(count) for count in counts]) // channels
        relative = rng.uniform(0.0, window, windows.size)
        edge = rng.random(windows.size)
        relative[edge < 0.15] = 0.0
        relative[(edge >= 0.15) & (edge < 0.3)] = np.nextafter(window, 0.0)
        times = windows * window + relative
        origins = rng.integers(0, 4, windows.size).astype(np.int8)
        origins[rng.random(windows.size) < 0.3] = -1
        if len(counts) > 1:
            origins[counts[0]:counts[0] + counts[1]] = -1
        times[origins < 0] = np.nan
        return times, origins

    @pytest.mark.parametrize("seed", range(12))
    def test_random_segments_match_one_call_each(self, seed):
        rng = np.random.default_rng(seed)
        segments = int(rng.integers(1, 10))
        counts = [1 if rng.random() < 0.3 else int(rng.integers(1, 60)) for _ in range(segments)]
        channels = 1 if seed % 3 else 2
        tdcs = [_random_tdc(rng) for _ in range(segments)]
        times, origins = self.segmented_detections(rng, counts, channels)
        starts = np.cumsum([0] + counts[:-1])
        bounds = list(starts) + [times.size]
        tables = _tables(tdcs)

        def per_segment(name):
            return np.concatenate([
                _decode(name, times[lo:hi], origins[lo:hi], channels, _table(tdc))
                for tdc, lo, hi in zip(tdcs, bounds, bounds[1:])
            ])

        expected = per_segment("python")
        for name in available_kernels():
            assert np.array_equal(per_segment(name), expected), name
            decoded = _decode(name, times, origins, channels, tables, starts)
            assert decoded.dtype == np.int64, name
            assert np.array_equal(decoded, expected), name

    def test_one_segment_is_the_unsegmented_call(self):
        rng = np.random.default_rng(40)
        tdc = _random_tdc(rng)
        times, origins = self.segmented_detections(rng, [300], 1)
        for name in available_kernels():
            plain = _decode(name, times, origins, 1, _table(tdc))
            segmented = _decode(name, times, origins, 1, _tables([tdc]), [0])
            assert np.array_equal(segmented, plain), name

    def test_each_segment_decodes_on_its_own_tdc(self):
        # The same detections under two TDCs of different ranges decode
        # differently, so a segment decoded on its neighbour's TDC shows.
        rng = np.random.default_rng(41)
        tdcs = [_random_tdc(rng) for _ in range(2)]
        times, origins = self.segmented_detections(rng, [200], 1)
        apart = [_decode("python", times, origins, 1, _table(tdc)) for tdc in tdcs]
        assert not np.array_equal(*apart)
        doubled = np.concatenate([times, times]), np.concatenate([origins, origins])
        for name in available_kernels():
            decoded = _decode(name, *doubled, 1, _tables(tdcs), [0, 200])
            assert np.array_equal(decoded, np.concatenate(apart)), name

    @pytest.mark.parametrize("case", sorted(_malformed_decode_calls()))
    def test_malformed_inputs_raise_on_every_tier(self, case):
        tables, segments = _malformed_decode_calls()[case]
        times, origins = self.segmented_detections(np.random.default_rng(3), [4, 3, 3], 1)
        for name in available_kernels():
            with pytest.raises(ValueError):
                _decode(name, times, origins, 1, tables, np.asarray(segments))

    def test_malformed_tables_do_not_crash_the_interpreter(self):
        # A decode that read past a table here would kill the interpreter on
        # the C tier, so the calls run in a child process and a crash fails
        # only this test.
        script = (
            "import numpy as np\n"
            "from repro.kernels import available_kernels, get_kernel\n"
            "taps = [np.arange(1.0, 9.0) * 1e-10] * 3\n"
            "cases = [\n"
            "    ([1e-9] * 3, [4] * 3, taps[:1] + [np.empty(0)] * 2, [1e-10] * 3, [0, 4, 7]),\n"
            "    ([1e-9], [4] * 3, taps, [1e-10] * 3, [0, 4, 7]),\n"
            "    ([1e-9] * 3, [4] * 3, taps, [1e-10] * 3, [0, 4, 3000000]),\n"
            "    ([1e-9] * 3, [4] * 3, taps, [0.0] * 3, [0, 4, 7]),\n"
            "]\n"
            "times = np.arange(10) * 2e-8 + 1e-9\n"
            "origins = np.zeros(10, np.int8)\n"
            "for name in available_kernels():\n"
            "    for period, modulus, table, lsb, starts in cases:\n"
            "        try:\n"
            "            get_kernel(name).decode_windows(times, origins, 1, 2e-8, period,\n"
            "                modulus, table, lsb, 2e-9, 8, np.array(starts))\n"
            "        except ValueError:\n"
            "            continue\n"
            "        raise SystemExit(f'{name} decoded a malformed table')\n"
        )
        source = str(Path(kernels.__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
        completed = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr

    def test_an_importance_pass_has_one_device(self):
        devices = [SpadDevice(random_source=RandomSource(seed)) for seed in range(2)]
        with pytest.raises(ValueError, match="one device"):
            detect_in_segments(
                devices, DURATION, np.full(6, 1e-9), [0, 3], [5.0, 5.0],
                importance=ImportanceSettings(),
            )


def _loaded_arbiter(rng, nodes, requests, horizon):
    """An arbiter with randomised per-node arrival-ordered request queues."""
    arbiter = RoundRobinArbiter(nodes)
    for item in range(requests):
        node = int(rng.integers(0, nodes))
        queue = arbiter._pending[node]
        floor = queue[-1][0] if queue else 0
        arrival = int(min(floor + rng.integers(0, 4), horizon + 4))
        arbiter.request(node, item, arrival=arrival)
    return arbiter


def _scalar_run(arbiter, costs, horizon, start_slot):
    """The per-slot grant loop the walk must reproduce, with its final clock."""
    items, starts = [], []
    slot = start_slot
    while slot < horizon:
        granted = arbiter.grant(slot)
        if granted is None:
            next_arrival = arbiter.next_arrival()
            if next_arrival is None or next_arrival >= horizon:
                break
            slot = max(slot + 1, next_arrival)
            continue
        _node, item = granted
        items.append(item)
        starts.append(slot)
        slot += int(costs[item])
    return items, starts, slot


def _scalar_schedule(arbiter, costs, horizon, start_slot):
    """The grants and start slots of :func:`_scalar_run`."""
    items, starts, _slot = _scalar_run(arbiter, costs, horizon, start_slot)
    return items, starts


def _assert_walk_matches_grant_loop(arbiter, costs, start_slot, horizon):
    """Walk a snapshot of ``arbiter``, then drain ``arbiter`` itself by grants.

    Both must agree on every grant, start slot, the final slot clock and the
    arbiter state left behind.  Returns the number of grants issued.
    """
    nodes = arbiter.node_count
    walked = RoundRobinArbiter(nodes)
    for node in range(nodes):
        for arrival, item in arbiter._pending[node]:
            walked.request(node, item, arrival=arrival)
    walked.commit_grants([0] * nodes, arbiter.next_node)

    arrivals, items, bounds = walked.snapshot()
    slot_costs = np.asarray([costs[item] for item in items], dtype=np.int64)
    granted, starts, final_slot, final_rotation = round_robin_schedule(
        arrivals, slot_costs, bounds,
        start_node=walked.next_node, start_slot=start_slot, horizon=horizon,
    )
    granted_nodes = np.searchsorted(bounds, granted, side="right") - 1
    walked.commit_grants(np.bincount(granted_nodes, minlength=nodes), final_rotation)

    scalar_items, scalar_starts, scalar_slot = _scalar_run(
        arbiter, costs, horizon, start_slot
    )
    assert [items[index] for index in granted] == scalar_items
    assert starts.tolist() == scalar_starts
    assert final_slot == scalar_slot
    assert walked.next_node == arbiter.next_node
    assert walked.grants_issued == arbiter.grants_issued
    assert walked.next_arrival() == arbiter.next_arrival()
    for node in range(nodes):
        assert list(walked._pending[node]) == list(arbiter._pending[node])
    return len(scalar_items)


class TestArbitrationSchedule:
    @pytest.mark.parametrize("seed", range(5))
    def test_schedule_matches_the_scalar_grant_loop(self, seed):
        rng = np.random.default_rng(seed)
        nodes = int(rng.integers(1, 9))
        horizon = 600
        scalar = _loaded_arbiter(rng, nodes, requests=200, horizon=horizon)
        vector = RoundRobinArbiter(nodes)
        for node in range(nodes):
            for arrival, item in scalar._pending[node]:
                vector.request(node, item, arrival=arrival)
        costs = rng.integers(1, 5, 200)

        arrivals, items, bounds = vector.snapshot()
        slot_costs = np.asarray([costs[item] for item in items], dtype=np.int64)
        granted, starts, _final_slot, final_rotation = round_robin_schedule(
            arrivals, slot_costs, bounds,
            start_node=vector.next_node, start_slot=0, horizon=horizon,
        )
        scheduled_items = [items[index] for index in granted]

        scalar_items, scalar_starts = _scalar_schedule(scalar, costs, horizon, 0)
        assert scheduled_items == scalar_items
        assert list(starts) == scalar_starts

        # Committing the schedule leaves the arbiter in the scalar end state.
        granted_nodes = np.searchsorted(bounds, granted, side="right") - 1
        vector.commit_grants(
            np.bincount(granted_nodes, minlength=nodes), final_rotation
        )
        assert vector.next_node == scalar.next_node
        assert vector.grants_issued == scalar.grants_issued
        assert vector.pending_count() == scalar.pending_count()
        for node in range(nodes):
            assert list(vector._pending[node]) == list(scalar._pending[node])

    def test_empty_queue_schedules_nothing(self):
        arbiter = RoundRobinArbiter(4)
        arrivals, items, bounds = arbiter.snapshot()
        granted, starts, final_slot, final_rotation = round_robin_schedule(
            arrivals, np.zeros(0, dtype=np.int64), bounds,
            start_node=2, start_slot=5, horizon=50,
        )
        assert granted.size == 0 and starts.size == 0
        assert final_rotation == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_random_start_node_and_start_slot(self, seed):
        rng = np.random.default_rng(100 + seed)
        nodes = int(rng.integers(2, 9))
        horizon = 700
        arbiter = _loaded_arbiter(rng, nodes, requests=200, horizon=horizon)
        arbiter.commit_grants([0] * nodes, int(rng.integers(0, nodes)))
        costs = rng.integers(1, 5, 200)
        start_slot = int(rng.integers(1, 80))
        granted = _assert_walk_matches_grant_loop(arbiter, costs, start_slot, horizon)
        assert granted == 200

    @pytest.mark.parametrize("seed", range(3))
    def test_horizon_cuts_the_queues_midway(self, seed):
        rng = np.random.default_rng(200 + seed)
        nodes = 6
        arbiter = _loaded_arbiter(rng, nodes, requests=300, horizon=400)
        arbiter.commit_grants([0] * nodes, int(rng.integers(0, nodes)))
        costs = rng.integers(1, 5, 300)
        # About 750 slots of demand against a 200-slot horizon.
        granted = _assert_walk_matches_grant_loop(arbiter, costs, 10, 210)
        assert 0 < granted < 300
        assert arbiter.pending_count() == 300 - granted

    @pytest.mark.parametrize("horizon", [60, 10**6])
    def test_single_node(self, horizon):
        rng = np.random.default_rng(horizon)
        arbiter = _loaded_arbiter(rng, 1, requests=60, horizon=100)
        costs = rng.integers(1, 4, 60)
        granted = _assert_walk_matches_grant_loop(arbiter, costs, 0, horizon)
        assert (granted == 60) == (horizon > 100)

    def test_idle_gaps_inside_and_beyond_the_horizon(self):
        arbiter = RoundRobinArbiter(3)
        for item, (node, arrival) in enumerate(
            [(0, 0), (0, 2), (1, 30), (2, 12), (2, 95)]
        ):
            arbiter.request(node, item, arrival=arrival)
        costs = [3] * 5
        granted = _assert_walk_matches_grant_loop(arbiter, costs, 0, 40)
        # Idles 6 -> 12 and 15 -> 30; the last request arrives past the
        # horizon and stays queued, so the clock stops after slot 33.
        assert granted == 4
        assert arbiter.pending_count() == 1 and arbiter.next_arrival() == 95

    def test_saturated_sixteen_node_drain(self):
        rng = np.random.default_rng(7)
        nodes, requests = 16, 5000
        arbiter = RoundRobinArbiter(nodes)
        floor = [0] * nodes
        for item, node in enumerate(rng.integers(0, nodes, requests).tolist()):
            # Arrivals creep forward far slower than service.
            floor[node] += int(rng.random() < 0.1)
            arbiter.request(node, item, arrival=floor[node])
        costs = rng.integers(1, 5, requests)
        granted = _assert_walk_matches_grant_loop(arbiter, costs, 0, 10**9)
        assert granted == requests and arbiter.pending_count() == 0


def _equivalence_scenario(seed_policy="per-point", trial_mode="naive"):
    scenario = Scenario(
        name=f"kernel-equivalence-{seed_policy}-{trial_mode}",
        description="grid exercised by the kernel-equivalence tests",
        link_overrides={"ppm_bits": 4},
        sweep_axes={"mean_detected_photons": (5.0, 40.0)},
        metrics=("ber", "symbol_error_rate"),
        bits_per_point=256,
        seed_policy=seed_policy,
    )
    if trial_mode != "naive":
        scenario = scenario.with_trial_mode(trial_mode)
    return scenario


class TestScenarioEquivalence:
    """Whole-report bit-identity across kernels.

    ``REPRO_KERNEL`` drives the selection so the scenario mapping (and hence
    the report digest) is identical across runs — the only thing allowed to
    differ is which implementation executed the hot loops.
    """

    @pytest.mark.parametrize("seed_policy", ("per-point", "shared"))
    def test_grid_bit_identical_across_kernels(self, monkeypatch, seed_policy):
        scenario = _equivalence_scenario(seed_policy)
        monkeypatch.setenv("REPRO_KERNEL", "python")
        expected = ExperimentRunner(scenario, seed=11).run().to_mapping()
        for name in available_kernels():
            monkeypatch.setenv("REPRO_KERNEL", name)
            report = ExperimentRunner(scenario, seed=11).run().to_mapping()
            assert report == expected, name

    def test_importance_mode_bit_identical_across_kernels(self, monkeypatch):
        # Importance-sampled chunks form their likelihood weights inside the
        # selected kernel's scan, so this compares the real kernel paths.
        scenario = _equivalence_scenario(trial_mode="importance")
        monkeypatch.setenv("REPRO_KERNEL", "python")
        expected = ExperimentRunner(scenario, seed=5).run().to_mapping()
        for name in available_kernels():
            monkeypatch.setenv("REPRO_KERNEL", name)
            report = ExperimentRunner(scenario, seed=5).run().to_mapping()
            assert report == expected, name

    def test_explicit_scenario_kernel_matches_the_default(self):
        # The kernel= field threads end-to-end (scenario -> trial -> link ->
        # device); only the scenario mapping may differ from a default run.
        scenario = _equivalence_scenario()
        expected = ExperimentRunner(scenario, seed=3).run().to_mapping()
        for name in available_kernels():
            pinned = ExperimentRunner(
                scenario.with_kernel(name), seed=3
            ).run().to_mapping()
            assert pinned["scenario"].pop("kernel") == name
            assert pinned == expected, name

    @pytest.mark.scenario_smoke
    def test_every_named_scenario_bit_identical_across_kernels(self, monkeypatch):
        # The acceptance contract of the kernel layer: for every library
        # scenario — link sweeps, multichannel arrays, NoC buses — kernel
        # selection never changes a single bit of the report.
        for name in named_scenarios():
            scenario = get_scenario(name).with_budget(128)
            monkeypatch.setenv("REPRO_KERNEL", "python")
            expected = ExperimentRunner(scenario, seed=0).run().to_mapping()
            for kernel_name in available_kernels():
                monkeypatch.setenv("REPRO_KERNEL", kernel_name)
                report = ExperimentRunner(scenario, seed=0).run().to_mapping()
                assert report == expected, (name, kernel_name)


class TestScenarioKernelField:
    def test_kernel_validated_against_known_names(self):
        with pytest.raises(ValueError, match="kernel must be one of"):
            _equivalence_scenario().with_kernel("cuda")

    def test_kernel_requires_a_capable_backend(self):
        with pytest.raises(ValueError, match="support"):
            Scenario(
                name="scalar-kernel",
                backend="scalar",
                bits_per_point=64,
                kernel="vector",
            )

    def test_kernel_round_trips_through_the_mapping(self):
        scenario = _equivalence_scenario().with_kernel("vector")
        mapping = scenario.to_mapping()
        assert mapping["kernel"] == "vector"
        assert Scenario.from_mapping(mapping) == scenario
        # Unset kernel stays out of the mapping: committed digests are stable.
        assert "kernel" not in _equivalence_scenario().to_mapping()
