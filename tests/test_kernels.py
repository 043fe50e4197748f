"""Compute-kernel registry and bit-identity tests.

The load-bearing contract of :mod:`repro.kernels`: every registered kernel
is **bit-identical** to :mod:`repro.kernels.reference` — same detection times,
same origins, same carried detector state, same arbitration grants — so
kernel selection (explicit, ``REPRO_KERNEL``, or ``"auto"``) can never change
a report.  The suite locks that at three levels:

* raw kernel functions on randomised inputs (scan, resolve, arbitration),
  each tier against :mod:`repro.kernels.reference`;
* the arbitration schedule against the scalar :class:`RoundRobinArbiter`
  grant loop, including committed queue/rotation state;
* whole experiment reports across named scenarios, seed policies and the
  importance trial mode.
"""

import numpy as np
import pytest

from repro.kernels import (
    KERNEL_NAMES,
    available_kernels,
    get_kernel,
    round_robin_schedule,
)
from repro import kernels
from repro.kernels import reference, speculative
from repro.noc.arbitration import RoundRobinArbiter
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


def _resolve_inputs(rng, windows=96, channels=5, secondaries=2):
    """Randomised multichannel resolver inputs (inf = no candidate).

    Pulse candidates are absolute times inside their own window (window
    ``s`` starts at ``s * DURATION``), as the array pass draws them.
    """
    starts = np.arange(windows)[:, None] * DURATION
    primary = starts + rng.uniform(0.0, DURATION, (windows, channels))
    primary[rng.random((windows, channels)) < 0.4] = np.inf
    secondary = starts + rng.uniform(0.0, DURATION, (secondaries, windows, channels))
    secondary[rng.random(secondary.shape) < 0.6] = np.inf
    cells = windows * channels
    dark_counts = rng.integers(0, 2, cells)
    dark_bounds = np.zeros(cells + 1, dtype=np.int64)
    np.cumsum(dark_counts, out=dark_bounds[1:])
    background_counts = rng.integers(0, 2, cells)
    background_bounds = np.zeros(cells + 1, dtype=np.int64)
    np.cumsum(background_counts, out=background_bounds[1:])
    return {
        "primary": primary,
        "secondary": secondary,
        "dark_rel": _per_cell_sorted(rng, dark_bounds, DURATION),
        "dark_bounds": dark_bounds,
        "background_rel": _per_cell_sorted(rng, background_bounds, DURATION),
        "background_bounds": background_bounds,
        "trap_filled": rng.random((windows, channels)) < 0.4,
        "trap_release": rng.uniform(0.0, 4.0 * DURATION, (windows, channels)),
    }


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

    def test_python_kernel_has_no_native_resolver_or_arbiter(self):
        # By design: under "python" the array layer runs the NumPy/Python
        # speculate-then-correct resolver and the bus keeps its scalar grant
        # loop.
        kernel = get_kernel("python")
        assert kernel.resolve_windows is speculative.resolve_windows
        assert kernel.arbitrate is None


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


class TestResolveBitIdentity:
    @pytest.mark.parametrize("seed", range(3))
    def test_native_resolvers_match_the_reference(self, seed):
        rng = np.random.default_rng(seed)
        inputs = _resolve_inputs(rng)
        args = (
            inputs["primary"], inputs["secondary"],
            inputs["dark_rel"], inputs["dark_bounds"],
            inputs["background_rel"], inputs["background_bounds"],
            inputs["trap_filled"], inputs["trap_release"],
            DEAD_TIME, GATE_RECOVERY, DURATION, 0.0,
        )
        ref_times, ref_origins = reference.resolve_windows(*args)
        for name in available_kernels():
            times, origins = get_kernel(name).resolve_windows(*args)
            assert np.array_equal(times, ref_times, equal_nan=True), name
            assert np.array_equal(origins, ref_origins), name

    def test_empty_secondary_stack(self):
        rng = np.random.default_rng(11)
        inputs = _resolve_inputs(rng, windows=32, channels=3, secondaries=1)
        empty = np.empty((0,) + inputs["primary"].shape)
        args = (
            inputs["primary"], empty,
            inputs["dark_rel"], inputs["dark_bounds"],
            inputs["background_rel"], inputs["background_bounds"],
            inputs["trap_filled"], inputs["trap_release"],
            DEAD_TIME, GATE_RECOVERY, DURATION, 0.0,
        )
        ref_times, ref_origins = reference.resolve_windows(*args)
        for name in available_kernels():
            times, origins = get_kernel(name).resolve_windows(*args)
            assert np.array_equal(times, ref_times, equal_nan=True), name
            assert np.array_equal(origins, ref_origins), name


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


def _scalar_schedule(arbiter, costs, horizon, start_slot):
    """The per-slot grant loop the vectorised schedule must reproduce."""
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
    return items, starts


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
        # Importance-sampled chunks run the dedicated python path whatever
        # kernel is selected — selection must still be a no-op on results.
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
