"""The NoC batching contract.

Locks the refactor that moved the NoC layer onto the backend registry and the
epoch-batched slot loop:

* no module under ``src/repro/noc`` constructs a link engine directly — links
  come from :func:`repro.core.backend.make_link`;
* arbitration (slot assignments, latencies) is *identical* between the
  ``batch`` and ``multichannel`` backends, whatever the epoch size;
* error statistics (delivery ratio, BER) are *statistically equivalent*
  between the two backends, and a broadcast's one ``(S, C)`` pass between it
  and one link per receiver, per the backend contract;
* everything is deterministic per seed, and per-link seeds follow the central
  seed-derivation policy (no stream collisions);
* NoC traffic rides the experiment stack: ``noc_*`` scenario points evaluate
  through :class:`~repro.simulation.montecarlo.NocTrafficTrial`, process and
  serial executors produce bit-identical reports, and empty (zero-load)
  points report NaN ratios instead of crashing.
"""

import dataclasses
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.noc.bus as bus_module
from _oracles import epoch_by_epoch_run
from _stats import assert_proportions_equal
from repro.analysis.units import NS
from repro.core.backend import make_link
from repro.core.config import LinkConfig
from repro.core.throughput import TdcDesign
from repro.core.fastlink import transmit_segments
from repro.noc import OpticalBus, Packet, StackTopology, broadcast
from repro.photonics.stack import DieStack
from repro.scenarios import ExperimentRunner, Scenario
from repro.simulation.montecarlo import (
    TRAFFIC_PATTERNS,
    NocTrafficTrial,
    chunk_generators,
)
from repro.simulation.randomness import split_seed

NOC_SOURCES = Path(__file__).resolve().parent.parent / "src" / "repro" / "noc"

CONFIG = LinkConfig(
    ppm_bits=4, slot_duration=2 * NS, extra_guard=32 * NS, wavelength=1050e-9
)


def small_topology(dies: int = 4) -> StackTopology:
    return StackTopology(
        DieStack.uniform(count=dies, thickness=15e-6, wavelength=1050e-9),
        nodes_per_die=1,
    )


def offer_uniform_burst(bus: OpticalBus, packets: int, payload_bits: int = 32) -> None:
    """A deterministic all-pairs burst (no randomness: the bus supplies it)."""
    nodes = bus.topology.node_count
    for index in range(packets):
        source = index % nodes
        destination = (source + 1 + (index // nodes) % (nodes - 1)) % nodes
        bus.offer(
            Packet(
                source=source,
                destination=destination,
                payload=[(index + bit) % 2 for bit in range(payload_bits)],
                sequence=index,
            ),
            arrival_slot=2 * index,
        )


class TestNoDirectEngineConstruction:
    def test_noc_modules_never_name_a_link_engine(self):
        # The acceptance criterion of the refactor, enforced at source level:
        # every link the NoC layer simulates comes from make_link.
        for path in sorted(NOC_SOURCES.glob("*.py")):
            source = path.read_text()
            assert "OpticalLink" not in source, f"{path.name} names a link engine"
            assert "FastOpticalLink" not in source
            assert "MultichannelOpticalLink" not in source


class TestBackendEquivalence:
    def run_bus(self, backend: str, seed: int = 5, packets: int = 64, **kwargs):
        bus = OpticalBus(
            small_topology(),
            config=CONFIG,
            emitted_photons=20_000.0,
            seed=seed,
            backend=backend,
            **kwargs,
        )
        offer_uniform_burst(bus, packets)
        stats = bus.run(max_slots=100_000)
        return bus, stats

    def test_slot_assignments_and_latencies_identical(self):
        # Arbitration is shared between the backends: every packet's slot
        # span (hence its latency) must match exactly, not just statistically.
        array_bus, _ = self.run_bus("multichannel", packets=24)
        batch_bus, _ = self.run_bus("batch", packets=24)
        def spans(bus):
            return sorted(
                (o.packet.sequence, o.start_slot, o.end_slot, o.latency)
                for o in bus.outcomes
            )
        assert spans(array_bus) == spans(batch_bus)

    def test_error_statistics_statistically_equivalent(self):
        array_delivered = batch_delivered = 0
        array_errors = batch_errors = 0
        offered = bits = 0
        for seed in range(4):
            _, a = self.run_bus("multichannel", seed=seed)
            _, b = self.run_bus("batch", seed=seed)
            array_delivered += a.packets_delivered
            batch_delivered += b.packets_delivered
            array_errors += a.bit_errors
            batch_errors += b.bit_errors
            offered += a.packets_offered
            bits += a.bits_delivered
        # The backends share physics, not draws: both claims go through the
        # shared two-proportion z-test at the 5-sigma budget, Bonferroni-
        # split across the two comparisons.
        assert_proportions_equal(
            array_delivered, offered, batch_delivered, offered,
            sigma=5.0, comparisons=2, label="delivery ratio",
        )
        assert_proportions_equal(
            array_errors, bits, batch_errors, bits,
            sigma=5.0, comparisons=2, label="bit-error rate",
        )

    def test_epoch_size_never_changes_arbitration(self):
        # Flush grouping (hence outcome order and randomness consumption)
        # differs with epoch size, but every packet's slot span may not.
        reference, _ = self.run_bus("batch", packets=32, epoch_packets=1)
        big, _ = self.run_bus("batch", packets=32, epoch_packets=1_000)
        assert sorted(
            (o.packet.sequence, o.start_slot, o.end_slot) for o in reference.outcomes
        ) == sorted((o.packet.sequence, o.start_slot, o.end_slot) for o in big.outcomes)

    def test_deterministic_per_seed(self):
        first, _ = self.run_bus("batch", seed=13, packets=24)
        second, _ = self.run_bus("batch", seed=13, packets=24)
        third, _ = self.run_bus("batch", seed=14, packets=24)
        def trace(bus):
            return [(o.packet.sequence, o.bit_errors, o.delivered) for o in bus.outcomes]
        assert trace(first) == trace(second)
        assert trace(first) != trace(third)

    def test_continued_runs_share_one_slot_clock(self):
        # A packet left waiting when max_slots runs out keeps waiting: the
        # next run() continues the clock, so its latency spans both runs.
        bus = OpticalBus(
            small_topology(), config=CONFIG, emitted_photons=20_000.0, seed=6
        )
        bus.offer(Packet(source=0, destination=1, payload=[1, 0] * 32), arrival_slot=0)
        bus.offer(Packet(source=0, destination=2, payload=[1, 0] * 32), arrival_slot=3)
        bus.run(max_slots=16)  # only the first packet fits this horizon
        assert len(bus.outcomes) == 1
        stats = bus.run(max_slots=10_000)
        assert len(bus.outcomes) == 2
        second = bus.outcomes[1]
        # It was granted right after the first packet's span, not at slot 3
        # of a rewound clock.
        assert second.start_slot == bus.outcomes[0].end_slot
        assert second.latency == pytest.approx(
            (second.end_slot - 3) * CONFIG.symbol_duration
        )
        assert stats.total_slots == second.end_slot

    def test_undeliverable_unicast_records_an_outcome(self):
        bus = OpticalBus(
            small_topology(), config=CONFIG, emitted_photons=20_000.0, seed=8
        )
        bus.offer(Packet(source=0, destination=200, payload=[1, 0] * 8))
        stats = bus.run()
        assert stats.packets_corrupted == 1
        assert len(bus.outcomes) == stats.packets_offered == 1
        assert not bus.outcomes[0].delivered

    def test_per_link_seeds_never_collide(self):
        bus, _ = self.run_bus("batch", packets=8)
        nodes = range(bus.topology.node_count)
        seeds = [bus.link_seed(a, b) for a in nodes for b in nodes if a != b]
        seeds += [bus.link_seed(a, "broadcast") for a in nodes]
        assert len(set(seeds)) == len(seeds)
        # The old seed + 7919*source + destination arithmetic collided, e.g.
        # (0, 7919) with (1, 0); labels cannot.
        assert bus.link_seed(0, 7919) != bus.link_seed(1, 0)


def per_group_bit_errors(bus: OpticalBus, packets, groups) -> list:
    """The unicast flush before the epoch pass: one link call per group.

    Each ``(source, destination)`` group of an epoch went through its own
    link's ``transmit_bits`` with its packets' padded bits concatenated,
    and each packet counted the mismatches over its own bits.  ``groups``
    holds each group's rows of the bus's traffic table; the bits come from
    the offered packets (by sequence number), not from the table.
    """
    k = bus.config.ppm_bits
    errors = []
    for rows in groups:
        group = [packets[int(bus.traffic.sequence[row])] for row in rows]
        (source, destination), = {(p.source, p.destination) for p in group}
        link = bus._link_for(source, destination)
        result = link.transmit_bits(np.concatenate([p.padded_bits(k) for p in group]))
        mismatches = result.transmitted_bits != result.received_bits
        cursor = 0
        for packet in group:
            errors.append(int(mismatches[cursor : cursor + packet.total_bits].sum()))
            cursor += packet.symbol_count(k) * k
    return errors


class TestEpochPass:
    @pytest.mark.parametrize("seed", [3, 17, 40])
    def test_every_packet_gets_the_errors_of_one_call_per_group(self, seed, monkeypatch):
        # A dim span, mixed packet lengths and broadcasts in between: the
        # run's segmented pass must give every packet exactly the bit
        # errors the per-group calls gave.
        def run(per_group: bool):
            bus = OpticalBus(
                small_topology(5), config=CONFIG, emitted_photons=80.0, seed=seed,
                epoch_packets=16,
            )
            packets = {}
            if per_group:
                monkeypatch.setattr(
                    bus, "_unicast_bit_errors",
                    lambda groups: per_group_bit_errors(bus, packets, groups),
                )
            rng = np.random.default_rng(seed)
            for index in range(120):
                source = index % 5
                destination = 255 if index % 13 == 0 else (source + 1 + index % 4) % 5
                payload = rng.integers(0, 2, int(rng.integers(1, 90))).tolist()
                packets[index] = Packet(source, destination, payload, index)
                bus.offer(packets[index], arrival_slot=2 * index)
            bus.run(max_slots=100_000)
            return [
                (o.packet.sequence, o.bit_errors, o.delivered, dict(o.receiver_errors))
                for o in bus.outcomes
            ], bus.statistics

        (epoch_pass, epoch_stats), (per_group, group_stats) = run(False), run(True)
        assert epoch_pass == per_group
        assert epoch_stats == group_stats
        assert 0 < epoch_stats.bit_errors and 0 < epoch_stats.packets_delivered

    def test_a_long_dim_packet_counts_past_a_byte(self, monkeypatch):
        # Per-symbol counts are uint8; a packet's sum must not wrap at 256.
        def run(per_group: bool):
            bus = OpticalBus(small_topology(3), config=CONFIG, emitted_photons=0.2, seed=2)
            payload = np.random.default_rng(2).integers(0, 2, 3000).tolist()
            packets = {0: Packet(0, 2, payload, 0), 1: Packet(1, 0, payload[:50], 1)}
            if per_group:
                monkeypatch.setattr(
                    bus, "_unicast_bit_errors",
                    lambda groups: per_group_bit_errors(bus, packets, groups),
                )
            for sequence, packet in packets.items():
                bus.offer(packet, arrival_slot=sequence)
            bus.run(max_slots=100_000)
            return [outcome.bit_errors for outcome in bus.outcomes]

        errors = run(False)
        assert errors == run(True)
        assert max(errors) > 255


@st.composite
def bus_workloads(draw):
    """Random bus traffic: unicasts, broadcasts and undeliverable addresses
    of mixed lengths in arrival order, an epoch size and a horizon split
    over several ``run`` calls (the last one sometimes drains the queue)."""
    nodes = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    arrival, rows = 0, []
    for sequence in range(draw(st.integers(1, 48))):
        source = int(rng.integers(0, nodes))
        kind = rng.choice(["unicast", "broadcast", "nowhere"], p=[0.7, 0.15, 0.15])
        if kind == "unicast":
            destination = (source + int(rng.integers(1, nodes))) % nodes
        elif kind == "broadcast":
            destination = Packet.BROADCAST
        else:
            destination = int(rng.integers(nodes, Packet.BROADCAST))
        payload = rng.integers(0, 2, int(rng.integers(1, 70))).tolist()
        arrival += int(rng.integers(0, 12))
        rows.append((source, destination, payload, arrival, sequence))
    horizons = draw(st.lists(st.integers(1, 600), min_size=1, max_size=3))
    if draw(st.booleans()):
        horizons.append(100_000)
    return nodes, rows, draw(st.integers(1, 8)), horizons, draw(st.integers(0, 2**16))


class TestRunPass:
    """A whole run flushes as one pass, exactly as epoch by epoch."""

    @staticmethod
    def drive(backend, workload, run):
        nodes, rows, epoch_packets, horizons, seed = workload
        bus = OpticalBus(
            small_topology(nodes), config=CONFIG, emitted_photons=80.0, seed=seed,
            backend=backend, epoch_packets=epoch_packets,
        )
        sources, destinations, payloads, arrivals, sequences = zip(*rows)
        bus.offer_many(sources, destinations, payloads, arrivals, sequences)
        for horizon in horizons:
            run(bus, horizon)
        return bus

    @pytest.mark.parametrize("backend", ["batch", "multichannel"])
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(workload=bus_workloads())
    def test_a_run_equals_the_epoch_by_epoch_flush(self, backend, workload):
        bus = self.drive(backend, workload, OpticalBus.run)
        reference = self.drive(backend, workload, epoch_by_epoch_run)
        table, expected = bus.traffic, reference.traffic
        for column in ("start", "end", "bit_errors", "delivered"):
            assert np.array_equal(getattr(table, column), getattr(expected, column)), column
        assert np.array_equal(table.latency, expected.latency, equal_nan=True)
        assert table.receiver_errors.tolist() == expected.receiver_errors.tolist()
        assert bus.outcomes == reference.outcomes  # record order too
        assert bus.statistics == reference.statistics  # total_latency exactly

    @staticmethod
    def counted_run(monkeypatch, config=CONFIG, **budgets):
        """A unicast run over 8 epochs, with every segmented pass's
        (segments, windows, TDC taps) recorded; ``budgets`` patches the bus
        module's pass budgets by name."""
        passes = []

        def counted(links, bits, starts):
            taps = sum(link.tdc.delay_line.tap_times.size for link in links)
            passes.append((len(links), -(-bits.size // config.ppm_bits), taps))
            return transmit_segments(links, bits, starts)

        monkeypatch.setattr(bus_module, "transmit_segments", counted)
        for name, budget in budgets.items():
            monkeypatch.setattr(bus_module, name, budget)
        bus = OpticalBus(
            small_topology(5), config=config, emitted_photons=80.0, seed=3, epoch_packets=8
        )
        rng = np.random.default_rng(3)
        for index in range(64):
            source = index % 5
            payload = rng.integers(0, 2, int(rng.integers(1, 70))).tolist()
            bus.offer(
                Packet(source, (source + 1 + index % 3) % 5, payload, index),
                arrival_slot=index,
            )
        bus.run(max_slots=100_000)
        return bus, passes

    def test_a_run_is_one_segmented_pass(self, monkeypatch):
        bus, passes = self.counted_run(monkeypatch)
        assert len(passes) == 1
        # One segment per (epoch, source, destination) group: links recur.
        (segments, windows, _), = passes
        assert segments > len(bus._links)
        assert windows == int(bus.traffic.symbols.sum())

    def test_a_small_window_budget_splits_a_run_into_passes(self, monkeypatch):
        whole, _ = self.counted_run(monkeypatch)
        split, passes = self.counted_run(monkeypatch, PASS_WINDOWS=40)
        assert len(passes) > 1
        assert all(windows <= 40 or segments == 1 for segments, windows, _ in passes)
        assert split.outcomes == whole.outcomes
        assert split.statistics == whole.statistics

    @pytest.mark.parametrize("budget", [1_000, 3_000])
    def test_a_small_tap_budget_splits_a_run_into_passes(self, monkeypatch, budget):
        # 1,024-element delay lines: each group's decode table is 1,024 taps,
        # so a budget of 1,000 sends every group alone and 3,000 two a pass.
        design = TdcDesign(
            fine_elements=1024, coarse_bits=0, element_delay=CONFIG.slot_duration / 4.0
        )
        config = dataclasses.replace(CONFIG, tdc_design=design)
        whole, (whole_pass,) = self.counted_run(monkeypatch, config)
        split, passes = self.counted_run(monkeypatch, config, PASS_TAPS=budget)
        assert len(passes) > 1
        assert all(taps <= budget or segments == 1 for segments, _, taps in passes)
        assert sum(segments for segments, _, _ in passes) == whole_pass[0]
        assert split.outcomes == whole.outcomes
        assert split.statistics == whole.statistics


class TestBroadcastEquivalence:
    SEEDS = range(6)
    PHOTONS = 3_000.0
    PACKET = Packet.broadcast_packet(source=0, payload=[1, 0, 1, 1] * 8)

    def test_multichannel_pass_matches_per_receiver_links(self):
        topology = small_topology()
        delivered = receivers = 0
        for seed in self.SEEDS:
            result = broadcast(
                topology, 0, self.PACKET, config=CONFIG, emitted_photons=self.PHOTONS, seed=seed
            )
            delivered += result.delivered_count
            receivers += len(result.receivers)
        # The reference: one batch link per receiver, at its own span's
        # attenuation.
        per_link = 0
        for seed in self.SEEDS:
            for node in range(1, topology.node_count):
                config = CONFIG.with_detected_photons(
                    self.PHOTONS * topology.channel_transmission(0, node)
                )
                link = make_link(config, seed=split_seed(seed, f"noc:broadcast:0->{node}"))
                per_link += link.transmit_bits(self.PACKET.serialize()).bit_errors == 0
        assert_proportions_equal(
            delivered, receivers, per_link, receivers, sigma=5.0, label="broadcast coverage"
        )

    def test_broadcast_deterministic_and_seeded_per_receiver(self):
        packet = Packet.broadcast_packet(source=1, payload=[0, 1] * 16)
        topology = small_topology()
        a = broadcast(topology, 1, packet, config=CONFIG, emitted_photons=2_000.0, seed=3)
        b = broadcast(topology, 1, packet, config=CONFIG, emitted_photons=2_000.0, seed=3)
        assert a.bit_errors == b.bit_errors
        assert set(a.receivers) == {0, 2, 3}

    def test_bus_broadcast_reaches_every_die_on_both_paths(self):
        for backend in ("batch", "multichannel"):
            bus = OpticalBus(
                small_topology(),
                config=CONFIG,
                emitted_photons=30_000.0,
                seed=2,
                backend=backend,
            )
            bus.offer(Packet.broadcast_packet(source=0, payload=[1, 0] * 8))
            stats = bus.run()
            outcome = bus.outcomes[0]
            assert set(outcome.receiver_errors) == {1, 2, 3}
            assert stats.bits_delivered == outcome.packet.total_bits * 3


class TestNocTrafficTrial:
    def test_trial_is_picklable(self):
        trial = NocTrafficTrial(config=CONFIG, backend="batch", traffic="hotspot")
        clone = pickle.loads(pickle.dumps(trial))
        assert clone.traffic == "hotspot" and clone.config == CONFIG

    def test_rejects_invalid_settings(self):
        with pytest.raises(ValueError, match="traffic"):
            NocTrafficTrial(config=CONFIG, traffic="all-to-one")
        with pytest.raises(ValueError, match="offered_load"):
            NocTrafficTrial(config=CONFIG, offered_load=0.0)
        with pytest.raises(ValueError, match="stack_dies"):
            NocTrafficTrial(config=CONFIG, stack_dies=1)

    @pytest.mark.parametrize("pattern", TRAFFIC_PATTERNS)
    def test_patterns_run_and_deliver(self, pattern):
        trial = NocTrafficTrial(
            config=CONFIG.with_detected_photons(20_000.0),
            backend="batch",
            traffic=pattern,
            offered_load=0.7,
        )
        stats = [
            trial(generator, count).statistics
            for count, generator in chunk_generators(2, f"noc-{pattern}", 24, 12)
        ]
        assert sum(s.packets_offered for s in stats) == 24
        assert sum(s.packets_delivered for s in stats) >= 12  # most packets deliver

    def test_latency_grows_with_offered_load(self):
        def mean_latency(load):
            trial = NocTrafficTrial(
                config=CONFIG.with_detected_photons(20_000.0),
                backend="batch",
                offered_load=load,
            )
            ((count, generator),) = chunk_generators(4, "load", 48, 48)
            traffic = trial(generator, count).traffic
            return float(traffic.latency[traffic.delivered].mean())
        assert mean_latency(2.0) > mean_latency(0.1)


class TestNocScenarios:
    def noc_scenario(self, **overrides) -> Scenario:
        settings = {
            "ppm_bits": 4,
            "slot_duration": 2 * NS,
            "extra_guard": 32 * NS,
            "wavelength": 1050e-9,
            "mean_detected_photons": 20_000.0,
            "stack_dies": 3,
            "noc_traffic": "uniform",
            "noc_packet_bits": 32,
            "noc_offered_load": 0.5,
        }
        settings.update(overrides)
        return Scenario(
            name="noc-test",
            link_overrides=settings,
            metrics=(
                "delivery_ratio",
                "mean_latency",
                "bus_utilisation",
                "saturation_throughput",
            ),
            bits_per_point=256,
        )

    def test_noc_point_reports_bus_counters(self):
        report = ExperimentRunner(self.noc_scenario(), seed=3).run()
        point = report.points[0]
        assert point.bits > 0
        assert 0.0 <= point.metric("delivery_ratio") <= 1.0
        assert point.metric("bus_utilisation") > 0
        assert point.metric("saturation_throughput") > 0

    def test_zero_offered_load_point_is_nan_not_a_crash(self):
        import json

        from repro.scenarios.runner import ExperimentReport

        report = ExperimentRunner(
            self.noc_scenario(noc_offered_load=0.0), seed=3
        ).run()
        point = report.points[0]
        assert point.bits == 0
        assert math.isnan(point.metric("delivery_ratio"))
        assert math.isnan(point.metric("mean_latency"))
        # NaN measurements must serialise as strict JSON (null), and load
        # back as NaN.
        text = json.dumps(report.to_mapping(), allow_nan=False)
        loaded = ExperimentReport.from_mapping(json.loads(text))
        assert math.isnan(loaded.points[0].metric("mean_latency"))

    def test_link_symbol_metrics_rejected_on_noc_scenarios(self):
        with pytest.raises(ValueError, match="per-symbol"):
            Scenario(
                name="noc-fake-ser",
                link_overrides={"noc_traffic": "uniform"},
                metrics=("symbol_error_rate",),
                bits_per_point=128,
            )

    def test_process_executor_bit_identical_for_noc_grid(self):
        scenario = Scenario(
            name="noc-exec",
            link_overrides={
                "ppm_bits": 4,
                "slot_duration": 2 * NS,
                "extra_guard": 32 * NS,
                "mean_detected_photons": 20_000.0,
                "stack_dies": 3,
                "noc_packet_bits": 32,
            },
            sweep_axes={
                "noc_traffic": ("uniform", "hotspot"),
                "noc_offered_load": (0.3, 0.9),
            },
            metrics=("delivery_ratio", "mean_latency", "bus_utilisation"),
            bits_per_point=256,
        )
        serial = ExperimentRunner(scenario, seed=17).run()
        process = ExperimentRunner(scenario, seed=17, executor="process", workers=2).run()
        assert process.to_mapping() == serial.to_mapping()

    def test_scenario_validates_noc_parameters(self):
        with pytest.raises(ValueError, match="noc_traffic"):
            self.noc_scenario(noc_traffic="gossip")
        with pytest.raises(ValueError, match="noc_offered_load"):
            self.noc_scenario(noc_offered_load=-0.5)
        with pytest.raises(ValueError, match="noc_packet_bits"):
            self.noc_scenario(noc_packet_bits=0)
        with pytest.raises(ValueError, match="channels"):
            Scenario(
                name="noc-channels",
                link_overrides={"noc_traffic": "uniform"},
                metrics=("delivery_ratio",),
                backend="multichannel",
                channels=4,
            )
        # NoC metrics without any noc_* parameter are a misconfiguration the
        # NaN tolerance must not mask.
        with pytest.raises(ValueError, match="NoC bus traffic"):
            Scenario(
                name="noc-metrics-without-traffic",
                metrics=("ber", "delivery_ratio"),
                bits_per_point=128,
            )

    def test_noc_for_point_defaults_and_absence(self):
        scenario = self.noc_scenario()
        settings = scenario.noc_for_point({})
        assert settings["traffic"] == "uniform"
        assert settings["stack_dies"] == 3
        plain = Scenario(name="plain", metrics=("ber",), bits_per_point=64)
        assert plain.noc_for_point({}) is None
