"""Tests for repro.scenarios — declarative scenarios and the experiment runner."""

import dataclasses
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.units import NS
from repro.cli import main as cli_main
from repro.core.config import LinkConfig
from repro.scenarios import (
    ExperimentRunner,
    Scenario,
    available_metrics,
    get_scenario,
    named_scenarios,
    register_metric,
    run_scenario,
)
from repro.scenarios.metrics import PointOutcome, evaluate_metrics

TINY = dict(bits_per_point=256)

#: Two ``ber-vs-photons`` artefacts (seeds 1 and 2, 64 bits a point) that
#: the retired ``scalar`` backend stored before it was removed.
LEGACY_ARTIFACTS = Path(__file__).resolve().parent / "legacy_artifacts"

NAN = float("nan")
NOC = {"metrics": ["delivery_ratio"]}
ARRAY = {"backend": "multichannel", "channels": 4}

#: Derived-parameter values that used to run (0 bits at a NaN load, a
#: truncated count, 1-bit packets), or raise only from inside a point.
HOSTILE_SPECIAL = {
    "nan load": ({"noc_offered_load": NAN}, NOC),
    "inf load": ({"noc_offered_load": float("inf")}, NOC),
    "bool load": ({"noc_offered_load": True}, NOC),
    "bool packet bits": ({"noc_packet_bits": True}, NOC),
    "fractional dies": ({"stack_dies": 3.7}, {}),
    "fractional fine elements": ({"tdc_fine_elements": 2.5}, {}),
    "nan pitch": ({"crosstalk_pitch": NAN}, ARRAY),
    "bool dies": ({"stack_dies": True}, {}),
    "nan dies": ({"stack_dies": NAN}, {}),
    "nan thickness": ({"stack_dies": 4, "stack_thickness": NAN}, {}),
    "negative thickness": ({"stack_dies": 4, "stack_thickness": -15e-6}, {}),
    "negative coarse bits": ({"tdc_coarse_bits": -1}, {}),
    "nan floor": ({"crosstalk_pitch": 25e-6, "crosstalk_floor": NAN}, ARRAY),
}


#: Any JSON value: what a scenario file may hold in any field.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)


def small_scenario(**overrides) -> Scenario:
    settings = dict(
        name="unit-test",
        link_overrides={"ppm_bits": 4},
        sweep_axes={"mean_detected_photons": (5.0, 50.0)},
        metrics=("ber", "throughput"),
        **TINY,
    )
    settings.update(overrides)
    return Scenario(**settings)


class TestScenarioValidation:
    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            Scenario(name="x", link_overrides={"not_a_field": 1})

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            Scenario(name="x", sweep_axes={"warp_factor": (1, 2)})

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            Scenario(name="x", metrics=("ber", "vibes"))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown link backend"):
            Scenario(name="x", backend="gpu")

    @settings(max_examples=300, deadline=None)
    @given(
        name=st.sampled_from(named_scenarios()),
        field=st.sampled_from([field.name for field in dataclasses.fields(Scenario)]),
        value=JSON_VALUES,
    )
    def test_any_json_in_any_field_round_trips_or_is_a_value_error(self, name, field, value):
        mapping = dict(get_scenario(name).to_mapping(), **{field: value})
        try:
            scenario = Scenario.from_mapping(mapping)
        except ValueError:
            return
        assert Scenario.from_mapping(scenario.to_mapping()) == scenario

    def test_override_and_axis_overlap_rejected(self):
        with pytest.raises(ValueError, match="both overridden and swept"):
            Scenario(
                name="x",
                link_overrides={"ppm_bits": 4},
                sweep_axes={"ppm_bits": (2, 4)},
            )

    def test_empty_axis_and_budget_rejected(self):
        with pytest.raises(ValueError):
            Scenario(name="x", sweep_axes={"ppm_bits": ()})
        with pytest.raises(ValueError):
            Scenario(name="x", bits_per_point=0)
        with pytest.raises(ValueError):
            Scenario(name="x", seed_policy="chaotic")

    @pytest.mark.parametrize("bits", [True, 64.5, "64", float("nan"), float("inf"), 0, -1])
    def test_budget_must_be_a_positive_int(self, bits):
        with pytest.raises(ValueError, match="bits_per_point must be a positive int"):
            Scenario(name="x", bits_per_point=bits)

    @pytest.mark.parametrize("where", ["link_overrides", "sweep_axes"])
    def test_nan_link_value_rejected_at_build(self, where):
        values = {"mean_detected_photons": float("nan")}
        if where == "sweep_axes":
            values = {"mean_detected_photons": (5.0, float("nan"))}
        with pytest.raises(ValueError, match="mean_detected_photons"):
            Scenario(name="x", **{where: values})
        # An unbounded photon budget stays a valid sweep value.
        Scenario(name="x", sweep_axes={"mean_detected_photons": (5.0, float("inf"))})

    def test_stack_thickness_without_stack_dies_rejected(self):
        with pytest.raises(ValueError, match="stack_dies"):
            Scenario(name="x", link_overrides={"stack_thickness": 30e-6})
        # Fine when the dies parameter is declared on either side.
        Scenario(
            name="x",
            link_overrides={"stack_thickness": 30e-6},
            sweep_axes={"stack_dies": (2, 4)},
        )

    def test_channels_validation(self):
        with pytest.raises(ValueError, match="channels"):
            Scenario(name="x", channels=0)
        # Multiple channels require a multichannel-capable backend.
        with pytest.raises(ValueError, match="multichannel"):
            Scenario(name="x", channels=8, backend="batch")
        assert Scenario(name="x", channels=8, backend="multichannel").channels == 8

    def test_crosstalk_parameters_require_channels(self):
        with pytest.raises(ValueError, match="channels"):
            Scenario(name="x", link_overrides={"crosstalk_pitch": 25e-6})
        Scenario(
            name="x",
            backend="multichannel",
            channels=4,
            sweep_axes={"crosstalk_pitch": (15e-6, 50e-6)},
        )

    def test_crosstalk_floor_without_pitch_rejected(self):
        # A floor alone builds no model (no implicit default-pitch coupling).
        with pytest.raises(ValueError, match="crosstalk_pitch"):
            Scenario(
                name="x",
                backend="multichannel",
                channels=4,
                link_overrides={"crosstalk_floor": 1e-6},
            )

    def test_scenarios_are_hashable_consistently_with_equality(self):
        scenario = get_scenario("ber-vs-photons")
        assert hash(scenario) == hash(Scenario.from_mapping(scenario.to_mapping()))
        assert len({scenario, Scenario.from_mapping(scenario.to_mapping())}) == 1

    def test_axis_order_is_declaration_order(self):
        # Axis order is the mapping's insertion order, not alphabetical, and
        # the last axis varies fastest.
        scenario = Scenario(
            name="x",
            sweep_axes={"spad_dead_time": (8 * NS, 16 * NS), "ppm_bits": (4, 2)},
        )
        assert scenario.axis_names == ("spad_dead_time", "ppm_bits")
        grid = list(scenario.grid())
        assert [tuple(p) for p in grid] == [("spad_dead_time", "ppm_bits")] * 4
        assert [tuple(p.values()) for p in grid] == [
            (8 * NS, 4), (8 * NS, 2), (16 * NS, 4), (16 * NS, 2)
        ]
        assert scenario.point_count() == 4
        assert list(scenario.grid()) == grid

        # A one-shot iterable axis is materialised once, so it survives
        # repeated traversals instead of being silently exhausted.
        generated = Scenario(name="g", sweep_axes={"ppm_bits": (b for b in (2, 3, 4))})
        assert list(generated.grid()) == list(generated.grid()) == [
            {"ppm_bits": 2}, {"ppm_bits": 3}, {"ppm_bits": 4}
        ]

        # An axis-free scenario is one point with no parameters.
        assert list(Scenario(name="single").grid()) == [{}]
        assert Scenario(name="single").point_count() == 1


    @pytest.mark.parametrize("case", list(HOSTILE_SPECIAL))
    def test_special_parameter_values_are_checked_at_construction(self, case):
        overrides, options = HOSTILE_SPECIAL[case]
        name = list(overrides)[-1]
        mapping = {"name": "x", "metrics": ["ber"], "link_overrides": overrides, **options}
        with pytest.raises(ValueError, match=name):
            Scenario(**mapping)
        with pytest.raises(ValueError, match=name):
            Scenario.from_mapping(json.loads(json.dumps(mapping)))

    def test_special_parameter_bounds(self):
        # A sweep value is checked like an override.
        with pytest.raises(ValueError, match="stack_dies"):
            Scenario(name="x", sweep_axes={"stack_dies": (2, 3.7)})
        # The bus's 8-bit addresses name 255 dies; the decode kernels carry
        # 2**C as a 64-bit integer; each link samples a delay per element.
        for name, largest in (
            ("stack_dies", 255), ("tdc_coarse_bits", 62), ("tdc_fine_elements", 1 << 20)
        ):
            Scenario(name="x", link_overrides={name: largest})
            with pytest.raises(ValueError, match=name):
                Scenario(name="x", link_overrides={name: largest + 1})

    @pytest.mark.parametrize("ci_target", [True, float("inf")], ids=["bool", "inf"])
    def test_ci_target_must_be_a_finite_number(self, ci_target):
        # Both used to run: True as a target of 1, inf as no target at all.
        with pytest.raises(ValueError, match="ci_target must be a positive finite number"):
            Scenario(name="x", ci_target=ci_target)


class TestDeterministicOrdering:
    def test_mapping_axes_preserve_insertion_order(self):
        # Report points follow the axes' insertion order, not alphabetical.
        scenario = small_scenario(
            sweep_axes={"spad_dead_time": (16 * NS, 8 * NS), "ppm_bits": (4, 2)},
            link_overrides={"mean_detected_photons": 20.0},
            metrics=("ber",),
        )
        report = run_scenario(scenario, seed=1)
        assert [tuple(p.parameters.items()) for p in report.points] == [
            (("spad_dead_time", 16 * NS), ("ppm_bits", 4)),
            (("spad_dead_time", 16 * NS), ("ppm_bits", 2)),
            (("spad_dead_time", 8 * NS), ("ppm_bits", 4)),
            (("spad_dead_time", 8 * NS), ("ppm_bits", 2)),
        ]

    def test_one_shot_iterables_are_materialised(self):
        # A generator-valued axis survives the point_count()/run() double
        # traversal instead of being silently exhausted.
        scenario = small_scenario(
            sweep_axes={"mean_detected_photons": (x for x in (5.0, 20.0, 50.0))},
        )
        assert scenario.point_count() == 3
        report = run_scenario(scenario, seed=2)
        assert [p.parameters["mean_detected_photons"] for p in report.points] == [
            5.0, 20.0, 50.0
        ]

    def test_repeated_runs_identical(self):
        axes = {"mean_detected_photons": (50.0, 5.0), "ppm_bits": (4, 2)}
        first = run_scenario(small_scenario(sweep_axes=axes, link_overrides={}), seed=3)
        second = run_scenario(small_scenario(sweep_axes=axes, link_overrides={}), seed=3)
        assert first.to_mapping() == second.to_mapping()


class TestScenarioMappingRoundTrip:
    def test_round_trip_equality(self):
        scenario = small_scenario()
        restored = Scenario.from_mapping(scenario.to_mapping())
        assert restored == scenario

    def test_round_trip_through_json(self):
        scenario = get_scenario("design-space-grid")
        payload = json.dumps(scenario.to_mapping())
        restored = Scenario.from_mapping(json.loads(payload))
        assert restored == scenario

    def test_every_named_scenario_round_trips(self):
        for name in named_scenarios():
            scenario = get_scenario(name)
            assert Scenario.from_mapping(scenario.to_mapping()) == scenario

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario key"):
            Scenario.from_mapping({"name": "x", "budget": 5})
        with pytest.raises(ValueError, match="'name'"):
            Scenario.from_mapping({})

    def test_a_kernel_key_is_an_unknown_key(self):
        # $REPRO_KERNEL is the one kernel selector; a scenario cannot pin one.
        mapping = dict(get_scenario("ber-vs-photons").to_mapping(), kernel="cext")
        with pytest.raises(ValueError, match=r"unknown scenario key\(s\): kernel"):
            Scenario.from_mapping(mapping)

    def test_channels_field_round_trips(self):
        scenario = Scenario(
            name="x",
            backend="multichannel",
            channels=64,
            link_overrides={"crosstalk_pitch": 25e-6},
        )
        mapping = scenario.to_mapping()
        assert mapping["channels"] == 64
        restored = Scenario.from_mapping(json.loads(json.dumps(mapping)))
        assert restored == scenario
        assert restored.channels == 64
        # Scenarios serialised before the channels field default to one.
        legacy = {key: value for key, value in small_scenario().to_mapping().items()}
        del legacy["channels"]
        assert Scenario.from_mapping(legacy).channels == 1


class TestScenarioCompilation:
    def test_config_for_point_applies_overrides_and_params(self):
        scenario = small_scenario()
        config, channel = scenario.config_for_point({"mean_detected_photons": 5.0})
        assert channel is None
        assert config.ppm_bits == 4
        assert config.mean_detected_photons == 5.0

    def test_tdc_axes_build_explicit_design(self):
        scenario = Scenario(
            name="x",
            sweep_axes={"tdc_fine_elements": (16, 32), "tdc_coarse_bits": (2,)},
            metrics=("ber",),
        )
        config, _ = scenario.config_for_point({"tdc_fine_elements": 32, "tdc_coarse_bits": 2})
        assert config.tdc_design is not None
        assert config.tdc_design.fine_elements == 32
        assert config.tdc_design.coarse_bits == 2
        assert config.tdc_design.element_delay == pytest.approx(config.slot_duration / 4)

    def test_tdc_coarse_bits_default_covers_symbol(self):
        scenario = Scenario(name="x", sweep_axes={"tdc_fine_elements": (16,)}, metrics=("ber",))
        config, _ = scenario.config_for_point({"tdc_fine_elements": 16})
        design = config.tdc_design
        assert design.detection_cycle >= config.symbol_duration or design.coarse_bits == 16

    def test_stack_axis_builds_channel(self):
        scenario = get_scenario("multi-chip-bus")
        config, channel = scenario.config_for_point({"stack_dies": 4})
        assert channel is not None
        assert channel.stack.die_count == 4
        assert channel.destination_layer == 3
        assert channel.stack.wavelength == config.wavelength
        assert 0.0 < channel.transmission() < 1.0

    def test_with_budget_and_backend(self):
        scenario = small_scenario().with_budget(64).with_backend("multichannel")
        assert scenario.bits_per_point == 64
        assert scenario.backend == "multichannel"

    def test_with_channels_and_crosstalk_for_point(self):
        scenario = small_scenario(
            backend="multichannel",
            channels=4,
            link_overrides={"ppm_bits": 4, "crosstalk_floor": 1e-6},
            sweep_axes={"crosstalk_pitch": (15e-6, 50e-6)},
        ).with_channels(8)
        assert scenario.channels == 8
        model = scenario.crosstalk_for_point({"crosstalk_pitch": 15e-6})
        assert model is not None
        assert model.channel_pitch == pytest.approx(15e-6)
        assert model.floor == pytest.approx(1e-6)
        # Without crosstalk parameters the channels are perfectly isolated.
        assert small_scenario().crosstalk_for_point({}) is None

    def test_runner_rejects_multichannel_scenario_on_single_channel_backend(self):
        scenario = small_scenario(backend="multichannel").with_channels(4)
        with pytest.raises(ValueError, match="does not support"):
            ExperimentRunner(scenario, backend="batch")


class TestExperimentRunner:
    def test_point_grid_and_metrics(self):
        report = run_scenario(small_scenario(), seed=5)
        assert len(report.points) == 2
        assert [p.parameters["mean_detected_photons"] for p in report.points] == [5.0, 50.0]
        for point in report.points:
            assert set(point.metrics) == {"ber", "throughput"}
            assert point.confidence["ber"] is not None
            assert point.confidence["throughput"] is None
            assert point.bits >= 256
            assert point.symbols == point.bits // 4
        # More photons, fewer errors.
        assert report.points[0].metric("ber") > report.points[1].metric("ber")

    def test_determinism_per_seed(self):
        scenario = small_scenario()
        first = run_scenario(scenario, seed=8).to_mapping()
        second = run_scenario(scenario, seed=8).to_mapping()
        third = run_scenario(scenario, seed=9).to_mapping()
        assert first == second
        assert first != third

    def test_report_is_json_serialisable(self):
        report = run_scenario(small_scenario(), seed=1)
        decoded = json.loads(json.dumps(report.to_mapping()))
        assert decoded["backend"] == "batch"
        assert len(decoded["points"]) == 2

    def test_backend_override(self):
        report = run_scenario(small_scenario(), seed=2, backend="multichannel")
        assert report.backend == "multichannel"

    def test_axis_free_scenario_runs_single_point(self):
        scenario = Scenario(
            name="single",
            link_overrides={"mean_detected_photons": 50.0},
            metrics=("ber", "symbol_error_rate"),
            bits_per_point=128,
        )
        report = run_scenario(scenario, seed=0)
        assert len(report.points) == 1
        assert report.points[0].parameters == {}

    def test_seed_policy_shared_vs_per_point(self):
        per_point = run_scenario(small_scenario(), seed=4)
        shared = run_scenario(small_scenario(seed_policy="shared"), seed=4)
        assert per_point.to_mapping() != shared.to_mapping()

    def test_metric_series(self):
        report = run_scenario(small_scenario(), seed=6)
        xs, ys = report.metric_series("ber")
        assert list(xs) == [5.0, 50.0]
        assert len(ys) == 2
        with pytest.raises(KeyError):
            report.points[0].metric("goodput")

    def test_chunking_changes_seeding_but_not_contract(self):
        scenario = small_scenario(bits_per_point=1024)
        coarse = ExperimentRunner(scenario, seed=3, chunk_symbols=64).run()
        fine = ExperimentRunner(scenario, seed=3, chunk_symbols=64).run()
        assert coarse.to_mapping() == fine.to_mapping()
        for bad in (0, True, 64.5):
            with pytest.raises(ValueError, match="chunk_symbols"):
                ExperimentRunner(scenario, chunk_symbols=bad)

    def test_summary_renders_axes_and_metrics(self):
        report = run_scenario(small_scenario(), seed=7)
        text = report.summary()
        assert "mean_detected_photons" in text
        assert "ber" in text
        assert "unit-test" in text


class TestMetricsRegistry:
    def test_builtins_available(self):
        assert {"ber", "symbol_error_rate", "throughput", "goodput", "detection_rate"} <= set(
            available_metrics()
        )

    def test_duplicate_metric_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_metric("ber")(lambda outcome: 0.0)

    def test_point_outcome_validation(self):
        config = LinkConfig()
        with pytest.raises(ValueError):
            PointOutcome(config=config, bits=-1, bit_errors=0, symbols=1, symbol_errors=0)
        with pytest.raises(ValueError):
            PointOutcome(config=config, bits=4, bit_errors=5, symbols=1, symbol_errors=0)

    def test_empty_point_outcome_reports_nan_ratios(self):
        # A zero-offered-load NoC point aggregates to an empty outcome: ratio
        # metrics are NaN measurements, not exceptions.
        import math

        outcome = PointOutcome(
            config=LinkConfig(), bits=0, bit_errors=0, symbols=0, symbol_errors=0
        )
        values, confidence = evaluate_metrics(("ber", "symbol_error_rate"), outcome)
        assert math.isnan(values["ber"]) and math.isnan(values["symbol_error_rate"])
        assert confidence["ber"] is None

    def test_custom_metric_usable_in_scenario(self):
        name = "test-missed-fraction"
        if name not in available_metrics():
            register_metric(name)(lambda outcome: outcome.missed / outcome.symbols)
        scenario = small_scenario(metrics=("ber", name))
        report = run_scenario(scenario, seed=1)
        assert name in report.points[0].metrics


class TestRetiredScalarBackend:
    """Inputs that name the retired ``scalar`` backend keep typed outcomes.

    A stored scalar artefact still reads; running anything on ``scalar`` is
    the unknown-backend refusal every boundary gives (the service's side is
    ``tests/test_service.py::TestRetiredScalarBackend``).
    """

    @pytest.fixture()
    def store(self, tmp_path):
        for artifact in LEGACY_ARTIFACTS.glob("*.json"):
            shutil.copy(artifact, tmp_path)
        return str(tmp_path)

    @staticmethod
    def assert_one_line_refusal(capsys):
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: unknown link backend 'scalar'")

    def test_show_and_compare_read_a_stored_scalar_artefact(self, store, capsys):
        first, second = sorted(path.stem for path in LEGACY_ARTIFACTS.glob("*.json"))
        assert cli_main(["show", first, "--store", store]) == 0
        assert "backend=scalar" in capsys.readouterr().out
        assert cli_main(
            ["compare", first, second, "--metric", "ber", "--store", store, "--json"]
        ) == 0
        assert len(json.loads(capsys.readouterr().out)["points"]) == 6

    @pytest.mark.parametrize("command", ["run", "probe"])
    def test_the_scalar_flag_is_refused(self, command, store, capsys):
        argv = [command, "ber-vs-photons", "--backend", "scalar", "--bits", "64", "--store", store]
        assert cli_main(argv) == 1
        self.assert_one_line_refusal(capsys)

    def test_a_scalar_scenario_file_is_refused(self, tmp_path, capsys):
        path = tmp_path / "scalar.json"
        mapping = dict(get_scenario("ber-vs-photons").with_budget(64).to_mapping(), backend="scalar")
        path.write_text(json.dumps(mapping))
        assert cli_main(["run", "--file", str(path), "--no-store"]) == 1
        self.assert_one_line_refusal(capsys)

    def test_the_library_refuses_scalar(self):
        with pytest.raises(ValueError, match="unknown link backend 'scalar'"):
            small_scenario().with_backend("scalar")
        with pytest.raises(ValueError, match="unknown link backend 'scalar'"):
            run_scenario(small_scenario(), seed=2, backend="scalar")
