"""Property-based tests (hypothesis) on the core data structures and invariants."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.units import PS
from repro.core.throughput import (
    bits_per_symbol,
    detection_cycle,
    measurement_window,
    throughput,
)
from repro.modulation.ppm import PpmCodec
from repro.modulation.symbols import SlotGrid, bits_to_int, int_to_bits
from repro.scenarios.scenario import SPECIAL_PARAMETERS, Scenario
from repro.tdc.coarse_counter import CoarseCounter
from repro.tdc.nonlinearity import compute_dnl_inl
from repro.tdc.thermometer import binary_to_thermometer, majority_filter, thermometer_to_binary


# --------------------------------------------------------------------------- bits
@given(value=st.integers(min_value=0, max_value=2 ** 16 - 1), width=st.integers(16, 24))
def test_bit_roundtrip(value, width):
    assert bits_to_int(int_to_bits(value, width)) == value


@given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=32))
def test_bits_to_int_bounded(bits):
    assert 0 <= bits_to_int(bits) < 2 ** len(bits)


# --------------------------------------------------------------------- thermometer
@given(value=st.integers(0, 64), length=st.just(64))
def test_thermometer_roundtrip(value, length):
    assert thermometer_to_binary(binary_to_thermometer(value, length)) == value


@given(value=st.integers(0, 32))
def test_majority_filter_idempotent_on_clean_codes(value):
    code = binary_to_thermometer(value, 32)
    assert np.array_equal(majority_filter(code), code)


# ----------------------------------------------------------------------------- PPM
@given(bits=st.lists(st.integers(0, 1), min_size=4, max_size=40).filter(lambda b: len(b) % 4 == 0))
def test_ppm_encode_decode_roundtrip(bits):
    codec = PpmCodec(SlotGrid(bits_per_symbol=4, slot_duration=1e-9, guard_time=8e-9))
    values = codec.decode_times(codec.pulse_times_for_values(codec.encode_bits_to_values(bits)))
    assert [bit for value in values for bit in int_to_bits(int(value), 4)] == list(bits)


@given(value=st.integers(0, 255))
def test_ppm_pulse_time_within_data_window(value):
    grid = SlotGrid(bits_per_symbol=8, slot_duration=0.5e-9, guard_time=4e-9)
    codec = PpmCodec(grid)
    pulse_time = codec.pulse_times_for_values(np.array([value]))[0]
    assert 0 <= pulse_time < grid.data_window


# ------------------------------------------------------------------ paper equations
@given(
    n=st.sampled_from([4, 8, 16, 32, 64, 96, 128, 256]),
    c=st.integers(0, 8),
    delta=st.floats(min_value=10e-12, max_value=200e-12),
)
def test_throughput_equation_invariants(n, c, delta):
    mw = measurement_window(n, c, delta)
    dc = detection_cycle(n, c, delta)
    tp = throughput(n, c, delta)
    # MW always exceeds DC by exactly one fine range.
    assert mw - dc == pytest.approx(n * delta)
    # Throughput times the window recovers the bits per symbol.
    assert tp * mw == pytest.approx(bits_per_symbol(n, c))
    # All quantities are positive.
    assert mw > 0 and dc > 0 and tp > 0


@given(
    n=st.sampled_from([8, 16, 32, 64]),
    c=st.integers(0, 6),
    delta=st.floats(min_value=20e-12, max_value=100e-12),
)
def test_throughput_decreases_when_range_extended(n, c, delta):
    assert throughput(n, c + 1, delta) <= throughput(n, c, delta) + 1e-9


# -------------------------------------------------------------------- coarse counter
@given(
    arrival=st.floats(min_value=0.0, max_value=75e-9),
    bits=st.integers(1, 5),
)
def test_coarse_split_reconstruct_roundtrip(arrival, bits):
    counter = CoarseCounter(clock_frequency=200e6, bits=bits)
    if arrival >= counter.full_range:
        return
    # Arrivals within float noise of a clock edge are legitimately ambiguous
    # (they may be attributed to either adjacent period); skip that measure-zero set.
    phase = arrival % counter.period
    if min(phase, counter.period - phase) < 1e-12:
        return
    code, residual = counter.split(arrival)
    assert 0 <= code < counter.modulus
    assert 0 < residual <= counter.period
    assert counter.reconstruct(code, residual) == pytest.approx(arrival, abs=1e-15)


# ----------------------------------------------------------------------- DNL / INL
@given(counts=st.lists(st.integers(0, 1000), min_size=2, max_size=200).filter(lambda c: sum(c) > 0))
def test_dnl_properties(counts):
    dnl, inl = compute_dnl_inl(counts)
    # DNL averages to zero by construction and is bounded below by -1.
    assert np.mean(dnl) == pytest.approx(0.0, abs=1e-9)
    assert np.all(dnl >= -1.0)
    # INL is the cumulative sum of DNL.
    assert inl[-1] == pytest.approx(np.sum(dnl))


# ------------------------------------------------------- scenario special params
HOSTILE = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, None]),
    st.booleans(),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
)


def special_scenario_mapping(name, value):
    """An otherwise valid scenario mapping that declares ``name`` as ``value``."""
    mapping = {"name": "hostile", "metrics": ["ber"], "link_overrides": {name: value}}
    if name.startswith("noc_"):
        mapping["metrics"] = ["delivery_ratio"]
    elif name.startswith("crosstalk_"):
        mapping.update(backend="multichannel", channels=4)
        mapping["link_overrides"] = {"crosstalk_pitch": 25e-6, name: value}
    elif name.startswith("stack_"):
        mapping["link_overrides"] = {"stack_dies": 4, "stack_thickness": 15e-6, name: value}
    return mapping


def compiled_value(scenario, name, point):
    """The value of ``name`` in what one grid point compiles to."""
    config, channel = scenario.config_for_point(point)
    crosstalk = scenario.crosstalk_for_point(point)
    noc = scenario.noc_for_point(point)
    if name.startswith("noc_"):
        return noc[name[len("noc_"):]]
    return {
        "tdc_fine_elements": lambda: config.tdc_design.fine_elements,
        "tdc_coarse_bits": lambda: config.tdc_design.coarse_bits,
        "stack_dies": lambda: channel.stack.die_count,
        "stack_thickness": lambda: channel.stack.layers[0].thickness,
        "crosstalk_pitch": lambda: crosstalk.channel_pitch,
        "crosstalk_floor": lambda: crosstalk.floor,
    }[name]()


@given(name=st.sampled_from(SPECIAL_PARAMETERS), value=HOSTILE)
@settings(max_examples=300, deadline=None)
def test_special_parameter_is_refused_or_kept(name, value):
    try:
        scenario = Scenario.from_mapping(special_scenario_mapping(name, value))
    except ValueError:
        return
    assert not isinstance(value, bool), name
    assert Scenario.from_mapping(json.loads(json.dumps(scenario.to_mapping()))) == scenario
    for point in scenario.grid():
        compiled = compiled_value(scenario, name, point)
        # A real parameter compiles an int to a float; else the type is kept.
        expected = float(value) if isinstance(compiled, float) and isinstance(value, int) else value
        assert type(compiled) is type(expected) and compiled == expected, (name, value, compiled)
