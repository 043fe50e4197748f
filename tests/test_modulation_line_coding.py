"""Tests for repro.modulation.line_coding."""

import numpy as np
import pytest

from repro.analysis.units import NS, PS
from repro.modulation.line_coding import OnOffKeyingCodec
from repro.modulation.symbols import SlotGrid


class TestOnOffKeying:
    def test_bit_rate(self):
        codec = OnOffKeyingCodec(bit_period=32 * NS)
        assert codec.bit_rate == pytest.approx(1 / 32e-9)

    def test_pulse_schedule_only_for_ones(self):
        codec = OnOffKeyingCodec(bit_period=10 * NS)
        schedule = codec.pulse_schedule([1, 0, 1])
        assert schedule.size == 2
        assert schedule[0] == pytest.approx(5 * NS)
        assert schedule[1] == pytest.approx(25 * NS)

    def test_decode(self):
        codec = OnOffKeyingCodec(bit_period=10 * NS)
        assert codec.decode([1e-9, None, 2e-9], bit_count=3) == [1, 0, 1]
        with pytest.raises(ValueError):
            codec.decode([None], bit_count=2)

    def test_ppm_beats_ook_at_equal_detection_cycle(self):
        """The paper's core argument: K bits per detection instead of 1."""
        detection_cycle = 32 * NS
        ook = OnOffKeyingCodec(bit_period=detection_cycle)
        ppm_grid = SlotGrid(bits_per_symbol=4, slot_duration=500 * PS,
                            guard_time=detection_cycle - 16 * 500 * PS)
        assert ppm_grid.raw_bit_rate > 3 * ook.bit_rate

    def test_validation(self):
        with pytest.raises(ValueError):
            OnOffKeyingCodec(bit_period=0.0)
        with pytest.raises(ValueError):
            OnOffKeyingCodec(bit_period=1e-9).pulse_schedule([2])
        with pytest.raises(ValueError):
            OnOffKeyingCodec(bit_period=1e-9).pulses_per_bit(1.5)
