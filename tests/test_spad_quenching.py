"""Tests for repro.spad.quenching."""

import pytest

from repro.analysis.units import NS
from repro.spad.quenching import QuenchingCircuit, QuenchingMode


class TestDeadTime:
    def test_effective_gate_recovery_clamped_to_dead_time(self):
        circuit = QuenchingCircuit(dead_time=2 * NS, gate_recovery=5 * NS)
        assert circuit.effective_gate_recovery == pytest.approx(2 * NS)

    def test_max_count_rate(self):
        circuit = QuenchingCircuit(dead_time=32 * NS)
        assert circuit.max_count_rate() == pytest.approx(1.0 / 32e-9)

    def test_negative_elapsed_rejected(self):
        circuit = QuenchingCircuit()
        with pytest.raises(ValueError):
            circuit.detection_efficiency_factor(-1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            QuenchingCircuit(dead_time=0.0)
        with pytest.raises(ValueError):
            QuenchingCircuit(gate_recovery=0.0)
        with pytest.raises(ValueError):
            QuenchingCircuit(recharge_constant=0.0)


class TestEfficiencyRecovery:
    def test_active_quenching_is_a_hard_gate(self):
        circuit = QuenchingCircuit(mode=QuenchingMode.ACTIVE, dead_time=30 * NS)
        assert circuit.detection_efficiency_factor(10 * NS) == 0.0
        assert circuit.detection_efficiency_factor(30 * NS) == 1.0

    def test_passive_quenching_recovers_exponentially(self):
        circuit = QuenchingCircuit(
            mode=QuenchingMode.PASSIVE, dead_time=30 * NS, recharge_constant=10 * NS
        )
        just_after = circuit.detection_efficiency_factor(31 * NS)
        later = circuit.detection_efficiency_factor(80 * NS)
        assert 0.0 < just_after < later < 1.0


class TestPower:
    def test_energy_per_detection(self):
        circuit = QuenchingCircuit(avalanche_charge=4e-12, excess_bias=3.3)
        assert circuit.energy_per_detection() == pytest.approx(2 * 4e-12 * 3.3)

    def test_average_power_saturates_at_max_rate(self):
        circuit = QuenchingCircuit(dead_time=32 * NS)
        saturated = circuit.average_power(1e12)
        assert saturated == pytest.approx(circuit.energy_per_detection() * circuit.max_count_rate())
        with pytest.raises(ValueError):
            circuit.average_power(-1.0)

    def test_with_dead_time_copy(self):
        circuit = QuenchingCircuit(dead_time=32 * NS)
        faster = circuit.with_dead_time(8 * NS)
        assert faster.dead_time == pytest.approx(8 * NS)
        assert faster.gate_recovery <= faster.dead_time
        assert circuit.dead_time == pytest.approx(32 * NS)
