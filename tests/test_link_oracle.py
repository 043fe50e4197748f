"""The exact link oracle, and the batch engines held to it.

:func:`_oracles.link_error_oracle` is the exact finite-chunk SER and BER of
one single-channel link: the detector-state Markov chain that the scan's
semantics imply.  The unit checks pin what it must give where the answer is
known.  The agreement suite runs every single-channel point of the named
scenarios (``ber-vs-photons``, ``ber-vs-range``, ``design-space-grid``,
``multi-chip-bus`` and ``ppm-order-sweep``, 26 points) on ``batch`` and on
``multichannel`` at one channel, chunk by chunk as a scenario run does, and
holds each chunk to the oracle on that chunk's own link (the one
:class:`~repro.simulation.montecarlo.LinkBatchTrial` builds from the chunk
generator's first draw).  The residuals' chunk batch means give the
variance, and one Bonferroni threshold covers all 104 comparisons (26
points, two engines, SER and BER).  The power check plants a longer jitter
tail in the simulated links only and requires the suite to fail on it.
"""

import math

import numpy as np
import pytest

from _oracles import _detector_chain, _link_physics, link_error_oracle
from _stats import bonferroni_sigma
from repro.core.backend import make_link
from repro.core.config import LinkConfig
from repro.scenarios import executors
from repro.scenarios.library import get_scenario
from repro.simulation.montecarlo import LinkBatchTrial, chunk_generators
from repro.spad import device as device_module
from repro.spad.afterpulsing import AfterpulsingModel
from repro.spad.dark_counts import DarkCountModel
from repro.spad.jitter import JitterModel

pytestmark = pytest.mark.stats

SINGLE_CHANNEL = (
    "ber-vs-photons", "ber-vs-range", "design-space-grid", "multi-chip-bus", "ppm-order-sweep",
)
POINTS = [
    (name, parameters) for name in SINGLE_CHANNEL for parameters in get_scenario(name).grid()
]
ENGINES = ("batch", "multichannel")
SEED = 33
CHUNKS = 32
CHUNK_SYMBOLS = 8192
#: Every point, engine and rate (SER, BER) is one comparison.
THRESHOLD = bonferroni_sigma(4.0, len(POINTS) * len(ENGINES) * 2)


def point_chunks(scenario, parameters):
    """The point's chunks, seeded as a scenario run seeds them."""
    seed = executors.derive_point_seed(scenario, SEED, parameters)
    label = scenario.point_label(parameters)
    return chunk_generators(seed, label, CHUNKS * CHUNK_SYMBOLS, CHUNK_SYMBOLS)


def oracle_rates(scenario, parameters):
    """``(chunks, 2)``: the oracle's SER and BER on each chunk's own link."""
    config, channel = scenario.config_for_point(parameters)
    rates = []
    for count, generator in point_chunks(scenario, parameters):
        link = make_link(config, channel=channel, seed=int(generator.integers(0, 2**31)))
        rates.append(link_error_oracle(link, count))
    return np.array(rates)


def simulated_rates(scenario, parameters, backend):
    """``(chunks, 2)``: each chunk's simulated SER and BER on ``backend``."""
    config, channel = scenario.config_for_point(parameters)
    trial = LinkBatchTrial(config, backend=backend, channel=channel)
    rates = []
    for count, generator in point_chunks(scenario, parameters):
        result = trial(generator, count)
        rates.append((result.symbol_error_rate, result.bit_error_rate))
    return np.array(rates)


def residual_z(simulated, oracle):
    """SER and BER z-scores of the chunk residuals' mean, from their batch means."""
    residual = simulated - oracle
    return residual.mean(axis=0) / (residual.std(axis=0, ddof=1) / math.sqrt(len(residual)))


def quiet_link(config, seed=3):
    """A link without dark counts, afterpulses or jitter."""
    link = make_link(config, seed=seed)
    link.spad.dark_counts = DarkCountModel(rate_at_reference=0.0)
    link.spad.afterpulsing = AfterpulsingModel(probability=0.0)
    link.spad.jitter = JitterModel(sigma=0.0, tail_fraction=0.0)
    return link


def point_link(name, parameters, seed=11):
    config, channel = get_scenario(name).config_for_point(parameters)
    return make_link(config, channel=channel, seed=seed)


class TestOracle:
    # K = 6 fills the 32 ns dead time with slots: without a guard of at least
    # the gate recovery, a pulse in the last slots blinds the next window.
    @pytest.mark.parametrize("ppm_bits, extra_guard", [(2, 0.0), (4, 0.0), (6, 5e-9)])
    def test_a_link_without_noise_decodes_every_symbol(self, ppm_bits, extra_guard):
        config = LinkConfig(
            ppm_bits=ppm_bits, mean_detected_photons=math.inf, extra_guard=extra_guard
        )
        rates = link_error_oracle(quiet_link(config), 1000)
        assert rates.ser == pytest.approx(0.0, abs=1e-12)
        assert rates.ber == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("ppm_bits", [1, 4, 8])
    def test_without_photons_every_window_decodes_to_zero(self, ppm_bits):
        config = LinkConfig(ppm_bits=ppm_bits, mean_detected_photons=0.0)
        rates = link_error_oracle(quiet_link(config), 1000)
        assert rates.ser == pytest.approx(1.0 - 2.0**-ppm_bits, abs=1e-12)
        assert rates.ber == pytest.approx(0.5, abs=1e-12)

    def test_every_state_moves_somewhere(self):
        chain = _detector_chain(_link_physics(point_link("ppm-order-sweep", {"ppm_bits": 6})), 50e-12)
        np.testing.assert_allclose(chain.transitions.sum(axis=1), 1.0, atol=1e-12)
        assert (chain.transitions >= -1e-15).all()

    # The values of the earlier scratch prototype (stationary, link seed 11)
    # were 0.60707, 0.02149 and, at K = 8, 0.04417 and 0.01283.  It decoded
    # at the centres of slot/50 bins; on the same link, 100 M batch symbols
    # read 0.021455 +/- 0.000014 at 20 photons (one standard error), which
    # the breakpoint integration below matches.
    @pytest.mark.parametrize(
        "name, parameters, ser, ber",
        [
            ("ber-vs-photons", {"mean_detected_photons": 2.0}, 0.60706, 0.32346),
            ("ber-vs-photons", {"mean_detected_photons": 20.0}, 0.021452, 0.010611),
            ("ppm-order-sweep", {"ppm_bits": 8}, 0.044097, 0.012823),
        ],
    )
    def test_the_prototype_points(self, name, parameters, ser, ber):
        rates = link_error_oracle(point_link(name, parameters), 100_000)
        assert rates.ser == pytest.approx(ser, abs=5e-6)
        assert rates.ber == pytest.approx(ber, abs=5e-6)

    def test_finer_blind_bins_do_not_move_the_rates(self):
        # K = 6 fills the whole 32 ns dead time with slots, so a window that
        # fires late blinds most of the next one: the bins matter most here.
        link = point_link("ppm-order-sweep", {"ppm_bits": 6})
        coarse = link_error_oracle(link, 8192)
        fine = link_error_oracle(link, 8192, blind_bin=10e-12)
        assert coarse.ser == pytest.approx(fine.ser, abs=1e-6)
        assert coarse.ber == pytest.approx(fine.ber, abs=1e-6)


@pytest.mark.parametrize(
    "name, parameters", POINTS, ids=[get_scenario(n).point_label(p) for n, p in POINTS]
)
def test_batch_engines_match_the_oracle(name, parameters):
    scenario = get_scenario(name)
    oracle = oracle_rates(scenario, parameters)
    for backend in ENGINES:
        z = residual_z(simulated_rates(scenario, parameters, backend), oracle)
        assert np.abs(z).max() <= THRESHOLD, (
            f"{backend}: SER and BER sit {z[0]:+.2f} and {z[1]:+.2f} standard errors "
            f"from the oracle (threshold {THRESHOLD:.2f})"
        )


def test_the_suite_fails_on_a_longer_jitter_tail(monkeypatch):
    """A 10 % longer tail in the simulated links alone is a planted bias."""
    scenario = get_scenario("ber-vs-range")
    parameters = {"extra_guard": 0.0}
    oracle = oracle_rates(scenario, parameters)
    nominal = residual_z(simulated_rates(scenario, parameters, "batch"), oracle)
    longer = JitterModel(tail_constant=JitterModel().tail_constant * 1.1)
    with monkeypatch.context() as patch:
        patch.setattr(device_module, "JitterModel", lambda: longer)
        biased = simulated_rates(scenario, parameters, "batch")
        biased_oracle = oracle_rates(scenario, parameters)
    # The oracle on the biased links sizes the bias at six standard errors
    # or more of the suite's own statistic...
    residual = biased - oracle
    standard_error = residual.std(axis=0, ddof=1) / math.sqrt(CHUNKS)
    bias = (biased_oracle - oracle).mean(axis=0)
    assert bias[0] >= 6.0 * standard_error[0]
    # ...and the suite fails on it, on the nominal oracle, while it passes
    # on the unbiased links and on the biased links' own oracle.
    assert np.abs(nominal).max() <= THRESHOLD
    assert residual_z(biased, oracle)[0] > THRESHOLD
    assert np.abs(residual_z(biased, biased_oracle)).max() <= THRESHOLD
