"""Pinned report digests of every named scenario.

The kernel tests compare the kernel tiers with one another, so a change to
the shared data path (payload draw, PPM encode, error count) that moves every
tier together passes all of them.  This table pins the content digest
(:func:`repro.scenarios.store.report_digest`) of each named scenario at seed 5
and 4,096 bits per point on the default kernel, plus ``ber-vs-photons`` on the
scalar backend, under importance sampling on the batch backend and on a
four-channel multichannel backend, and ``noc-load-latency`` on the scalar
backend (its packet-at-a-time flush shares the bus's one arbitration path).

The table holds on every kernel tier: the default run resolves ``"auto"``,
and every other available tier runs the table again through
``$REPRO_KERNEL`` (which, unlike the scenario's ``kernel`` field, leaves the
report and hence its digest as it is).

A refactor must leave every entry unchanged.  A change that moves sample paths
on purpose regenerates the table (``report_digest(ExperimentRunner(scenario,
seed=5).run())`` for each entry) and says so.
"""

import pytest

from repro.kernels import available_kernels, get_kernel
from repro.scenarios import ExperimentRunner, get_scenario, named_scenarios
from repro.scenarios.store import report_digest

SEED = 5
BITS_PER_POINT = 4096

VARIANTS = {
    "default": lambda scenario: scenario,
    "scalar": lambda scenario: scenario.with_backend("scalar"),
    "importance": lambda scenario: scenario.with_trial_mode("importance"),
    "multichannel-importance": lambda scenario: scenario.with_backend("multichannel")
    .with_channels(4)
    .with_trial_mode("importance"),
}

DIGESTS = {
    ("ber-vs-photons", "default"): "c0ce7cad149c",
    ("ber-vs-range", "default"): "bbd87d253ade",
    ("design-space-grid", "default"): "70c43f538ed1",
    ("multi-chip-bus", "default"): "14809693b82d",
    ("spad-array-imager", "default"): "938143553c17",
    ("crosstalk-vs-pitch", "default"): "19d4ef8896d4",
    ("noc-load-latency", "default"): "5542718bb6af",
    ("noc-traffic-mix", "default"): "b5aabc374f5e",
    ("ppm-order-sweep", "default"): "7d1d29c674a1",
    ("ber-vs-photons", "scalar"): "f4163996e482",
    ("noc-load-latency", "scalar"): "563720a7e857",
    ("ber-vs-photons", "importance"): "772b1274447a",
    ("ber-vs-photons", "multichannel-importance"): "f37734a8d7ae",
}


def test_table_covers_every_named_scenario():
    pinned = {name for name, variant in DIGESTS if variant == "default"}
    assert pinned == set(named_scenarios())


def run_digest(name, variant):
    scenario = VARIANTS[variant](get_scenario(name).with_budget(BITS_PER_POINT))
    return report_digest(ExperimentRunner(scenario, seed=SEED).run())


@pytest.mark.parametrize("name, variant", list(DIGESTS))
def test_report_digest_is_unchanged(name, variant):
    assert run_digest(name, variant) == DIGESTS[name, variant]


#: The tiers the default run above does not resolve to.
OTHER_KERNELS = [name for name in available_kernels() if name != get_kernel().name]


@pytest.mark.parametrize("kernel", OTHER_KERNELS)
@pytest.mark.parametrize("name, variant", list(DIGESTS))
def test_report_digest_is_unchanged_on_every_other_kernel(name, variant, kernel, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", kernel)
    assert get_kernel().name == kernel
    assert run_digest(name, variant) == DIGESTS[name, variant]
