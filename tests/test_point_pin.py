"""Pinned outcomes of single grid-point evaluations.

The digest table (``tests/test_report_digests.py``) pins whole reports, but a
report carries neither a point's ``error_strata`` nor its per-channel count
split nor the bus's ``good_bits``, and it runs every point from symbol 0 in
full chunks.  This file pins what :func:`~repro.scenarios.executors.evaluate_point`
itself returns: the SHA-256 of the canonical JSON of each outcome's
``to_accumulator_mapping()`` together with its ``noc`` block, for

* a ``ber-vs-photons`` batch point whose last chunk is partial;
* the same point as an installment that starts past symbol 0;
* a ``crosstalk-vs-pitch`` point (16 channels, with crosstalk), whose
  symbols do not fill the last round of channels;
* ``ber-vs-photons`` under importance sampling on ``batch`` and on a
  four-channel ``multichannel`` backend (weighted sums and origin strata);
* one ``noc-load-latency`` point and one ``noc-traffic-mix`` hotspot point,
  each drained in several bus runs.

Each case runs on every available kernel tier (kernels are bit-identical by
contract).  A change that moves a point's sample path on purpose regenerates
the table (``python tests/test_point_pin.py`` prints it) and says so.
"""

import hashlib
import json

import pytest

from repro.kernels import available_kernels
from repro.scenarios import get_scenario
from repro.scenarios.executors import derive_point_seed, evaluate_point
from test_report_digests import VARIANTS

SEED = 5
CHUNK_SYMBOLS = 1024

#: name -> (scenario name, variant of the digest table, swept parameters,
#: start symbol, symbols, chunk size).  ``symbols=None`` takes the point's
#: budget from the scenario.
CASES = {
    "batch-partial-chunk": (
        "ber-vs-photons", "default", {"mean_detected_photons": 5.0}, 0, 2500, CHUNK_SYMBOLS,
    ),
    "batch-installment": (
        "ber-vs-photons", "default", {"mean_detected_photons": 5.0}, 2048, 1500, CHUNK_SYMBOLS,
    ),
    "crosstalk-16-channels": (
        "crosstalk-vs-pitch", "default", {"crosstalk_pitch": 2e-5}, 0, 3000, CHUNK_SYMBOLS,
    ),
    "importance-batch": (
        "ber-vs-photons", "importance", {"mean_detected_photons": 20.0}, 0, 2500, CHUNK_SYMBOLS,
    ),
    "importance-multichannel": (
        "ber-vs-photons", "multichannel-importance", {"mean_detected_photons": 20.0},
        0, 2500, CHUNK_SYMBOLS,
    ),
    "noc-load": ("noc-load-latency", "default", {"noc_offered_load": 0.75}, 0, None, 512),
    "noc-hotspot": ("noc-traffic-mix", "default", {"noc_traffic": "hotspot"}, 0, None, 512),
}

DIGESTS = {
    "batch-partial-chunk": "fb30de5723889826",
    "batch-installment": "dec196c8386a53e6",
    "crosstalk-16-channels": "3c272b4e228d73a5",
    "importance-batch": "a1f55cc1cd5eb08b",
    "importance-multichannel": "a19cf6ac7bbf1e9b",
    "noc-load": "097c056640e86855",
    "noc-hotspot": "1a6d144bc8158486",
}


def point_digest(name, kernel=None):
    scenario_name, variant, parameters, start_symbol, symbols, chunk_symbols = CASES[name]
    scenario = VARIANTS[variant](get_scenario(scenario_name)).with_kernel(kernel)
    outcome = evaluate_point(
        scenario,
        parameters,
        derive_point_seed(scenario, SEED, parameters),
        scenario.backend,
        chunk_symbols,
        start_symbol=start_symbol,
        symbols=symbols,
    )
    mapping = {"accumulators": outcome.to_accumulator_mapping(), "noc": outcome.noc}
    canonical = json.dumps(mapping, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("kernel", available_kernels())
@pytest.mark.parametrize("name", list(CASES))
def test_point_outcome_is_pinned(name, kernel):
    assert point_digest(name, kernel) == DIGESTS[name]


if __name__ == "__main__":
    print("DIGESTS = {")
    for case in CASES:
        print(f'    "{case}": "{point_digest(case, "python")}",')
    print("}")
