#!/usr/bin/env python
"""Store-driven regression gate (the CI follow-up to the ``BENCH_*`` pattern).

Re-runs a small, fully deterministic scenario through the real CLI front door
(``repro run``), then uses :meth:`repro.scenarios.store.ReportStore.compare`
to diff the fresh artefact against the reference artefact committed under
``tests/reference_artifacts/``.  Reports are a pure function of
``(scenario, seed, chunk_symbols)``, so any non-zero per-point delta — or any
grid drift — means the simulation's numbers moved and must be acknowledged by
regenerating the reference::

    PYTHONPATH=src python -m repro run ber-vs-photons --bits 256 --seed 1 \
        --store tests/reference_artifacts

Two modes (``--mode``):

* ``bit-identical`` (default) — the fresh artefact's content digest (the
  last field of its id, a hash of the whole report) must equal the
  reference's, and any non-zero per-point delta fails.  The right gate for
  the deterministic contract: same scenario, same seed, same chunk size must
  reproduce the committed report byte for byte; the per-point ``ber`` diff
  says where it moved.
* ``confidence`` — a point fails only when the two estimates' 95 %
  confidence intervals fail to overlap.  The right gate for *statistically*
  equivalent estimators (the importance-sampling trial mode, backend
  swaps): their draws differ by design, so bit-identity is the wrong
  contract, but the physics may not move.

The scratch run repeats once per *available compute kernel*
(:func:`repro.kernels.available_kernels`, forced via ``REPRO_KERNEL``), so
the gate simultaneously checks that the simulation has not drifted *and*
that every kernel — ``python``, ``vector`` and, when the host has a C
compiler, ``cext`` — still reproduces the committed artefact bit for bit.

Exit status: 0 when the gate holds, 1 on drift, 3 when the reference
artefact is missing or unreadable (a broken *gate*, not a regression — fix
the reference, don't chase the simulation).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

SCENARIO = "ber-vs-photons"
SEED = 1
BITS = 256
METRIC = "ber"
REFERENCE_DIR = REPO / "tests" / "reference_artifacts"

#: Exit status for a missing/unreadable reference artefact: the gate itself
#: is broken (regenerate the reference), distinct from 1 = real drift.
EXIT_BAD_REFERENCE = 3


def _point_intervals(store, artifact, metric):
    """``{sorted-parameter-items: (value, half_width)}`` for one artefact."""
    report = store.load(artifact)
    return {
        tuple(sorted(point.parameters.items())): (
            point.metric(metric),
            point.confidence.get(metric),
        )
        for point in report.points
    }


def _confidence_drift(reference_points, current_points, metric):
    """Point labels whose estimates are statistically incompatible.

    A pair drifts when the 95 % intervals fail to overlap; a point with no
    published half-width falls back to exact equality (there is no noise to
    hide behind).
    """
    drifted = []
    for key in sorted(set(reference_points) & set(current_points)):
        value_a, half_a = reference_points[key]
        value_b, half_b = current_points[key]
        if half_a is None or half_b is None:
            if value_a != value_b:
                drifted.append((key, value_a, half_a, value_b, half_b))
            continue
        if abs(value_a - value_b) > half_a + half_b:
            drifted.append((key, value_a, half_a, value_b, half_b))
    return drifted


def main(argv=None) -> int:
    from repro.cli import main as cli_main
    from repro.scenarios.store import CorruptArtifactError, ReportStore

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--mode",
        choices=("bit-identical", "confidence"),
        default="bit-identical",
        help="bit-identical: any delta fails (deterministic contract); "
             "confidence: fail only when 95%% CIs no longer overlap "
             "(statistical-equivalence contract)",
    )
    args = parser.parse_args(argv)

    references = sorted(REFERENCE_DIR.glob(f"{SCENARIO}__*__seed{SEED}__*.json"))
    if not references:
        print(
            f"error: no committed reference artefact for {SCENARIO!r} (seed {SEED}) "
            f"under {REFERENCE_DIR}\n"
            f"regenerate it with:\n"
            f"  PYTHONPATH=src python -m repro run {SCENARIO} --bits {BITS} "
            f"--seed {SEED} --store {REFERENCE_DIR}",
            file=sys.stderr,
        )
        return EXIT_BAD_REFERENCE
    reference = references[-1]
    try:
        ReportStore(REFERENCE_DIR).load(reference.name)
    except (CorruptArtifactError, ValueError, OSError) as error:
        print(
            f"error: reference artefact {reference} is unreadable: {error}\n"
            f"regenerate it with:\n"
            f"  PYTHONPATH=src python -m repro run {SCENARIO} --bits {BITS} "
            f"--seed {SEED} --store {REFERENCE_DIR}",
            file=sys.stderr,
        )
        return EXIT_BAD_REFERENCE

    from repro.kernels import available_kernels

    # One scratch run per available compute kernel: the gate doubles as the
    # cross-kernel bit-identity check against the committed artefact.
    for kernel_name in available_kernels():
        status = _check_kernel(args.mode, reference, kernel_name)
        if status != 0:
            return status
    return 0


def _check_kernel(mode, reference, kernel_name) -> int:
    """Run the scratch simulation under one kernel and gate it."""
    from repro.cli import main as cli_main
    from repro.scenarios.store import ReportStore

    saved = os.environ.get("REPRO_KERNEL")
    os.environ["REPRO_KERNEL"] = kernel_name
    try:
        with tempfile.TemporaryDirectory() as scratch:
            status = cli_main(
                [
                    "run",
                    SCENARIO,
                    "--bits",
                    str(BITS),
                    "--seed",
                    str(SEED),
                    "--store",
                    scratch,
                    "--quiet",
                ]
            )
            if status != 0:
                return status
            store = ReportStore(scratch)
            current = store.latest(SCENARIO)
            comparison = store.compare(reference, current, METRIC, paths=True)
            if mode == "confidence":
                reference_points = _point_intervals(
                    ReportStore(REFERENCE_DIR), reference.name, METRIC
                )
                current_points = _point_intervals(store, current, METRIC)
                ci_drifted = _confidence_drift(
                    reference_points, current_points, METRIC
                )
    finally:
        if saved is None:
            os.environ.pop("REPRO_KERNEL", None)
        else:
            os.environ["REPRO_KERNEL"] = saved

    if mode == "confidence":
        if ci_drifted or comparison["only_a"] or comparison["only_b"]:
            print(
                f"REGRESSION: {SCENARIO!r} (kernel {kernel_name!r}) statistically "
                f"incompatible with {reference.name}",
                file=sys.stderr,
            )
            for key, value_a, half_a, value_b, half_b in ci_drifted:
                print(
                    f"  {dict(key)}: {METRIC} {value_a} +/- {half_a} vs "
                    f"{value_b} +/- {half_b} (CIs do not overlap)",
                    file=sys.stderr,
                )
            for side_key, side in (("only_a", "reference"), ("only_b", "current")):
                for parameters in comparison[side_key]:
                    print(f"  point only in {side}: {parameters}", file=sys.stderr)
            return 1
        print(
            f"regression gate ok: {SCENARIO!r} ({len(comparison['points'])} points, "
            f"kernel {kernel_name!r}) within 95% confidence of {reference.name}"
        )
        return 0

    drifted = [row for row in comparison["points"] if row["delta"] != 0.0]
    digest, reference_digest = current.rsplit("__", 1)[-1], reference.stem.rsplit("__", 1)[-1]
    if drifted or comparison["only_a"] or comparison["only_b"] or digest != reference_digest:
        print(
            f"REGRESSION: {SCENARIO!r} (kernel {kernel_name!r}) drifted from "
            f"{reference.name}: content digest {digest}, reference {reference_digest}",
            file=sys.stderr,
        )
        for row in drifted:
            print(
                f"  {row['parameters']}: {METRIC} {row['a']} -> {row['b']} "
                f"(delta {row['delta']:+g})",
                file=sys.stderr,
            )
        for key, side in (("only_a", "reference"), ("only_b", "current")):
            for parameters in comparison[key]:
                print(f"  point only in {side}: {parameters}", file=sys.stderr)
        print(
            "if the change is intentional, regenerate the reference artefact "
            "(see this script's docstring)",
            file=sys.stderr,
        )
        return 1
    print(
        f"regression gate ok: {SCENARIO!r} ({len(comparison['points'])} points, "
        f"kernel {kernel_name!r}) bit-identical to {reference.name}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
