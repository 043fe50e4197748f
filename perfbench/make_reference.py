#!/usr/bin/env python3
"""Regenerate the references the correctness check compares against.

Usage (from the repository root)::

    python3 perfbench/make_reference.py

Writes ``perfbench/reference/<scenario>-<bits>.json`` for every budget a
workload runs (``check.build_reference``: per-point means and single-run
spreads over ``check.REFERENCE_SEEDS``).  Takes about five minutes on two
cores.  Regenerate only when a change moves the physics on purpose, and say
so in the change.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    import check
    from workloads import WORKLOADS

    budgets = set()
    for workload in WORKLOADS.values():
        budgets.add((workload.scenario, workload.bits))
        if hasattr(workload, "hit_bits"):
            budgets.add((workload.scenario, workload.hit_bits))
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    for scenario, bits in sorted(budgets):
        path = check.reference_path(scenario, bits)
        with open(path, "w") as handle:
            json.dump(check.build_reference(scenario, bits), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
