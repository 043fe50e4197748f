"""Chunk-level fan-out: splitting one grid point across the fleet.

A point's Monte-Carlo budget is already evaluated in chunks whose seeds are
**absolute**: :func:`~repro.simulation.montecarlo.chunk_generators` seeds
the chunk starting at symbol ``o`` with
``split_seed(seed, f"{label}:batch:{o}")`` whatever range the run covers.
So the sub-task covering symbols ``[a, b)`` of a point — expressed as
``dataclasses.replace(task, start_symbol=a, symbols=b - a)`` — evaluates
*exactly* the chunks an unsplit run would have evaluated over that range,
provided ``a`` and every internal boundary land on multiples of
``chunk_symbols``.  :func:`split_point_task` enforces that alignment, and
:func:`merge_chunk_outcomes` folds the partial outcomes back together in
ascending symbol order, exactly as the adaptive-budget waves merge their
installments.

Eligibility is deliberately narrow, because the merge must be **exact**:

* naive link points carry integer accumulators only (bit/symbol error
  counts, detection counts, per-channel int64 splits) — integer sums are
  associative under any grouping, so any split is bit-identical;
* importance points carry floating-point weighted accumulators whose
  summation *grouping* is observable (``weighted_error_sum`` is one
  pairwise ``np.sum`` over the whole installment's per-symbol values), so
  they are dispatched unsplit;
* NoC traffic points have no ``start_symbol`` semantics (bus state is
  sequential) and their outcomes refuse to merge — unsplit as well.

Every named library scenario is a naive link workload, so in practice the
whole catalogue fans out — including ``spad-array-imager``, whose single
4096-channel point is precisely the case chunk fan-out exists for.
"""

from __future__ import annotations

import dataclasses
from typing import List, Mapping

from repro.scenarios.executors import PointTask
from repro.scenarios.metrics import PointOutcome
from repro.scenarios.scenario import Scenario


def task_symbols(scenario: Scenario, task: PointTask) -> int:
    """The task's symbol budget (explicit, or derived from ``bits_per_point``)."""
    if task.symbols is not None:
        return int(task.symbols)
    config, _channel = scenario.config_for_point(task.parameters)
    return max(1, -(-scenario.bits_per_point // config.ppm_bits))


def check_chunk_outcome(scenario: Scenario, task: PointTask, outcome: PointOutcome) -> None:
    """Raise :class:`ValueError` unless ``outcome`` fits the task it answers.

    A NoC point's outcome carries its bus counters.  A link point's carries
    none; it holds exactly the task's symbol budget at ``ppm_bits`` bits a
    symbol, the scenario's channel count with a per-channel split that adds
    up to the totals (multichannel points only), and the weighted
    accumulators exactly when the scenario samples by importance.  Chunks
    that pass merge without error, so one worker's bad result can cost that
    worker, never the run.
    """
    if scenario.noc_for_point(task.parameters) is not None:
        if outcome.noc is None:
            raise ValueError("a NoC point's outcome must carry its bus counters")
        return
    budget = task_symbols(scenario, task)
    channels = scenario.channels
    weighted = scenario.trial_mode == "importance"
    if outcome.noc is not None:
        problem = "bus counters on a link point"
    elif outcome.symbols != budget:
        problem = f"{outcome.symbols} symbols for a budget of {budget}"
    elif outcome.bits != outcome.symbols * outcome.config.ppm_bits:
        problem = f"{outcome.bits} bits for {outcome.symbols} symbols"
    elif outcome.channels != channels:
        problem = f"{outcome.channels} channels on a {channels}-channel point"
    elif len(outcome.channel_bits) != (channels if channels > 1 else 0) or (
        channels > 1
        and (sum(outcome.channel_bits), sum(outcome.channel_bit_errors))
        != (outcome.bits, outcome.bit_errors)
    ):
        problem = "a per-channel split that does not add up to the point"
    elif outcome.is_weighted != weighted:
        problem = "weighted accumulators " + ("missing" if weighted else "on a naive point")
    else:
        return
    raise ValueError(f"the outcome does not fit its chunk task: {problem}")


def fan_out_eligible(scenario: Scenario, task: PointTask) -> bool:
    """Whether splitting this task is guaranteed bit-identical to not splitting.

    Only naive (integer-accumulator) link points with a chunk-aligned start
    offset qualify; importance and NoC points always dispatch unsplit.
    """
    if scenario.trial_mode == "importance":
        return False
    if scenario.noc_for_point(task.parameters) is not None:
        return False
    # The PointTask contract requires chunk-aligned offsets; an unaligned one
    # (never produced by the runner or the adaptive waves) is left unsplit
    # rather than guessed at.
    return task.start_symbol % task.chunk_symbols == 0


def split_point_task(
    scenario: Scenario, task: PointTask, fan_out: int
) -> List[PointTask]:
    """Compile one point task into at most ``fan_out`` chunk tasks.

    Chunk tasks partition the symbol range ``[start_symbol, start_symbol +
    symbols)`` into contiguous groups of whole ``chunk_symbols`` chunks, so
    every internal boundary matches a chunk boundary of the unsplit run.
    Ineligible tasks (and a fan-out of 1, or a budget of a single chunk)
    come back as ``[task]`` unchanged.
    """
    if fan_out <= 1 or not fan_out_eligible(scenario, task):
        return [task]
    symbols = task_symbols(scenario, task)
    chunk = task.chunk_symbols
    total_chunks = -(-symbols // chunk)
    parts = min(int(fan_out), total_chunks)
    if parts <= 1:
        return [task]
    base, extra = divmod(total_chunks, parts)
    tasks: List[PointTask] = []
    cursor = 0  # chunk index within the task
    for part in range(parts):
        span = base + (1 if part < extra else 0)
        start = cursor * chunk
        size = min(span * chunk, symbols - start)
        tasks.append(
            dataclasses.replace(
                task,
                start_symbol=task.start_symbol + start,
                symbols=size,
            )
        )
        cursor += span
    return tasks


def merge_chunk_outcomes(parts: Mapping[int, PointOutcome]) -> PointOutcome:
    """Fold chunk outcomes (keyed by absolute ``start_symbol``) into the point.

    Merging in ascending symbol order — regardless of the order results
    arrived off the network — reproduces exactly the accumulation order of
    the unsplit run, the same contract the adaptive-budget waves rely on.
    """
    if not parts:
        raise ValueError("no chunk outcomes to merge")
    ordered = [parts[offset] for offset in sorted(parts)]
    merged = ordered[0]
    for outcome in ordered[1:]:
        merged = merged.merge(outcome)
    return merged

