"""Outside-in span recorder for the benchmark's traced run.

The simulator itself times nothing, so the traced run wraps the public
functions of each layer from here: every call becomes a span (name, start,
end, parent) kept in memory and summarised when the benchmark ends.  A
layer's *self* time is its span duration minus the part of that interval its
child spans cover, so nested layers are never counted twice.

Three places need care, and :func:`install_layer_tracing` handles each:

* names imported by value are wrapped where they are looked up — e.g.
  ``detect_in_windows_multichannel`` inside :mod:`repro.core.multilink`,
  ``evaluate_metrics`` inside :mod:`repro.scenarios.runner` and ``make_link``
  inside :mod:`repro.noc.bus`;
* compute kernels are wrapped through the resolved registry entries
  (``repro.kernels._registry()``), so whatever ``get_kernel`` returns is
  traced;
* process-executor workers record into their own (forked) recorder and ship
  their spans back attached to the point outcome; the parent adopts them
  under the span that dispatched the work.  ``perf_counter_ns`` reads the
  system-wide monotonic clock, so child spans land on the parent timeline.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Attribute carrying a worker's spans on a point outcome across the process
#: boundary (popped again by the parent before the outcome is used).
_SHIPPED = "_perfbench_trace"


class SpanRecorder:
    """In-memory spans plus named counters, one stack of open spans per thread.

    A span is ``[name, start_ns, end_ns, parent index or -1]``.
    """

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.counters: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        """Index of the innermost open span on this thread, or -1."""
        stack = self._stack()
        return stack[-1] if stack else -1

    def open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter_ns(), 0, stack[-1] if stack else -1])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def wrap(
        self,
        function: Callable,
        name: str,
        on_result: Optional[Callable[["SpanRecorder", tuple, dict, Any], None]] = None,
    ) -> Callable:
        """``function`` recording one span per call (and an optional counter hook)."""
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = recorder.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                recorder.close(index)
            if on_result is not None:
                on_result(recorder, args, kwargs, result)
            return result

        return traced

    # -- crossing a process boundary ---------------------------------------------
    def reset(self) -> None:
        """Forget everything (a forked worker starts from the parent's copy)."""
        self.spans = []
        self.counters = Counter()
        self._local = threading.local()

    def export(self) -> Dict[str, Any]:
        return {"spans": [tuple(span) for span in self.spans], "counters": dict(self.counters)}

    def adopt(self, shipped: Dict[str, Any], parent: Optional[int] = None) -> None:
        """Merge spans recorded elsewhere, re-rooting their top level under ``parent``."""
        parent = self.current() if parent is None else parent
        with self._lock:
            offset = len(self.spans)
            for name, start, end, up in shipped["spans"]:
                self.spans.append([name, start, end, parent if up < 0 else up + offset])
            self.counters.update(shipped["counters"])

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.export(), handle)


def self_times(spans: Sequence[Sequence[Any]]) -> Dict[str, Tuple[float, float, int]]:
    """``{name: (self_seconds, total_seconds, calls)}`` over closed spans.

    Self time is a span's duration minus the union of its children's
    intervals clipped to it, so overlapping children (threads, worker
    processes) are subtracted once.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result: Dict[str, List[float]] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        if end < start:
            continue  # never closed (cannot happen for finished calls)
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        entry = result.setdefault(name, [0.0, 0.0, 0])
        entry[0] += (end - start - covered) / 1e9
        entry[1] += (end - start) / 1e9
        entry[2] += 1
    return {name: (values[0], values[1], int(values[2])) for name, values in result.items()}


# -- installing the layer wrappers ---------------------------------------------


def _counting_hook(recorder: SpanRecorder, args, kwargs, result) -> None:
    recorder.count("fastlink.symbols", result.symbols_sent)


def _outcome_hook(recorder: SpanRecorder, args, kwargs, result) -> None:
    outcome = args[1] if len(args) > 1 else kwargs["outcome"]
    recorder.count("sim.symbols", outcome.symbols)
    recorder.count("sim.bit_errors", outcome.bit_errors)
    if outcome.noc is not None:
        recorder.count("noc.busy_slots", outcome.noc["busy_slots"])


#: (module, attribute path, span name, optional counter hook).  Attributes
#: on a module are functions looked up at call time; ``Class.method`` paths
#: patch the class so every instance is traced.
LAYER_TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.frontdoor", "RunRequest.build", "frontdoor.request", None),
    ("repro.frontdoor", "RunRequest.run_key", "frontdoor.request", None),
    ("repro.scenarios.runner", "ExperimentRunner.run", "executors.run", None),
    ("repro.scenarios.executors", "evaluate_point", "executors.evaluate_point", None),
    ("repro.scenarios.runner", "evaluate_metrics", "metrics.evaluate", _outcome_hook),
    ("repro.scenarios.store", "ReportStore.save", "store.save", None),
    ("repro.scenarios.store", "ReportStore.find_run", "store.find_run", None),
    ("repro.scenarios.store", "ReportStore.load", "store.load", None),
    ("repro.scenarios.store", "ReportStore.list", "store.list", None),
    ("repro.simulation.montecarlo", "LinkBatchTrial.__call__", "montecarlo.trial", None),
    ("repro.simulation.montecarlo", "NocTrafficTrial.__call__", "montecarlo.noc_trial", None),
    ("repro.core.backend", "make_link", "backend.make_link", None),
    ("repro.noc.bus", "make_link", "backend.make_link", None),
    ("repro.core.fastlink", "FastOpticalLink.transmit_bits", "fastlink.transmit", _counting_hook),
    ("repro.core.multilink", "MultichannelOpticalLink.transmit_bits", "multilink.transmit", None),
    ("repro.modulation.ppm", "PpmCodec.encode_bits_to_values", "ppm.encode", None),
    ("repro.modulation.ppm", "PpmCodec.pulse_times_for_values", "ppm.encode", None),
    ("repro.modulation.ppm", "PpmCodec.decode_times", "ppm.decode", None),
    ("repro.spad.device", "SpadDevice.detect_in_windows", "spad.detect", None),
    ("repro.core.multilink", "detect_in_windows_multichannel", "spad.array_detect", None),
    ("repro.spad.array", "detect_in_windows_multichannel", "spad.array_detect", None),
    ("repro.tdc.converter", "TimeToDigitalConverter.convert_array", "tdc.convert", None),
    ("repro.photonics.crosstalk", "CrosstalkModel.crosstalk_matrix", "crosstalk.matrix", None),
    ("repro.photonics.crosstalk", "CrosstalkModel.coupling_profile", "crosstalk.matrix", None),
    ("repro.noc.bus", "OpticalBus.run", "noc.bus_run", None),
    ("repro.noc.packet", "Packet.__init__", "noc.packet", None),
)

#: Kernel-registry entry fields and the span each becomes.
KERNEL_FIELDS = (
    ("scan_windows", "kernels.scan_windows"),
    ("resolve_windows", "kernels.resolve_windows"),
    ("arbitrate", "kernels.arbitrate"),
)


def _patch(recorder: SpanRecorder, module_name: str, path: str, name: str, hook) -> None:
    module = importlib.import_module(module_name)
    owner_name, _, attribute = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    raw = owner.__dict__[attribute] if owner_name else getattr(module, attribute)
    if isinstance(raw, classmethod):
        setattr(owner, attribute, classmethod(recorder.wrap(raw.__func__, name, hook)))
    else:
        setattr(owner, attribute, recorder.wrap(raw, name, hook))


def install_layer_tracing(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary of the simulator so calls record spans.

    Call once per process, before the traced work starts (process pools
    forked afterwards inherit the wrappers).  There is no uninstall: the
    traced phase is the last thing a benchmark process does.
    """
    for module_name, path, name, hook in LAYER_TARGETS:
        _patch(recorder, module_name, path, name, hook)

    import repro.kernels as kernels

    registry = kernels._registry()
    for key, kernel in list(registry.items()):
        replaced = {
            field: recorder.wrap(getattr(kernel, field), span)
            for field, span in KERNEL_FIELDS
            if getattr(kernel, field) is not None
        }
        registry[key] = dataclasses.replace(kernel, **replaced)
    warn = kernels._warn_unavailable

    def counted_fallback(requested: str) -> None:
        recorder.count("kernels.fallbacks")
        warn(requested)

    kernels._warn_unavailable = counted_fallback
    _install_worker_shipping(recorder)


def _install_worker_shipping(recorder: SpanRecorder) -> None:
    """Bring process-pool workers' spans back to the parent recorder."""
    from repro.scenarios import executors

    attempt = executors.evaluate_task_attempt
    home = os.getpid()

    @functools.wraps(attempt)
    def shipped_attempt(task, number):
        if os.getpid() == home:
            return attempt(task, number)
        recorder.reset()  # a forked worker: record this task on its own
        outcome = attempt(task, number)
        object.__setattr__(outcome, _SHIPPED, recorder.export())
        return outcome

    executors.evaluate_task_attempt = shipped_attempt
    map_tasks = executors.ProcessExecutor.map_tasks

    @functools.wraps(map_tasks)
    def adopting_map_tasks(self, tasks):
        for index, result in map_tasks(self, tasks):
            shipped = getattr(result, "__dict__", {}).pop(_SHIPPED, None)
            if shipped is not None:
                recorder.adopt(shipped)
            yield index, result

    executors.ProcessExecutor.map_tasks = adopting_map_tasks

