#!/usr/bin/env python
"""List every function and method under ``src/repro`` that no production path enters.

The evidence for deleting code "only tests reach".  The script copies the
checkout into a temporary directory (so it writes nothing into the
repository), then runs the production entry points against the copy with a
profiler hook loaded into every Python process:

* the examples under ``examples/``;
* every named scenario under ``repro run`` on the default backend,
  ``--backend scalar`` (single-channel scenarios only: the scalar backend
  refuses parallel channels), ``--backend multichannel`` and
  ``--executor thread --workers 2``, plus ``repro probe``, ``repro list``,
  ``repro show`` and ``repro compare``;
* ``--trial-mode importance --ci-target`` runs on the default and the
  multichannel backend, and one ``--executor process --workers 2`` run;
* the figure benchmarks (every ``benchmarks/bench_*.py`` except the timing
  trackers), with ``--benchmark-disable``;
* ``scripts/service_smoke.py``, ``scripts/cluster_smoke.py`` and
  ``perfbench/selftest.py``.

The hook is a ``sitecustomize.py`` in a temporary directory prepended to
``PYTHONPATH``.  It installs ``sys.setprofile`` and ``threading.setprofile``,
records every code object a process enters, and dumps the ones under
``src/repro`` at exit and on ``os._exit``, so forked pool workers are
recorded too.  The smoke scripts prepend ``src`` to the ``PYTHONPATH`` they
inherit, so the service daemon and the cluster workers they start load the
hook as well (a process killed by a signal it does not handle records
nothing).  ``--benchmark-disable`` is required: the pytest-benchmark
fixture replaces the profile hook while it times a function.

Usage::

    python scripts/reachability.py [--repo PATH]

The report goes to stdout: per module, each function or method never entered,
with its line span.  A class none of whose methods ran is listed once as
``Class.*`` (the class itself may still be instantiated: generated methods
such as a dataclass ``__init__`` are not recorded), and a module no run
imported is listed as a whole.  Exit status is 0 when every run
succeeded and 1 otherwise (the report is printed either way).
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

REPO = Path(__file__).resolve().parent.parent

#: Benchmarks that time one layer rather than reproduce a figure or claim.
TIMING_TRACKERS = frozenset(
    f"bench_{name}.py"
    for name in (
        "fastpath_speedup", "multichannel", "noc_traffic", "parallel_scenarios",
        "cluster", "kernels", "rareevent",
    )
)
#: Payload bits per grid point for the scenario runs.
BITS = 2048
#: Runs in parallel.
JOBS = 2
#: Left out of the copy: VCS data and what earlier runs left behind.
COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", "*.pyc", ".bench_build", ".benchmarks", ".pytest_cache",
    ".hypothesis", "artifacts",
)

HOOK = '''\
import atexit
import os
import sys
import threading
import time

_ROOT = {root!r}
_OUT = {out!r}
_seen = set()


def _profile(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _dump():
    lines = {{
        f"{{code.co_filename}}\\t{{code.co_firstlineno}}"
        for code in list(_seen)
        if code.co_filename.startswith(_ROOT)
    }}
    path = os.path.join(_OUT, f"{{os.getpid()}}-{{time.monotonic_ns()}}.txt")
    with open(path, "w") as handle:
        handle.write("\\n".join(sorted(lines)))


_real_exit = os._exit


def _exit(status):
    _dump()
    _real_exit(status)


os._exit = _exit
atexit.register(_dump)
sys.setprofile(_profile)
threading.setprofile(_profile)
'''


class Job(NamedTuple):
    label: str
    argv: List[str]
    timeout: float
    #: Exit statuses that count as success (``repro probe`` exits 4 on a miss).
    ok: Tuple[int, ...] = (0,)


class Function(NamedTuple):
    qualname: str
    first: int
    last: int
    cls: Optional[str]


def _repro(*arguments: str) -> List[str]:
    return [sys.executable, "-m", "repro", *arguments]


def production_jobs(root: Path, store: Path) -> List[Job]:
    """Every run except ``show``/``compare``, which read what these store."""
    sys.path.insert(0, str(root / "src"))
    try:
        from repro.scenarios import get_scenario, named_scenarios

        scenarios = [(name, get_scenario(name).channels) for name in named_scenarios()]
    finally:
        sys.path.pop(0)
    budget = ["--bits", str(BITS), "--store", str(store), "--quiet"]
    jobs = [Job(f"example {path.name}", [sys.executable, str(path)], 300)
            for path in sorted((root / "examples").glob("*.py"))]
    for name, channels in scenarios:
        variants = [[], ["--backend", "multichannel"], ["--executor", "thread", "--workers", "2"]]
        if channels == 1:  # the scalar backend refuses parallel channels
            variants.append(["--backend", "scalar"])
        for variant in variants:
            jobs.append(Job(" ".join(["run", name, *variant]),
                            _repro("run", name, *budget, *variant), 300))
        jobs.append(Job(f"probe {name}", _repro("probe", name, "--bits", str(BITS),
                                                 "--store", str(store)), 120, (0, 4)))
    importance = ["--trial-mode", "importance", "--ci-target", "0.05", "--max-symbols", "20000",
                  "--store", str(store), "--quiet"]
    jobs.append(Job("run importance", _repro("run", "ber-vs-photons", *importance), 300))
    jobs.append(Job("run importance --backend multichannel", _repro(
        "run", "ber-vs-photons", *importance, "--backend", "multichannel"), 300))
    jobs.append(Job("run process", _repro(
        "run", "noc-load-latency", *budget, "--executor", "process", "--workers", "2"), 300))
    jobs.append(Job("list", _repro("list"), 60))
    for path in sorted((root / "benchmarks").glob("bench_*.py")):
        if path.name not in TIMING_TRACKERS:
            jobs.append(Job(f"benchmark {path.name}", [
                sys.executable, "-m", "pytest", str(path), "-q", "-p", "no:cacheprovider",
                "--benchmark-disable"], 600))
    for script in ("service_smoke.py", "cluster_smoke.py"):
        jobs.append(Job(f"script {script}", [sys.executable, str(root / "scripts" / script)], 300))
    jobs.append(Job("perfbench selftest", [
        sys.executable, "-m", "pytest", str(root / "perfbench" / "selftest.py"), "-q",
        "-p", "no:cacheprovider"], 900))
    return jobs


def artifact_jobs(store: Path) -> List[Job]:
    """``repro show`` and ``repro compare`` over two stored ``ber-vs-photons`` runs."""
    artifacts = sorted(str(path) for path in store.glob("ber-vs-photons__*.json"))
    if len(artifacts) < 2:
        return []
    return [
        Job("show", _repro("show", artifacts[0], "--store", str(store)), 60),
        Job("compare", _repro("compare", *artifacts[:2], "--metric", "ber",
                              "--store", str(store)), 60),
    ]


def run_job(job: Job, cwd: Path, env: Dict[str, str]) -> Optional[str]:
    """Run one job; ``None`` on success, else a one-line failure description."""
    try:
        completed = subprocess.run(job.argv, cwd=cwd, env=env, capture_output=True,
                                   text=True, timeout=job.timeout)
    except subprocess.TimeoutExpired:
        return f"{job.label}: timed out after {job.timeout:.0f} s"
    if completed.returncode in job.ok:
        return None
    tail = (completed.stderr.strip() or completed.stdout.strip()).splitlines()
    return f"{job.label}: exit {completed.returncode}: {tail[-1] if tail else ''}"


def defined_functions(path: Path) -> Tuple[List[Function], Dict[str, Tuple[int, int]]]:
    """Every function and method in ``path`` (nested ones too), and each class's span."""
    functions: List[Function] = []
    classes: Dict[str, Tuple[int, int]] = {}

    def visit(node: ast.AST, prefix: str, cls: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # A decorated definition's code object starts at its first decorator.
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            qualname = f"{prefix}{child.name}"
            if isinstance(child, ast.ClassDef):
                classes[qualname] = (first, child.end_lineno)
                visit(child, f"{qualname}.", qualname)
            else:
                functions.append(Function(qualname, first, child.end_lineno, cls))
                visit(child, f"{qualname}.<locals>.", None)

    visit(ast.parse(path.read_text(), str(path)), "", None)
    return functions, classes


def load_entered(out: Path) -> Set[Tuple[str, int]]:
    """``(filename, first line)`` of every code object some process entered."""
    entered: Set[Tuple[str, int]] = set()
    for dump in out.glob("*.txt"):
        for line in dump.read_text().splitlines():
            filename, first = line.split("\t")
            entered.add((filename, int(first)))
    return entered


def report(package: Path, entered: Set[Tuple[str, int]]) -> Tuple[List[str], int, int]:
    """``(lines, functions never entered, their line total)`` for ``package``."""
    lines: List[str] = []
    total = span_total = 0
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package.parent)
        functions, classes = defined_functions(path)
        imported = (str(path), 1) in entered
        missed = [f for f in functions if not imported or (str(path), f.first) not in entered]
        # A nested function of a function never entered is implied by it.
        outer = tuple(f"{f.qualname}.<locals>." for f in missed)
        missed = [f for f in missed if not f.qualname.startswith(outer)]
        if not imported:
            length = len(path.read_text().splitlines())
            lines += [str(relative), f"  module never imported ({length} lines)"]
            total += len(missed)
            span_total += length
            continue
        if not missed:
            continue
        lines.append(str(relative))
        total += len(missed)
        span_total += sum(f.last - f.first + 1 for f in missed)
        methods: Dict[str, List[Function]] = {}
        for function in functions:
            methods.setdefault(function.cls, []).append(function)
        shown: Set[str] = set()
        for function in missed:
            cls = function.cls
            if cls is not None and all(method in missed for method in methods[cls]):
                if cls not in shown:
                    first, last = classes[cls]
                    label = f"{cls}.* (all {len(methods[cls])} methods)"
                    lines.append(f"  {label:<56} {first}-{last}")
                    shown.add(cls)
                continue
            lines.append(f"  {function.qualname:<56} {function.first}-{function.last}")
    return lines, total, span_total


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=Path, default=REPO,
                        help="checkout to measure (default: this one)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        scratch_path = Path(scratch)
        root = scratch_path / "repo"
        shutil.copytree(args.repo.resolve(), root, ignore=COPY_IGNORE)
        package = root / "src" / "repro"
        hook_dir, out, store, tmp = (scratch_path / name for name in
                                     ("hook", "out", "store", "tmp"))
        for directory in (hook_dir, out, store, tmp):
            directory.mkdir()
        (hook_dir / "sitecustomize.py").write_text(
            HOOK.format(root=str(package) + os.sep, out=str(out)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(hook_dir), str(root / "src")]),
                   PYTHONDONTWRITEBYTECODE="1", TMPDIR=str(tmp),
                   REPRO_CEXT_CACHE=str(tmp / "cext"))
        env.pop("REPRO_KERNEL", None)

        jobs = production_jobs(root, store)
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            failures = list(pool.map(lambda job: run_job(job, root, env), jobs))
        follow_ups = artifact_jobs(store)
        if not follow_ups:
            failures.append("show/compare: fewer than two ber-vs-photons artefacts stored")
        failures += [run_job(job, root, env) for job in follow_ups]
        failures = [failure for failure in failures if failure]
        jobs_run = len(jobs) + len(follow_ups)

        lines, total, span_total = report(package, load_entered(out))

    print(f"# Functions under src/repro that no production run entered "
          f"({jobs_run} runs, {len(failures)} failed)")
    for failure in failures:
        print(f"# failed: {failure}")
    print()
    print("\n".join(lines))
    print()
    print(f"# {total} functions and methods never entered, {span_total} lines")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
