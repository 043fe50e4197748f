"""Tier-1 docs smoke (marked ``docs_smoke``): docs must stay executable.

Two guarantees:

* the doctests of the package's front-door modules (``repro.core.backend``
  and the ``repro.scenarios`` layer) pass — the same checks
  ``pytest --doctest-modules src/repro/core/backend.py src/repro/scenarios``
  would run, executed through :mod:`doctest` so they ride along in the
  normal tier-1 invocation; and
* every fenced ``python`` code block in the top-level ``README.md``
  executes, in order, in one shared namespace — quickstart snippets that
  rot, fail loudly here.

Deselect with ``-m "not docs_smoke"`` when iterating on unrelated code.
"""

import doctest
import re
from pathlib import Path

import pytest

import repro
import repro.cli
import repro.core.backend
import repro.scenarios
import repro.scenarios.executors
import repro.scenarios.faults
import repro.scenarios.library
import repro.scenarios.metrics
import repro.scenarios.runner
import repro.scenarios.scenario
import repro.scenarios.session
import repro.scenarios.smoke
import repro.scenarios.store
import repro.frontdoor
import repro.service.app
import repro.service.client
import repro.service.sse

README = Path(__file__).resolve().parent.parent / "README.md"

DOCTEST_MODULES = (
    repro,
    repro.cli,
    repro.core.backend,
    repro.scenarios,
    repro.scenarios.scenario,
    repro.scenarios.library,
    repro.scenarios.metrics,
    repro.scenarios.executors,
    repro.scenarios.faults,
    repro.scenarios.session,
    repro.scenarios.runner,
    repro.scenarios.store,
    repro.scenarios.smoke,
    repro.frontdoor,
    repro.service.app,
    repro.service.client,
    repro.service.sse,
)


@pytest.mark.docs_smoke
@pytest.mark.parametrize("module", DOCTEST_MODULES, ids=lambda m: m.__name__)
def test_front_door_doctests_pass(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module.__name__}: {results.failed} doctest failure(s)"


def readme_code_blocks():
    """Fenced ``python`` blocks of the README, in document order."""
    text = README.read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


@pytest.mark.docs_smoke
def test_readme_exists_and_has_runnable_quickstart():
    assert README.exists(), "top-level README.md is part of the project contract"
    blocks = readme_code_blocks()
    assert len(blocks) >= 3, "README should carry at least quickstart + scenario + array examples"


@pytest.mark.docs_smoke
def test_readme_code_blocks_execute(tmp_path, monkeypatch):
    # One shared namespace: later blocks may build on earlier imports, and
    # the blocks run top to bottom exactly as a reader would paste them.
    # Run from a temp cwd: the quickstart writes a relative ./artifacts
    # store, which must not land in the repository (or wherever pytest was
    # launched from).
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "__readme__"}
    for index, block in enumerate(readme_code_blocks()):
        try:
            exec(compile(block, f"README.md[block {index}]", "exec"), namespace)
        except Exception as error:  # pragma: no cover - failure reporting
            pytest.fail(f"README code block {index} failed: {error!r}\n{block}")


@pytest.mark.docs_smoke
def test_readme_documents_every_backend_and_subpackage():
    text = README.read_text()
    # The built-in engines (other tests may register throwaway backends, so
    # this deliberately does not iterate available_backends()).
    for backend in ("batch", "multichannel"):
        assert f'"{backend}"' in text, f"README backend table is missing {backend!r}"
    for subpackage in (
        "repro.core", "repro.spad", "repro.tdc", "repro.photonics",
        "repro.modulation", "repro.electrical", "repro.noc",
        "repro.simulation", "repro.scenarios", "repro.analysis",
    ):
        assert subpackage in text, f"README module map is missing {subpackage}"


@pytest.mark.docs_smoke
def test_docs_cover_the_rare_event_engine():
    # The importance-sampling story — proposals, weighting, the statistical
    # vs bit-identical equivalence contract — must stay written down next
    # to the code (README quickstart + ARCHITECTURE design section).
    readme = README.read_text()
    assert "## Rare-event BER" in readme
    for anchor in ("trial_mode", "ci_target", "max_symbols", "--trial-mode"):
        assert anchor in readme, f"README rare-event section lost {anchor!r}"
    doc = (README.parent / "docs" / "ARCHITECTURE.md").read_text()
    assert "## Rare-event estimation" in doc
    for anchor in (
        "ImportanceSettings",
        "likelihood",
        "weighted_mean_confidence_95",
        "error_strata",
        "append_partial",
        "tests/_stats.py",
        "--mode",
    ):
        assert anchor in doc, f"ARCHITECTURE.md rare-event section lost {anchor!r}"


@pytest.mark.docs_smoke
def test_architecture_doc_covers_the_service_design():
    # The service's design doc is part of the contract: the run-key/dedupe
    # story must stay written down next to the code that implements it.
    doc = README.parent / "docs" / "ARCHITECTURE.md"
    assert doc.exists(), "docs/ARCHITECTURE.md is part of the project contract"
    text = doc.read_text()
    for heading in (
        "## Experiment service",
        "### The run key and the run index",
        "### In-flight dedupe and SSE fan-out",
    ):
        assert heading in text, f"ARCHITECTURE.md lost its {heading!r} section"
    for anchor in ("RunRequest", "find_run", "serve_app", "ServiceBindError"):
        assert anchor in text, f"ARCHITECTURE.md no longer mentions {anchor}"


@pytest.mark.docs_smoke
def test_docs_cover_the_kernel_layer():
    # The compute-kernel story — the registry, the bit-identity contract,
    # GIL-free thread execution — must stay written down next to the code
    # (README install + kernels sections, ARCHITECTURE design section).
    readme = README.read_text()
    assert "## Compute kernels" in readme
    for anchor in ("--executor thread", "REPRO_KERNEL"):
        assert anchor in readme, f"README kernels section lost {anchor!r}"
    doc = (README.parent / "docs" / "ARCHITECTURE.md").read_text()
    assert "## Compute kernels" in doc
    for anchor in (
        "get_kernel",
        "available_kernels",
        "REPRO_KERNEL",
        "releases the GIL",
        "repro.kernels.reference",
        "ThreadExecutor",
        "round_robin_schedule",
        "commit_grants",
        "benchmarks/bench_kernels.py",
    ):
        assert anchor in doc, f"ARCHITECTURE.md kernels section lost {anchor!r}"


@pytest.mark.docs_smoke
def test_docs_cover_the_cluster_executor():
    # The distributed-execution story — the socket transport, chunk fan-out,
    # work stealing, and the bit-identity contract across worker deaths —
    # must stay written down next to the code (README quickstart +
    # ARCHITECTURE design section).
    readme = README.read_text()
    assert "## Distributed execution" in readme
    for anchor in (
        "repro worker",
        "--executor cluster",
        "--workers 127.0.0.1:7001,127.0.0.1:7002",
        "work stealing",
        "WorkerLostError",
        "fan-out",
    ):
        assert anchor in readme, f"README cluster section lost {anchor!r}"
    doc = (README.parent / "docs" / "ARCHITECTURE.md").read_text()
    assert "## Distributed execution" in doc
    for heading in (
        "### The transport",
        "### Chunk-level fan-out",
        "### Work stealing and failure semantics",
    ):
        assert heading in doc, f"ARCHITECTURE.md lost its {heading!r} section"
    for anchor in (
        "ClusterExecutor",
        "split_seed",
        "merge_chunk_outcomes",
        "heartbeat",
        "WorkerLostError",
        "RetryPolicy",
        "scripts/cluster_smoke.py",
        "host:port",
    ):
        assert anchor in doc, f"ARCHITECTURE.md cluster section lost {anchor!r}"
